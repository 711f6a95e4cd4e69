package tiled

import (
	"repro/internal/dataflow"
	"repro/internal/linalg"
)

// Distributed matrix-vector products. The translation mirrors the
// matrix-matrix group-by query (Section 5.3) specialized to a vector
// operand: matrix tiles are joined with vector blocks on the
// contracted block coordinate, each pair produces a partial result
// block, and partials reduce by destination coordinate with vector
// addition.

// MatVecOp computes y = op(M) * x, op(M) being M, or Mᵀ when trans,
// without materializing Mᵀ: a tile joins the vector block of its
// contracted coordinate — its column, or its row — and its partial lands
// on the other.
func (m *Matrix) MatVecOp(x *Vector, trans bool) *Vector {
	rows, cols := opIndex(m.Rows, m.Cols, trans)
	if cols != x.Size || m.N != x.N {
		panic("tiled: matvec shape mismatch")
	}
	parts := m.Tiles.NumPartitions()
	left := dataflow.Map(m.Tiles, func(b Block) dataflow.Pair[int64, Block] {
		_, k := opIndex(b.Key.I, b.Key.J, trans)
		return dataflow.KV(k, b)
	})
	joined := dataflow.Join(left, x.Blocks, parts)
	partials := dataflow.Map(joined, func(p dataflow.Pair[int64, dataflow.JoinedPair[Block, *linalg.Vector]]) VBlock {
		t, v := p.Value.Left, p.Value.Right
		g, _ := opIndex(t.Key.I, t.Key.J, trans)
		if trans {
			return dataflow.KV(g, linalg.VecMat(v, t.Value))
		}
		return dataflow.KV(g, linalg.MatVec(t.Value, v))
	})
	reduced := dataflow.ReduceByKey(partials, func(a, b *linalg.Vector) *linalg.Vector {
		return a.AddInPlace(b)
	}, parts)
	return &Vector{Size: rows, N: m.N, Blocks: reduced}
}
