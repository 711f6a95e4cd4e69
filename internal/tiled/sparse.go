package tiled

import (
	"repro/internal/dataflow"
	"repro/internal/linalg"
)

// Sparse block matrices: the extension the paper's conclusion sketches
// ("tiled arrays where each tile is stored in the compressed sparse
// column format" — we use CSR, the row-major analogue matching our
// dense tiles). The storage-mapping layer makes this a drop-in
// alternative: a different sparsifier/builder pair over the same
// coordinate abstraction, and kernels specialized per tile
// representation. Only tiles containing nonzeros are stored.

// SparseBlock is one CSR tile with its coordinates.
type SparseBlock = dataflow.Pair[Coord, *linalg.CSR]

// SparseMatrix is a distributed block matrix with CSR tiles; absent
// tiles are all-zero.
type SparseMatrix struct {
	Rows, Cols int64
	N          int
	Tiles      *dataflow.Dataset[SparseBlock]
}

// SparseFromCOO partitions a coordinate-format matrix into CSR tiles.
func SparseFromCOO(ctx *dataflow.Context, c *linalg.COO, n int, numPartitions int) *SparseMatrix {
	byTile := map[Coord]*linalg.COO{}
	for _, e := range c.Entries {
		key := Coord{I: int64(e.I) / int64(n), J: int64(e.J) / int64(n)}
		t, ok := byTile[key]
		if !ok {
			t = linalg.NewCOO(n, n)
			byTile[key] = t
		}
		t.Append(e.I-int(key.I)*n, e.J-int(key.J)*n, e.V)
	}
	blocks := make([]SparseBlock, 0, len(byTile))
	for key, t := range byTile {
		blocks = append(blocks, dataflow.KV(key, linalg.COOToCSR(t)))
	}
	return &SparseMatrix{Rows: int64(c.Rows), Cols: int64(c.Cols), N: n,
		Tiles: dataflow.Parallelize(ctx, blocks, numPartitions)}
}

// BlockRows returns the number of tile rows.
func (m *SparseMatrix) BlockRows() int64 { return ceilDiv(m.Rows, int64(m.N)) }

// BlockCols returns the number of tile columns.
func (m *SparseMatrix) BlockCols() int64 { return ceilDiv(m.Cols, int64(m.N)) }

// ToDense collects to a driver-side dense matrix.
func (m *SparseMatrix) ToDense() *linalg.Dense {
	out := linalg.NewDense(int(m.Rows), int(m.Cols))
	for _, b := range dataflow.Collect(m.Tiles) {
		rowOff := int(b.Key.I) * m.N
		colOff := int(b.Key.J) * m.N
		for i := 0; i < b.Value.Rows; i++ {
			for idx := b.Value.RowPtr[i]; idx < b.Value.RowPtr[i+1]; idx++ {
				gi, gj := rowOff+i, colOff+b.Value.ColIdx[idx]
				if gi < int(m.Rows) && gj < int(m.Cols) {
					out.Set(gi, gj, b.Value.Val[idx])
				}
			}
		}
	}
	return out
}

// MatVec computes y = S * x with per-tile SpMV kernels.
func (m *SparseMatrix) MatVec(x *Vector) *Vector {
	if m.Cols != x.Size || m.N != x.N {
		panic("tiled: sparse matvec shape mismatch")
	}
	parts := x.Blocks.NumPartitions()
	left := dataflow.Map(m.Tiles, func(t SparseBlock) dataflow.Pair[int64, SparseBlock] {
		return dataflow.KV(t.Key.J, t)
	})
	joined := dataflow.Join(left, x.Blocks, parts)
	partials := dataflow.Map(joined, func(p dataflow.Pair[int64, dataflow.JoinedPair[SparseBlock, *linalg.Vector]]) VBlock {
		t := p.Value.Left
		return dataflow.KV(t.Key.I, t.Value.SpMV(p.Value.Right))
	})
	reduced := dataflow.ReduceByKey(partials, func(a, b *linalg.Vector) *linalg.Vector {
		return a.AddInPlace(b)
	}, parts)
	return (&Vector{Size: m.Rows, N: m.N, Blocks: reduced}).fillMissingBlocks()
}

// fillMissingBlocks adds zero blocks for coordinates with no partial
// result (rows whose sparse tiles are entirely absent), where the
// block's key hashes on the reduce side: no gather to the driver.
func (v *Vector) fillMissingBlocks() *Vector {
	return &Vector{Size: v.Size, N: v.N,
		Blocks: dataflow.FillKeys(v.Blocks, v.NumBlocks(), func() *linalg.Vector { return linalg.NewVector(v.N) })}
}
