package tiled

import (
	"fmt"
	"math"
	"time"

	"repro/internal/dataflow"
	"repro/internal/linalg"
	"repro/internal/trace"
)

// This file implements the Section 5 operator translations the
// hand-written workloads use (the planner compiles every other shape
// from SAC):
//
//   - tiling-preserving queries (Rule 17): a join of tile datasets on
//     tile coordinates, with per-tile kernels and no re-grouping
//     shuffle (Add, Sub, AXPY, elementwise Map);
//   - trivially re-keyed queries (transpose): a narrow map;
//   - group-by queries (Section 5.3): join + per-tile partial
//     aggregation + reduceByKey over tiles (JoinMultiply, RowSums).

// zipTiles joins two tile datasets on tile coordinates and applies a
// binary tile kernel. This is the Rule 17 translation: the join
// shuffles tiles once to co-locate coordinates but needs no group-by.
func zipTiles(a, b *Matrix, f func(x, y *linalg.Dense) *linalg.Dense) *Matrix {
	a.checkCompatible(b)
	j := dataflow.Join(a.Tiles, b.Tiles, a.Tiles.NumPartitions())
	tiles := dataflow.Map(j, func(p dataflow.Pair[Coord, dataflow.JoinedPair[*linalg.Dense, *linalg.Dense]]) Block {
		return dataflow.KV(p.Key, f(p.Value.Left, p.Value.Right))
	})
	return &Matrix{Rows: a.Rows, Cols: a.Cols, N: a.N, Tiles: tiles}
}

// Add returns A + B using the tiling-preserving translation (Rule 17):
// tiles.join(tiles).map(addTiles) with multicore tile addition.
func (a *Matrix) Add(b *Matrix) *Matrix {
	return zipTiles(a, b, func(x, y *linalg.Dense) *linalg.Dense {
		return linalg.ParAddInPlace(x.Clone(), y)
	})
}

// Sub returns A - B (tiling-preserving).
func (a *Matrix) Sub(b *Matrix) *Matrix {
	return zipTiles(a, b, func(x, y *linalg.Dense) *linalg.Dense {
		return linalg.SubInPlace(x.Clone(), y)
	})
}

// AXPY returns A + s*B fused in one pass (tiling-preserving); the
// gradient-descent update shape P + gamma*(...).
func (a *Matrix) AXPY(s float64, b *Matrix) *Matrix {
	return zipTiles(a, b, func(x, y *linalg.Dense) *linalg.Dense {
		return linalg.AXPYInPlace(x.Clone(), s, y)
	})
}

// Transpose returns M^T. The output tile coordinate (j,i) is a
// bijection of the input coordinate, so no grouping is needed: a
// narrow map transposes coordinates and tile contents. (Padding stays
// valid because logical dims swap with the tiles.)
func (m *Matrix) Transpose() *Matrix {
	tiles := dataflow.Map(m.Tiles, func(b Block) Block {
		return dataflow.KV(Coord{I: b.Key.J, J: b.Key.I}, b.Value.Transpose())
	})
	return &Matrix{Rows: m.Cols, Cols: m.Rows, N: m.N, Tiles: tiles}
}

// JoinMultiply is the Section 5.3 plan of a product, and the planner's
// join strategies: key A's tiles and B's by their contracted coordinate,
// join them over the product's partition count, contract every matching
// pair into a zeroed partial tile, and sum the partials of one output
// tile by reduceByKey or, with Rule 13 disabled, groupByKey. Unlike
// GroupByJoin it ships every partial-product tile. It panics with Dims'
// error on operands that do not multiply.
func JoinMultiply(a, b *Matrix, prod Product, reduceByKey bool) *Matrix {
	rows, _, cols, err := prod.Dims(a, b)
	if err != nil {
		panic(err)
	}
	parts := a.Tiles.NumPartitions()
	ctx := a.Tiles.Context()
	pool := ctx.TilePool()
	contract := prod.H
	if contract == nil {
		contract = func(out, x, y *linalg.Dense, _ Coord, _ int64) {
			linalg.GemmOp(out, x, y, prod.TransA, prod.TransB, ctx.KernelBudget())
		}
	}
	left := dataflow.Map(a.Tiles, func(t Block) dataflow.Pair[int64, Block] {
		_, k := opIndex(t.Key.I, t.Key.J, prod.TransA)
		return dataflow.KV(k, t)
	})
	right := dataflow.Map(b.Tiles, func(t Block) dataflow.Pair[int64, Block] {
		k, _ := opIndex(t.Key.I, t.Key.J, prod.TransB)
		return dataflow.KV(k, t)
	})
	joined := dataflow.Join(left, right, parts)
	products := dataflow.Map(joined, func(p dataflow.Pair[int64, dataflow.JoinedPair[Block, Block]]) Block {
		at, bt := p.Value.Left, p.Value.Right
		var g Coord
		g.I, _ = opIndex(at.Key.I, at.Key.J, prod.TransA)
		_, g.J = opIndex(bt.Key.I, bt.Key.J, prod.TransB)
		sp := ctx.StartSpan("kernel: gemm-partial")
		var start time.Time
		if sp != nil {
			start = time.Now()
		}
		c, hit := pool.TryGet(a.N, a.N)
		contract(c, at.Value, bt.Value, g, p.Key)
		if sp != nil {
			sp.SetAttr("tile", fmt.Sprintf("(%d,%d)", g.I, g.J))
			sp.SetAttr("k", p.Key)
			setKernelAttrs(sp, a.N, 1, time.Since(start), hit)
			sp.End()
		}
		return dataflow.KV(g, c)
	})
	var summed *dataflow.Dataset[Block]
	if reduceByKey {
		// The combiner consumes its second argument exactly once (map-side
		// combine and the one-time reduce fold), so the dead partial goes
		// back to the pool; the accumulator escapes as the result tile.
		summed = dataflow.ReduceByKey(products, func(x, y *linalg.Dense) *linalg.Dense {
			linalg.AddInPlace(x, y)
			pool.Put(y)
			return x
		}, parts)
	} else {
		// The grouped tiles live in materialized shuffle buckets that are
		// re-served to every later action, so they cannot be recycled here;
		// only the accumulator comes from the pool.
		summed = dataflow.Map(dataflow.GroupByKey(products, parts), func(g dataflow.Pair[Coord, []*linalg.Dense]) Block {
			acc := pool.Get(a.N, a.N)
			for _, t := range g.Value {
				linalg.AddInPlace(acc, t)
			}
			return dataflow.KV(g.Key, acc)
		})
	}
	return &Matrix{Rows: rows, Cols: cols, N: a.N, Tiles: summed}
}

// setKernelAttrs records a kernel span's achieved GFLOP/s over its
// matches n×n tile multiplies, the GEMM micro-kernel that ran them
// (chosen for the n×n product shape) and whether its output tile was
// served from the tile pool; sac -analyze and the Perfetto export
// surface all three per tile.
func setKernelAttrs(sp *trace.Span, n, matches int, elapsed time.Duration, poolHit bool) {
	if s := elapsed.Seconds(); s > 0 {
		flops := 2 * float64(matches) * float64(n) * float64(n) * float64(n)
		sp.SetAttr("GFLOP/s", math.Round(flops/s/1e7)/100)
	}
	sp.SetAttr("kernel", linalg.KernelFor(n, n))
	if poolHit {
		sp.SetAttr("pool", "hit")
	} else {
		sp.SetAttr("pool", "miss")
	}
}

// RowSums computes V_i = sum_j M_ij, the Figure 1 running example. The
// generated plan matches the paper's: map each tile to a partial
// row-sum vector block keyed by the tile row, then reduceByKey with
// vector addition (addVectors).
func (m *Matrix) RowSums() *Vector {
	parts := m.Tiles.NumPartitions()
	partials := dataflow.Map(m.Tiles, func(b Block) VBlock {
		return dataflow.KV(b.Key.I, b.Value.RowSums())
	})
	reduced := dataflow.ReduceByKey(partials, func(x, y *linalg.Vector) *linalg.Vector {
		return x.AddInPlace(y)
	}, parts)
	return &Vector{Size: m.Rows, N: m.N, Blocks: reduced}
}

// FrobeniusNorm2 computes the squared Frobenius norm, used by the
// factorization loss.
func (m *Matrix) FrobeniusNorm2() float64 {
	sums := dataflow.Map(m.Tiles, func(b Block) float64 {
		var s float64
		for _, v := range b.Value.Data {
			s += v * v
		}
		return s
	})
	return dataflow.Reduce(sums, func(a, b float64) float64 { return a + b })
}
