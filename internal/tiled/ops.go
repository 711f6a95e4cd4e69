package tiled

import (
	"fmt"
	"math"
	"time"

	"repro/internal/dataflow"
	"repro/internal/linalg"
	"repro/internal/trace"
)

// This file implements the Section 5 operator translations:
//
//   - tiling-preserving queries (Rule 17): a join of tile datasets on
//     tile coordinates, with per-tile kernels and no re-grouping
//     shuffle (Add, Sub, Hadamard, elementwise Map);
//   - trivially re-keyed queries (transpose, diagonal): a narrow map;
//   - queries that do not preserve tiling (Rule 19): tile replication
//     to the I_f(K) destination coordinates followed by a group-by
//     (RotateRows);
//   - group-by queries (Section 5.3): join + per-tile partial
//     aggregation + reduceByKey over tiles (Multiply).

// MapTiles applies an elementwise tile kernel, preserving tiling; the
// kernel must return a fresh or in-place-updated tile of the same
// shape. Narrow operation: zero shuffle.
func (m *Matrix) MapTiles(f func(*linalg.Dense) *linalg.Dense) *Matrix {
	tiles := dataflow.Map(m.Tiles, func(b Block) Block {
		return dataflow.KV(b.Key, f(b.Value))
	})
	return &Matrix{Rows: m.Rows, Cols: m.Cols, N: m.N, Tiles: tiles}
}

// Scale returns s * M (tiling-preserving, narrow).
func (m *Matrix) Scale(s float64) *Matrix {
	return m.MapTiles(func(t *linalg.Dense) *linalg.Dense { return linalg.Scale(t, s) })
}

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

// Hadamard returns the elementwise product (tiling-preserving).
func (a *Matrix) Hadamard(b *Matrix) *Matrix {
	return zipTiles(a, b, func(x, y *linalg.Dense) *linalg.Dense {
		return linalg.HadamardInPlace(x.Clone(), y)
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

// Multiply computes A * B with the Section 5.3 translation: join the
// tile datasets on the shared dimension k, multiply matching tiles
// locally (partial products), and reduce partial products by
// destination coordinate with tile addition via reduceByKey.
func (a *Matrix) Multiply(b *Matrix) *Matrix { return JoinMultiply(a, b, 0, true, nil) }

// MultiplyGroupByKey is the unoptimized translation that uses
// groupByKey instead of reduceByKey: all partial product tiles cross
// the shuffle and are only summed on the reduce side. It exists to
// measure the Rule 13 optimization (reduceByKey derivation).
func (a *Matrix) MultiplyGroupByKey(b *Matrix) *Matrix { return JoinMultiply(a, b, 0, false, nil) }

// JoinMultiply is the one join-on-k plan behind Multiply,
// MultiplyGroupByKey and the planner's join strategies: key A's tiles by
// column coordinate and B's by row coordinate, join them over parts
// partitions (0: A's), contract every matching pair into a zeroed
// partial tile — contract receives the output coordinate and the join
// key; nil is the GEMM out += x*y — and sum the partials of one output
// tile by reduceByKey or, with Rule 13 disabled, groupByKey.
func JoinMultiply(a, b *Matrix, parts int, reduceByKey bool,
	contract func(out, x, y *linalg.Dense, g Coord, k int64)) *Matrix {
	if a.Cols != b.Rows || a.N != b.N {
		panic("tiled: multiply shape mismatch")
	}
	if parts <= 0 {
		parts = a.Tiles.NumPartitions()
	}
	ctx := a.Tiles.Context()
	pool := ctx.TilePool()
	if contract == nil {
		contract = func(out, x, y *linalg.Dense, _ Coord, _ int64) {
			linalg.GemmBudget(out, x, y, ctx.KernelBudget())
		}
	}
	left := dataflow.Map(a.Tiles, func(t Block) dataflow.Pair[int64, Block] {
		return dataflow.KV(t.Key.J, t) // keyed by k = column coordinate
	})
	right := dataflow.Map(b.Tiles, func(t Block) dataflow.Pair[int64, Block] {
		return dataflow.KV(t.Key.I, t) // keyed by k = row coordinate
	})
	joined := dataflow.Join(left, right, parts)
	products := dataflow.Map(joined, func(p dataflow.Pair[int64, dataflow.JoinedPair[Block, Block]]) Block {
		at, bt := p.Value.Left, p.Value.Right
		g := Coord{I: at.Key.I, J: bt.Key.J}
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
			setKernelAttrs(sp, gemmFlops(a.N, 1), time.Since(start), hit)
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
	return &Matrix{Rows: a.Rows, Cols: b.Cols, N: a.N, Tiles: summed}
}

// gemmFlops is the flop count of matches n×n tile multiplies.
func gemmFlops(n int, matches int) float64 {
	return 2 * float64(matches) * float64(n) * float64(n) * float64(n)
}

// setKernelAttrs records a kernel span's achieved GFLOP/s, the GEMM
// micro-kernel that achieved it and whether its output tile was served
// from the tile pool; sac -analyze and the Perfetto export surface all
// three per tile.
func setKernelAttrs(sp *trace.Span, flops float64, elapsed time.Duration, poolHit bool) {
	if s := elapsed.Seconds(); s > 0 {
		sp.SetAttr("GFLOP/s", math.Round(flops/s/1e7)/100)
	}
	sp.SetAttr("kernel", linalg.KernelName())
	if poolHit {
		sp.SetAttr("pool", "hit")
	} else {
		sp.SetAttr("pool", "miss")
	}
}

// Diagonal extracts the main diagonal as a tiled vector:
// tiled(n)[ (i,a) | ((i,j),a) <- A, i == j ], which preserves tiling
// (only diagonal tiles contribute).
func (m *Matrix) Diagonal() *Vector {
	n := m.N
	blocks := dataflow.FlatMap(m.Tiles, func(b Block) []VBlock {
		if b.Key.I != b.Key.J {
			return nil
		}
		v := linalg.NewVector(n)
		for i := 0; i < n; i++ {
			v.Set(i, b.Value.At(i, i))
		}
		return []VBlock{dataflow.KV(b.Key.I, v)}
	})
	size := m.Rows
	if m.Cols < size {
		size = m.Cols
	}
	return &Vector{Size: size, N: n, Blocks: blocks}
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

// ColSums computes V_j = sum_i M_ij symmetrically.
func (m *Matrix) ColSums() *Vector {
	parts := m.Tiles.NumPartitions()
	partials := dataflow.Map(m.Tiles, func(b Block) VBlock {
		return dataflow.KV(b.Key.J, b.Value.ColSums())
	})
	reduced := dataflow.ReduceByKey(partials, func(x, y *linalg.Vector) *linalg.Vector {
		return x.AddInPlace(y)
	}, parts)
	return &Vector{Size: m.Cols, N: m.N, Blocks: reduced}
}

// SumAll computes the total aggregation +/M.
func (m *Matrix) SumAll() float64 {
	sums := dataflow.Map(m.Tiles, func(b Block) float64 { return b.Value.Sum() })
	return dataflow.Reduce(sums, func(a, b float64) float64 { return a + b })
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

// taggedTile is a tile replicated toward a destination coordinate
// during a non-tiling-preserving regroup, remembering where it came
// from.
type taggedTile struct {
	src  Coord
	tile *linalg.Dense
}

// NumBytes reports the real payload (coordinate + tile data) so
// replication shuffles are not floored at the opaque 16-byte default.
func (t taggedTile) NumBytes() int64 { return 16 + t.tile.NumBytes() }

// RotateRows implements the Section 5.2 example — a query that does
// NOT preserve tiling: row i of the result is row (i+1) mod rows of
// the shifted layout, i.e. tiled(n,m)[ (((i+1)%n, j), v) | ((i,j),v) <- X ].
// Each tile is replicated to its destination coordinates I_f(K)
// (itself and its row successor), shuffled with a group-by, and each
// output tile selects the proper elements from the shuffled tiles.
func (m *Matrix) RotateRows() *Matrix {
	n64 := int64(m.N)
	rows := m.Rows
	parts := m.Tiles.NumPartitions()

	// Replicate each tile to the set I_f(K) of destination tile rows:
	// { (i*N+_i+1) % rows / N | _i in [0,N) }.
	replicated := dataflow.FlatMap(m.Tiles, func(b Block) []dataflow.Pair[Coord, taggedTile] {
		destRows := map[int64]bool{}
		for i := int64(0); i < n64; i++ {
			gi := b.Key.I*n64 + i
			if gi >= rows {
				break
			}
			destRows[((gi+1)%rows)/n64] = true
		}
		out := make([]dataflow.Pair[Coord, taggedTile], 0, len(destRows))
		for dr := range destRows {
			out = append(out, dataflow.KV(Coord{I: dr, J: b.Key.J}, taggedTile{src: b.Key, tile: b.Value}))
		}
		return out
	})
	grouped := dataflow.GroupByKey(replicated, parts)
	tiles := dataflow.Map(grouped, func(g dataflow.Pair[Coord, []taggedTile]) Block {
		out := linalg.NewDense(m.N, m.N)
		for _, tt := range g.Value {
			for i := 0; i < m.N; i++ {
				gi := tt.src.I*n64 + int64(i)
				if gi >= rows {
					break
				}
				di := (gi + 1) % rows
				if di/n64 != g.Key.I {
					continue
				}
				li := int(di % n64)
				for j := 0; j < m.N; j++ {
					out.Set(li, j, tt.tile.At(i, j))
				}
			}
		}
		return dataflow.KV(g.Key, out)
	})
	return &Matrix{Rows: m.Rows, Cols: m.Cols, N: m.N, Tiles: tiles}
}

// ConcatRows stacks A on top of B (the paper lists concatenation among
// the expressible operations; as a multi-input union it is provided as
// a library operator). Both inputs must share tile size and column
// count, and A's row count must be tile-aligned so B's tiles shift by
// whole tiles (a narrow re-keying); otherwise use the coordinate path.
func (a *Matrix) ConcatRows(b *Matrix) *Matrix {
	if a.Cols != b.Cols || a.N != b.N {
		panic("tiled: concatRows shape mismatch")
	}
	if a.Rows%int64(a.N) != 0 {
		panic("tiled: concatRows requires the upper operand to be tile-aligned")
	}
	shift := a.BlockRows()
	shifted := dataflow.Map(b.Tiles, func(t Block) Block {
		return dataflow.KV(Coord{I: t.Key.I + shift, J: t.Key.J}, t.Value)
	})
	return &Matrix{Rows: a.Rows + b.Rows, Cols: a.Cols, N: a.N,
		Tiles: dataflow.Union(a.Tiles, shifted)}
}

// ConcatCols places B to the right of A; A's column count must be
// tile-aligned.
func (a *Matrix) ConcatCols(b *Matrix) *Matrix {
	if a.Rows != b.Rows || a.N != b.N {
		panic("tiled: concatCols shape mismatch")
	}
	if a.Cols%int64(a.N) != 0 {
		panic("tiled: concatCols requires the left operand to be tile-aligned")
	}
	shift := a.BlockCols()
	shifted := dataflow.Map(b.Tiles, func(t Block) Block {
		return dataflow.KV(Coord{I: t.Key.I, J: t.Key.J + shift}, t.Value)
	})
	return &Matrix{Rows: a.Rows, Cols: a.Cols + b.Cols, N: a.N,
		Tiles: dataflow.Union(a.Tiles, shifted)}
}
