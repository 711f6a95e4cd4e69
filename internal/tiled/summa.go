package tiled

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/dataflow"
	"repro/internal/linalg"
	"repro/internal/stats"
)

// This file implements Section 5.4: the group-by-join (GBJ) physical
// operator, a generalization of the SUMMA block algorithm. A
// group-by-join is
//
//	tiled(n,m)[ (k, ⊕/c) | ((i,j),a) <- A, ((ii,jj),b) <- B,
//	            kx(i,j) == ky(ii,jj), let c = h(a,b),
//	            group by k: (gx(i,j), gy(ii,jj)) ]
//
// evaluated on a p x q processor grid: contiguous ranges of output tile
// rows share a grid row and ranges of output tile columns a grid
// column, each A tile is replicated to the q cells of its grid row and
// each B tile to the p cells of its grid column, the cogroup on the
// cell coordinate brings a cell's tiles together, and the cell reduces
// its matches locally into one output tile per group pair it holds.
// Compared to the join+reduceByKey translation it shuffles each input
// tile a bounded number of times instead of shuffling every
// partial-product tile. The grid is sized to the machine (the cogroup's
// partition count), not to the tensor tiling: tilesA*q + tilesB*p tiles
// cross the shuffle, where one cell per output tile would move
// tilesA*groupsX + tilesB*groupsY.

// keyedTile tags a tile with its join key kx/ky and its group gx/gy —
// the group travels with the tile so a coarsened grid cell holding
// several groups can still route each match to the right output tile.
type keyedTile struct {
	K    int64
	G    int64
	Tile *linalg.Dense
}

// NumBytes reports the tile payload for shuffle accounting.
func (k keyedTile) NumBytes() int64 { return 16 + k.Tile.NumBytes() }

// byGroupThenKey orders a cell's tiles by group, then join key.
func byGroupThenKey(x, y keyedTile) int {
	if c := cmp.Compare(x.G, y.G); c != 0 {
		return c
	}
	return cmp.Compare(x.K, y.K)
}

// byJoinKey hashes one sorted side of a cell by join key, keeping the
// sorted order within a key, and lists the side's distinct groups in
// ascending order.
func byJoinKey(side []keyedTile) (byKey map[int64][]keyedTile, groups []int64) {
	byKey = make(map[int64][]keyedTile, len(side))
	for _, kt := range side {
		if len(groups) == 0 || groups[len(groups)-1] != kt.G {
			groups = append(groups, kt.G)
		}
		byKey[kt.K] = append(byKey[kt.K], kt)
	}
	return byKey, groups
}

// GBJSpec describes a group-by-join instance: coordinate projections
// for the group (gx, gy) and join keys (kx, ky), the per-match tile
// contraction accumulating into the output tile, and the output grid.
type GBJSpec struct {
	OutRows, OutCols int64 // logical output dims
	// GroupsX is the number of distinct gy groups (output tile cols);
	// GroupsY is the number of distinct gx groups (output tile rows).
	GroupsX, GroupsY int64
	// GX/KX project an A-tile coordinate to its group and join key.
	GX, KX func(c Coord) int64
	// GY/KY project a B-tile coordinate to its group and join key.
	GY, KY func(c Coord) int64
	// H accumulates the contribution of a matching tile pair into out,
	// the output tile at coordinate g, for join key k. Nil is the tile
	// GEMM out += op(a)·op(b), op transposing when TransA / TransB is
	// set: the cell then packs each tile once per join key and
	// multiplies packed operands (linalg.GemmPacked) under the kernel
	// budget.
	H              func(out, a, b *linalg.Dense, g Coord, k int64)
	TransA, TransB bool
	// GridP x GridQ, when both positive, override the processor grid
	// (clamped to GroupsY x GroupsX). The result is bitwise identical
	// for every grid — the tests that prove it are the only callers
	// that set these; left zero, GroupByJoin derives the grid from the
	// partition count with stats.PickGrid.
	GridP, GridQ int64
	// Parts overrides the cogroup's partition count; 0 uses the A
	// input's.
	Parts int
}

// cellPartition places grid cell c of a grid with gridQ columns:
// row-major cell index modulo the partition count, so cells per
// partition differ by at most one (a hash of the coordinate would
// collide 8 cells into about 5 of 8 partitions).
func cellPartition(c Coord, gridQ int64, parts int) int {
	return int((c.I*gridQ + c.J) % int64(parts))
}

// GroupByJoin runs the generic GBJ operator on two tiled matrices. The
// processor grid and the placement of its cells are pure functions of
// the block counts and the cogroup's partition count, so every rank of
// an SPMD job builds the same plan whatever its core count. When the
// output has no more tiles than there are partitions the grid is the
// full output grid and every cell holds exactly one output tile.
func GroupByJoin(a, b *Matrix, spec GBJSpec) *Matrix {
	parts := spec.Parts
	if parts <= 0 {
		parts = a.Tiles.NumPartitions()
	}
	n := a.N
	groupsY, groupsX := spec.GroupsY, spec.GroupsX
	gridP, gridQ := spec.GridP, spec.GridQ
	if gridP <= 0 || gridQ <= 0 {
		gridP, gridQ = stats.PickGrid(groupsY, groupsX,
			a.BlockRows()*a.BlockCols(), b.BlockRows()*b.BlockCols(), parts)
	}
	if gridP > groupsY {
		gridP = groupsY
	}
	if gridQ > groupsX {
		gridQ = groupsX
	}
	// Contiguous group ranges share a cell; with the full grid this is
	// the identity, one group pair per cell.
	cellRow := func(g int64) int64 { return g * gridP / groupsY }
	cellCol := func(g int64) int64 { return g * gridQ / groupsX }

	as := dataflow.FlatMap(a.Tiles, func(t Block) []dataflow.Pair[Coord, keyedTile] {
		out := make([]dataflow.Pair[Coord, keyedTile], 0, gridQ)
		g := spec.GX(t.Key)
		k := spec.KX(t.Key)
		for jj := int64(0); jj < gridQ; jj++ {
			out = append(out, dataflow.KV(Coord{I: cellRow(g), J: jj}, keyedTile{K: k, G: g, Tile: t.Value}))
		}
		return out
	})
	bs := dataflow.FlatMap(b.Tiles, func(t Block) []dataflow.Pair[Coord, keyedTile] {
		out := make([]dataflow.Pair[Coord, keyedTile], 0, gridP)
		g := spec.GY(t.Key)
		k := spec.KY(t.Key)
		for ii := int64(0); ii < gridP; ii++ {
			out = append(out, dataflow.KV(Coord{I: ii, J: cellCol(g)}, keyedTile{K: k, G: g, Tile: t.Value}))
		}
		return out
	})

	ctx := a.Tiles.Context()
	pool := ctx.TilePool()
	cg := dataflow.CoGroupRouted(as, bs, parts, func(c Coord) int { return cellPartition(c, gridQ, parts) })
	tiles := dataflow.FlatMap(cg, func(g dataflow.Pair[Coord, dataflow.CoGrouped[keyedTile, keyedTile]]) []Block {
		sp := ctx.StartSpan("kernel: gbj-cell")
		var start time.Time
		if sp != nil {
			start = time.Now()
		}
		par := ctx.KernelBudget()
		// Fix the order matches accumulate in: an output tile sums its
		// contributions by ascending join key whatever order the shuffle
		// delivered the tiles in (a budgeted shuffle fills its buckets in
		// task-completion order), so the result is bitwise identical
		// across grids, backends and memory budgets.
		slices.SortStableFunc(g.Value.Left, byGroupThenKey)
		slices.SortStableFunc(g.Value.Right, byGroupThenKey)
		// Hash both sides by join key; each side's distinct groups (runs,
		// now that the sides are sorted) cross to the cell's output
		// tiles, one tile per group pair.
		left, lgroups := byJoinKey(g.Value.Left)
		right, rgroups := byJoinKey(g.Value.Right)
		keys := make([]int64, 0, len(left))
		for k := range left {
			if len(right[k]) > 0 {
				keys = append(keys, k)
			}
		}
		slices.Sort(keys)
		// The output tiles escape into the result dataset, so they are
		// drawn from the pool but never Put back here; recycling happens
		// when the result matrix is drained (Matrix.Recycle / Drain).
		idx := make(map[Coord]int, len(lgroups)*len(rgroups))
		out := make([]Block, 0, len(lgroups)*len(rgroups))
		hits := 0
		for _, gx := range lgroups {
			for _, gy := range rgroups {
				t, hit := pool.TryGet(n, n)
				if hit {
					hits++
				}
				c := Coord{I: gx, J: gy}
				idx[c] = len(out)
				out = append(out, dataflow.KV(c, t))
			}
		}
		// One SUMMA step per join key: with the GEMM contraction every A
		// and B tile of the step is packed once — |rows| + |cols| packed
		// tiles of pooled scratch, released before the next step — and
		// the |rows| x |cols| products read the packed operands.
		matches := 0
		var pa, pb []*linalg.Packed
		for _, k := range keys {
			ats, bts := left[k], right[k]
			if spec.H == nil {
				pa, pb = pa[:0], pb[:0]
				for _, at := range ats {
					pa = append(pa, linalg.PackA(at.Tile, spec.TransA))
				}
				for _, bt := range bts {
					pb = append(pb, linalg.PackB(bt.Tile, spec.TransB))
				}
			}
			for i, at := range ats {
				for j, bt := range bts {
					g := Coord{I: at.G, J: bt.G}
					o := out[idx[g]].Value
					if spec.H != nil {
						spec.H(o, at.Tile, bt.Tile, g, k)
					} else {
						linalg.GemmPacked(o, pa[i], pb[j], par)
					}
					matches++
				}
			}
			for _, p := range pa {
				p.Release()
			}
			for _, p := range pb {
				p.Release()
			}
		}
		if sp != nil {
			sp.SetAttr("cell", fmt.Sprintf("(%d,%d)", g.Key.I, g.Key.J))
			sp.SetAttr("left", len(g.Value.Left))
			sp.SetAttr("right", len(g.Value.Right))
			sp.SetAttr("tiles", len(out))
			sp.SetAttr("matches", matches)
			if spec.H == nil {
				setKernelAttrs(sp, gemmFlops(n, matches), time.Since(start), hits == len(out) && len(out) > 0)
			}
			sp.End()
		}
		return out
	})
	return &Matrix{Rows: spec.OutRows, Cols: spec.OutCols, N: n, Tiles: tiles}
}

// MultiplyGBJ computes A * B with the SUMMA-style group-by-join:
// gx(i,k)=i, kx(i,k)=k, gy(k,j)=j, ky(k,j)=k, h = tile GEMM (H nil).
func (a *Matrix) MultiplyGBJ(b *Matrix) *Matrix {
	return a.MultiplyGBJTuned(b, 0, 0, 0)
}

// MultiplyGBJTuned is MultiplyGBJ with the physical knobs exposed: a
// gridP x gridQ processor grid override (0,0 = derived from the
// partition count) and the cogroup partition count (0 = the A
// input's). The result is bitwise identical for any grid choice — only
// replication volume and cell granularity change.
func (a *Matrix) MultiplyGBJTuned(b *Matrix, gridP, gridQ int64, parts int) *Matrix {
	spec := multiplySpec(a, b)
	spec.GridP, spec.GridQ, spec.Parts = gridP, gridQ, parts
	return GroupByJoin(a, b, spec)
}

func multiplySpec(a, b *Matrix) GBJSpec {
	if a.Cols != b.Rows || a.N != b.N {
		panic("tiled: multiply shape mismatch")
	}
	return GBJSpec{
		OutRows: a.Rows, OutCols: b.Cols,
		GroupsX: b.BlockCols(), GroupsY: a.BlockRows(),
		GX: func(c Coord) int64 { return c.I },
		KX: func(c Coord) int64 { return c.J },
		GY: func(c Coord) int64 { return c.J },
		KY: func(c Coord) int64 { return c.I },
	}
}

// MultiplyTransAGBJ computes A^T * B without materializing A^T, as a
// group-by-join with gx(k,i)=i and h = the tile GEMM on Aᵀ. Used by matrix
// factorization (E^T x P).
func (a *Matrix) MultiplyTransAGBJ(b *Matrix) *Matrix {
	return GroupByJoin(a, b, multiplyTransASpec(a, b))
}

func multiplyTransASpec(a, b *Matrix) GBJSpec {
	if a.Rows != b.Rows || a.N != b.N {
		panic("tiled: multiplyTransA shape mismatch")
	}
	return GBJSpec{
		OutRows: a.Cols, OutCols: b.Cols,
		GroupsX: b.BlockCols(), GroupsY: a.BlockCols(),
		GX:     func(c Coord) int64 { return c.J }, // output row group = A col
		KX:     func(c Coord) int64 { return c.I }, // join on A row
		GY:     func(c Coord) int64 { return c.J },
		KY:     func(c Coord) int64 { return c.I },
		TransA: true,
	}
}

// MultiplyTransBGBJ computes A * B^T without materializing B^T:
// join key is the column coordinate of both inputs, h = the tile GEMM on Bᵀ.
// Used by matrix factorization (P x Q^T).
func (a *Matrix) MultiplyTransBGBJ(b *Matrix) *Matrix {
	return GroupByJoin(a, b, multiplyTransBSpec(a, b))
}

func multiplyTransBSpec(a, b *Matrix) GBJSpec {
	if a.Cols != b.Cols || a.N != b.N {
		panic("tiled: multiplyTransB shape mismatch")
	}
	return GBJSpec{
		OutRows: a.Rows, OutCols: b.Rows,
		GroupsX: b.BlockRows(), GroupsY: a.BlockRows(),
		GX:     func(c Coord) int64 { return c.I },
		KX:     func(c Coord) int64 { return c.J },
		GY:     func(c Coord) int64 { return c.I }, // output col group = B row
		KY:     func(c Coord) int64 { return c.J }, // join on B col
		TransB: true,
	}
}
