package tiled

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
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
// For a 2-D contraction the projections are tile coordinates, and which
// ones is two bits: the index of A and of B that is contracted
// (Product's TransA and TransB). It is evaluated on a p x q processor
// grid: contiguous ranges of output tile rows share a grid row and
// ranges of output tile columns a grid column, each A tile is
// replicated to the q cells of its grid row and each B tile to the p
// cells of its grid column, the cogroup on the cell coordinate brings a
// cell's tiles together, and the cell reduces its matches locally into
// one output tile per group pair it holds.
// Compared to the join+reduceByKey translation it shuffles each input
// tile a bounded number of times instead of shuffling every
// partial-product tile. The grid is sized to the machine, not to the
// tensor tiling (stats.PickGrid): one cell per rank on a cluster, one
// per cogroup partition in a local session. tilesA*q + tilesB*p tiles
// cross the shuffle, where one cell per output tile would move
// tilesA*groupsX + tilesB*groupsY. A cell spreads each SUMMA step's
// products over the cores its task may use (splitProducts), so a rank
// that owns one cell still uses all of its slots.

// keyedTile tags a tile with its join key kx/ky and its group gx/gy —
// the group travels with the tile so a coarsened grid cell holding
// several groups can still route each match to the right output tile.
type keyedTile struct {
	K    int64
	G    int64
	Tile *linalg.Dense
}

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

// Product is one 2-D contraction out = op(A)·op(B) for the two plans
// that run it, GroupByJoin and JoinMultiply. Orientation is two flags:
// op(A) is A, or Aᵀ when TransA — the contracted index is A's column, or
// its row — and op(B) is B, or Bᵀ when TransB. A transposed operand is
// read in place, never copied: its tiles' coordinates are projected
// through the flag (opIndex), and the contraction reads the tiles
// through it.
type Product struct {
	TransA, TransB bool
	// H accumulates the contribution of a matching tile pair into out, the
	// output tile at coordinate g, for join key k; a and b are the stored
	// tiles, to be read through TransA and TransB. Nil is the tile GEMM
	// out += op(a)·op(b).
	H func(out, a, b *linalg.Dense, g Coord, k int64)
	// gridP x gridQ, when both positive, override GroupByJoin's processor
	// grid (clamped to the output tile grid). The result is bitwise
	// identical for every grid; the tests that prove it set these.
	gridP, gridQ int64
	// spawned, when set, counts the goroutines GroupByJoin's cells start
	// (splitProducts), for the test that sees a cell use its slots.
	spawned *atomic.Int64
}

// opIndex maps a (row, column) pair of a stored operand — its dimensions
// or a tile coordinate — to that pair of op(X): swapped when trans.
func opIndex(r, c int64, trans bool) (int64, int64) {
	if trans {
		return c, r
	}
	return r, c
}

// Dims returns the shape of op(A)·op(B), an m x k by k x n product, or an
// error naming both operands unless their contracted dimensions and tile
// sizes agree.
func (p Product) Dims(a, b *Matrix) (m, k, n int64, err error) {
	m, k = opIndex(a.Rows, a.Cols, p.TransA)
	kb, n := opIndex(b.Rows, b.Cols, p.TransB)
	if k != kb || a.N != b.N {
		return 0, 0, 0, fmt.Errorf("tiled: product of %dx%d (transA=%v) and %dx%d (transB=%v): "+
			"contracted dimensions %d and %d, tile sizes %d and %d",
			a.Rows, a.Cols, p.TransA, b.Rows, b.Cols, p.TransB, k, kb, a.N, b.N)
	}
	return m, k, n, nil
}

// cellPartition places grid cell c of a grid with gridQ columns:
// row-major cell index modulo the partition count, so cells per
// partition differ by at most one (a hash of the coordinate would
// collide 8 cells into about 5 of 8 partitions).
func cellPartition(c Coord, gridQ int64, parts int) int {
	return int((c.I*gridQ + c.J) % int64(parts))
}

// GroupByJoin runs the generic GBJ operator for a product of two tiled
// matrices: an A tile's group is its row of op(A) and its join key its
// column, a B tile's join key its row of op(B) and its group its column.
// The processor grid and the placement of its cells are pure functions
// of the block counts, the cogroup's partition count and the world (the
// Transport's rank count, 0 locally), so every rank of an SPMD job
// builds the same plan whatever its core count. On a cluster with fewer
// ranks than partitions the grid has one cell per rank and cell c is
// partition c, which rank c owns. When the output has no more tiles than
// there are cells the grid is the full output grid and every cell holds
// exactly one output tile. It panics with Dims' error on operands that
// do not multiply.
func GroupByJoin(a, b *Matrix, prod Product) *Matrix {
	rows, _, cols, err := prod.Dims(a, b)
	if err != nil {
		panic(err)
	}
	parts := a.Tiles.NumPartitions()
	n := a.N
	ctx := a.Tiles.Context()
	world := 0
	if t := ctx.Conf().Transport; t != nil {
		world = t.World()
	}
	groupsY, groupsX := ceilDiv(rows, int64(n)), ceilDiv(cols, int64(n))
	gridP, gridQ := prod.gridP, prod.gridQ
	if gridP <= 0 || gridQ <= 0 {
		gridP, gridQ = stats.PickGrid(groupsY, groupsX,
			a.BlockRows()*a.BlockCols(), b.BlockRows()*b.BlockCols(), parts, world)
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
		g, k := opIndex(t.Key.I, t.Key.J, prod.TransA)
		for jj := int64(0); jj < gridQ; jj++ {
			out = append(out, dataflow.KV(Coord{I: cellRow(g), J: jj}, keyedTile{K: k, G: g, Tile: t.Value}))
		}
		return out
	})
	bs := dataflow.FlatMap(b.Tiles, func(t Block) []dataflow.Pair[Coord, keyedTile] {
		out := make([]dataflow.Pair[Coord, keyedTile], 0, gridP)
		k, g := opIndex(t.Key.I, t.Key.J, prod.TransB)
		for ii := int64(0); ii < gridP; ii++ {
			out = append(out, dataflow.KV(Coord{I: ii, J: cellCol(g)}, keyedTile{K: k, G: g, Tile: t.Value}))
		}
		return out
	})

	pool := ctx.TilePool()
	cg := dataflow.CoGroupRouted(as, bs, parts, func(c Coord) int { return cellPartition(c, gridQ, parts) })
	tiles := dataflow.FlatMap(cg, func(g dataflow.Pair[Coord, dataflow.CoGrouped[keyedTile, keyedTile]]) []Block {
		sp := ctx.StartSpan("kernel: gbj-cell")
		var start time.Time
		if sp != nil {
			start = time.Now()
		}
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
		// when the result matrix is drained (Matrix.Recycle / Drain) or,
		// on a cluster rank, where the pool draws from the job's lease:
		// once the rank's piece of the result is encoded, and at the
		// latest when the job ends.
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
		// the |rows| x |cols| products read the packed operands. The
		// steps run in ascending key order; within one, every product
		// writes a different output tile, so they may run side by side.
		matches := 0
		var pa, pb []*linalg.Packed
		for _, k := range keys {
			ats, bts := left[k], right[k]
			if prod.H == nil {
				pa, pb = pa[:0], pb[:0]
				for _, at := range ats {
					pa = append(pa, linalg.PackA(at.Tile, prod.TransA, n))
				}
				for _, bt := range bts {
					pb = append(pb, linalg.PackB(bt.Tile, prod.TransB, n))
				}
			}
			splitProducts(ctx.KernelBudget(), len(ats)*len(bts), prod.spawned, func(lo, hi, par int) {
				for x := lo; x < hi; x++ {
					i, j := x/len(bts), x%len(bts)
					g := Coord{I: ats[i].G, J: bts[j].G}
					o := out[idx[g]].Value
					if prod.H != nil {
						prod.H(o, ats[i].Tile, bts[j].Tile, g, k)
					} else {
						linalg.GemmPacked(o, pa[i], pb[j], par)
					}
				}
			})
			matches += len(ats) * len(bts)
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
			if prod.H == nil {
				setKernelAttrs(sp, n, matches, time.Since(start), hits == len(out) && len(out) > 0)
			}
			sp.End()
		}
		return out
	})
	return &Matrix{Rows: rows, Cols: cols, N: n, Tiles: tiles}
}

// splitProducts runs body over the products [0, n) of one SUMMA step,
// split into contiguous ranges over up to par goroutines, the caller's
// among them; par is the kernel budget, and each range's products may
// use par/ranges cores of their own (a large tile's GEMM splits its row
// panels). Every product of a step writes its own output tile, and the
// caller waits for all of them before the next step, so an output tile
// still adds its keys in ascending order and the answer is the same bits
// at any budget. At budget 1 no goroutine is started; spawned, if not
// nil, counts those that are. A panic in a range reaches the caller, as
// it would from the task's own goroutine, once every range has stopped.
func splitProducts(par, n int, spawned *atomic.Int64, body func(lo, hi, par int)) {
	w := min(par, n)
	if w <= 1 {
		body(0, n, par)
		return
	}
	var wg sync.WaitGroup
	panics := make([]any, w)
	defer func() {
		wg.Wait()
		for _, p := range panics {
			if p != nil {
				panic(p)
			}
		}
	}()
	if spawned != nil {
		spawned.Add(int64(w - 1))
	}
	wg.Add(w - 1)
	for r := 1; r < w; r++ {
		go func() {
			defer wg.Done()
			defer func() { panics[r] = recover() }()
			body(r*n/w, (r+1)*n/w, par/w)
		}()
	}
	body(0, n/w, par/w)
}

// MultiplyGBJ computes A * B with the SUMMA-style group-by-join.
func (a *Matrix) MultiplyGBJ(b *Matrix) *Matrix { return GroupByJoin(a, b, Product{}) }
