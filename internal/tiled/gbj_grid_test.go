package tiled

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/linalg"
	"repro/internal/stats"
	"repro/internal/trace"
)

// TestGBJGridEquality: any processor grid — the one derived from the
// partition count, coarse, degenerate 1x1, or one cell per output tile —
// must produce bitwise-identical results: the grid only changes
// placement, never the set of (A tile, B tile) matches accumulated into
// each output block nor their order.
func TestGBJGridEquality(t *testing.T) {
	ctx := tctx()
	da := linalg.RandDense(24, 20, -1, 1, 21)
	db := linalg.RandDense(20, 16, -1, 1, 22)
	b := FromDense(ctx, db, 4, 3)
	want := FromDense(ctx, da, 4, 3).MultiplyGBJ(b).ToDense()
	if !want.EqualApprox(linalg.Mul(da, db), 1e-9) {
		t.Fatal("reference GBJ multiply is itself wrong")
	}
	grids := []struct {
		p, q  int64
		parts int
	}{
		{1, 1, 3}, // everything in one cell
		{2, 3, 3},
		{3, 2, 5},  // coarse grid + another partition count
		{6, 4, 11}, // full output grid (6x4 blocks), odd parts
		{9, 9, 3},  // grid larger than the output: must clamp, not break
		{0, 0, 1},  // derived grid, one partition: 1x1
		{0, 0, 7},  // derived grid, more cells than partitions
		{0, 0, 64}, // parts >= output tiles: falls back to the full grid
	}
	for _, g := range grids {
		// The cogroup runs at A's partition count.
		a := FromDense(ctx, da, 4, g.parts)
		got := GroupByJoin(a, b, Product{gridP: g.p, gridQ: g.q}).ToDense()
		if !got.Equal(want) {
			t.Fatalf("grid %dx%d parts %d: result differs from canonical GBJ (max diff %g)",
				g.p, g.q, g.parts, got.MaxAbsDiff(want))
		}
	}
}

// gbjShapes are the four orientations of a Product.
var gbjShapes = []Product{{}, {TransA: true}, {TransB: true}, {TransA: true, TransB: true}}

// checkGridsIdentical runs one orientation of an m x k by k x n product
// on the derived grid, the full-grid override and the 1x1 override and
// requires the three results to be bitwise identical (and right); it
// returns the result.
func checkGridsIdentical(t *testing.T, ctx *dataflow.Context, sh Product, m, k, n, tile, parts int, seed int64) *linalg.Dense {
	t.Helper()
	da := linalg.RandDense(m, k, -1, 1, seed)
	db := linalg.RandDense(k, n, -1, 1, seed+1)
	ref := linalg.Mul(da, db)
	// Store each operand as op(X) reads it.
	if sh.TransA {
		da = da.Transpose()
	}
	if sh.TransB {
		db = db.Transpose()
	}
	a := FromDense(ctx, da, tile, parts)
	b := FromDense(ctx, db, tile, parts)
	run := func(p, q int64) *linalg.Dense {
		sh.gridP, sh.gridQ = p, q
		return GroupByJoin(a, b, sh).ToDense()
	}
	want := run(0, 0)
	label := fmt.Sprintf("transA=%v transB=%v %dx%dx%d tile %d parts %d", sh.TransA, sh.TransB, m, k, n, tile, parts)
	if !want.EqualApprox(ref, 1e-9) {
		t.Fatalf("%s: derived-grid result is wrong", label)
	}
	if got := run(ceilDiv(int64(m), int64(tile)), ceilDiv(int64(n), int64(tile))); !got.Equal(want) {
		t.Fatalf("%s: full-grid override differs from the derived grid (max diff %g)", label, got.MaxAbsDiff(want))
	}
	if got := run(1, 1); !got.Equal(want) {
		t.Fatalf("%s: 1x1 grid differs from the derived grid (max diff %g)", label, got.MaxAbsDiff(want))
	}
	return want
}

// TestGBJGridsBitwiseIdentical is the property test behind "replace, do
// not fork": over random square and non-square shapes, ragged edge
// tiles, all four GEMM orientations and partition counts from 1 to
// beyond the output tile count, the derived processor grid gives the
// same bits as one cell per output tile and as a single cell.
func TestGBJGridsBitwiseIdentical(t *testing.T) {
	ctx := tctx()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 24; trial++ {
		tile := rng.Intn(3) + 2
		m, k, n := rng.Intn(16)+1, rng.Intn(16)+1, rng.Intn(16)+1
		if trial%3 == 0 {
			n = m // square
			k = m
		}
		parts := []int{1, 2, 3, 5, 8, 13, 40, 100}[rng.Intn(8)]
		checkGridsIdentical(t, ctx, gbjShapes[trial%len(gbjShapes)], m, k, n, tile, parts, int64(100+trial))
	}
}

// TestOutOfCoreGBJGridsBitwiseIdentical: under a memory budget the
// shuffle fills its buckets in task-completion order and reads them
// back through an external merge, and the three grids must still agree
// to the bit with each other and with the unbudgeted engine — the cell
// kernel fixes its own accumulation order.
func TestOutOfCoreGBJGridsBitwiseIdentical(t *testing.T) {
	const budget = 1 << 20
	ctx := oocCtx(t, budget)
	for i, sh := range gbjShapes {
		got := checkGridsIdentical(t, ctx, sh, 320, 256, 384, 64, 6, int64(300+i))
		want := checkGridsIdentical(t, tctx(), sh, 320, 256, 384, 64, 6, int64(300+i))
		if !got.Equal(want) {
			t.Fatalf("%+v: budgeted GBJ differs from in-memory GBJ (max diff %g)", sh, got.MaxAbsDiff(want))
		}
	}
	if s := ctx.Metrics(); s.SpilledBytes == 0 {
		t.Fatalf("GBJ shuffles over a %d-byte budget never spilled: %+v", budget, s)
	}
}

// TestGridCellsBalanced: the row-major placement gives every partition
// floor or ceil of cells/parts cells — over random block shapes and
// every partition count 1..40 the counts differ by at most one, and no
// partition is empty once there are as many cells as partitions.
func TestGridCellsBalanced(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		gy, gx, bk := rng.Int63n(12)+1, rng.Int63n(12)+1, rng.Int63n(12)+1
		for parts := 1; parts <= 40; parts++ {
			p, q := stats.PickGrid(gy, gx, gy*bk, bk*gx, parts, 0)
			count := make([]int, parts)
			for i := int64(0); i < p; i++ {
				for j := int64(0); j < q; j++ {
					count[cellPartition(Coord{I: i, J: j}, q, parts)]++
				}
			}
			lo, hi := count[0], count[0]
			for _, c := range count {
				lo, hi = min(lo, c), max(hi, c)
			}
			if hi-lo > 1 {
				t.Fatalf("%dx%d groups, grid %dx%d, parts %d: cells per partition range %d..%d", gy, gx, p, q, parts, lo, hi)
			}
			if p*q >= int64(parts) && lo == 0 {
				t.Fatalf("%dx%d groups, grid %dx%d, parts %d: a partition has no cell", gy, gx, p, q, parts)
			}
		}
	}
}

// TestGBJCellSpreadsOverSlots: a cell whose task may use four cores runs
// its products on more than one goroutine — a rank that owns one cell
// would otherwise leave its other slots idle, since a 16³ product is far
// below GemmPacked's own split — and gives the same bits as at budget 1,
// where no goroutine is started, for every orientation and for a combine
// the GEMM does not run.
func TestGBJCellSpreadsOverSlots(t *testing.T) {
	da := linalg.RandDense(96, 80, -1, 1, 41)
	db := linalg.RandDense(80, 112, -1, 1, 42)
	run := func(par int, sh Product) (*linalg.Dense, int64) {
		ctx := dataflow.NewContext(dataflow.Config{Parallelism: par, DefaultPartitions: 1})
		x, y := da, db
		if sh.TransA {
			x = x.Transpose()
		}
		if sh.TransB {
			y = y.Transpose()
		}
		// One partition: one cell holds all 6x7 output tiles, and its
		// task is the only one running, so its budget is par.
		a, b := FromDense(ctx, x, 16, 1), FromDense(ctx, y, 16, 1)
		sh.spawned = new(atomic.Int64)
		got := GroupByJoin(a, b, sh).ToDense()
		return got, sh.spawned.Load()
	}
	shapes := append(slices.Clone(gbjShapes), Product{H: func(out, a, b *linalg.Dense, _ Coord, _ int64) {
		for i := range out.Data {
			out.Data[i] += a.Data[i] - 2*b.Data[i]
		}
	}})
	for _, sh := range shapes {
		label := fmt.Sprintf("transA=%v transB=%v combine=%v", sh.TransA, sh.TransB, sh.H != nil)
		want, spawned := run(1, sh)
		if spawned != 0 {
			t.Fatalf("%s: budget 1 started %d goroutines", label, spawned)
		}
		got, spawned := run(4, sh)
		if spawned == 0 {
			t.Fatalf("%s: budget 4 ran every product on the cell's own goroutine", label)
		}
		if !got.Equal(want) {
			t.Fatalf("%s: budget 4 differs from budget 1 (max diff %g)", label, got.MaxAbsDiff(want))
		}
	}
}

// TestGBJSpanNamesTheShapesKernel: a gbj-cell span names the
// micro-kernel its tile products ran, chosen per tile shape. On an
// AVX-512 host a 100-wide tile runs 20×8 (the 8×16 tile pads it to
// 104×112) and a 16-wide one 8×16; elsewhere the CPU has one kernel.
func TestGBJSpanNamesTheShapesKernel(t *testing.T) {
	avx512 := strings.HasPrefix(linalg.KernelName(), "avx512")
	for _, c := range []struct {
		tile int
		want string
	}{{100, "avx512-20x8"}, {16, "avx512-8x16"}} {
		if !avx512 {
			c.want = linalg.KernelName()
		}
		ctx := dataflow.NewContext(dataflow.Config{Parallelism: 2, DefaultPartitions: 2})
		tr := trace.New()
		ctx.SetTracer(tr)
		n := int64(2 * c.tile)
		a := RandMatrix(ctx, n, n, c.tile, 2, -1, 1, 1)
		b := RandMatrix(ctx, n, n, c.tile, 2, -1, 1, 2)
		GroupByJoin(a, b, Product{}).Drain()
		ctx.SetTracer(nil)
		cells := 0
		for _, sp := range tr.Spans() {
			if sp.Name != "kernel: gbj-cell" {
				continue
			}
			cells++
			var kernel any
			for _, at := range sp.Attrs() {
				if at.Key == "kernel" {
					kernel = at.Value
				}
			}
			if kernel != c.want {
				t.Errorf("tile %d: gbj-cell span says kernel %v, want %s", c.tile, kernel, c.want)
			}
		}
		if cells == 0 {
			t.Fatalf("tile %d: no gbj-cell span recorded", c.tile)
		}
	}
}
