package tiled

import (
	"testing"
	"testing/quick"

	"repro/internal/dataflow"
	"repro/internal/linalg"
	"repro/internal/stats"
)

func randPair(ctx *dataflow.Context, rows, cols, n int, s1, s2 int64) (*Matrix, *Matrix, *linalg.Dense, *linalg.Dense) {
	da := linalg.RandDense(rows, cols, 0, 10, s1)
	db := linalg.RandDense(rows, cols, 0, 10, s2)
	return FromDense(ctx, da, n, 3), FromDense(ctx, db, n, 3), da, db
}

func TestAddMatchesDense(t *testing.T) {
	ctx := tctx()
	a, b, da, db := randPair(ctx, 7, 5, 3, 1, 2)
	got := a.Add(b).ToDense()
	if !got.EqualApprox(linalg.AddDense(da, db), 1e-12) {
		t.Fatal("tiled add mismatch")
	}
}

func TestAddPreservesTilingNoGroupShuffle(t *testing.T) {
	ctx := tctx()
	a, b, _, _ := randPair(ctx, 8, 8, 2, 3, 4)
	ctx.ResetMetrics()
	a.Add(b).ToDense()
	m := ctx.Metrics()
	// Rule 17: addition needs exactly the one co-partitioning shuffle
	// of the join, no group-by shuffle of replicated tiles.
	if m.Shuffles != 2 { // two exchange sides of one join
		t.Fatalf("expected 2 shuffle exchanges (join sides), got %d", m.Shuffles)
	}
	// Shuffled records = tiles of A + tiles of B, nothing more.
	if m.ShuffledRecords != 32 {
		t.Fatalf("shuffled records %d, want 32", m.ShuffledRecords)
	}
}

func TestSubHadamardAXPYScale(t *testing.T) {
	ctx := tctx()
	a, b, da, db := randPair(ctx, 6, 6, 2, 5, 6)
	if !a.Sub(b).ToDense().EqualApprox(linalg.SubDense(da, db), 1e-12) {
		t.Fatal("sub mismatch")
	}
	if !a.AXPY(0.5, b).ToDense().EqualApprox(linalg.AXPYInPlace(da.Clone(), 0.5, db), 1e-12) {
		t.Fatal("axpy mismatch")
	}
}

func TestTransposeMatchesDense(t *testing.T) {
	ctx := tctx()
	d := linalg.RandDense(5, 8, -1, 1, 7)
	m := FromDense(ctx, d, 3, 2)
	got := m.Transpose()
	if got.Rows != 8 || got.Cols != 5 {
		t.Fatalf("transpose dims %dx%d", got.Rows, got.Cols)
	}
	if !got.ToDense().Equal(d.Transpose()) {
		t.Fatal("transpose mismatch")
	}
}

func TestMultiplyMatchesDense(t *testing.T) {
	ctx := tctx()
	da := linalg.RandDense(6, 4, 0, 2, 8)
	db := linalg.RandDense(4, 5, 0, 2, 9)
	a := FromDense(ctx, da, 2, 3)
	b := FromDense(ctx, db, 2, 3)
	want := linalg.Mul(da, db)
	if got := JoinMultiply(a, b, Product{}, true).ToDense(); !got.EqualApprox(want, 1e-9) {
		t.Fatalf("multiply mismatch: %g", got.MaxAbsDiff(want))
	}
	if got := a.MultiplyGBJ(b).ToDense(); !got.EqualApprox(want, 1e-9) {
		t.Fatalf("GBJ multiply mismatch: %g", got.MaxAbsDiff(want))
	}
	if got := JoinMultiply(a, b, Product{}, false).ToDense(); !got.EqualApprox(want, 1e-9) {
		t.Fatalf("groupByKey multiply mismatch: %g", got.MaxAbsDiff(want))
	}
}

func TestMultiplyWithPadding(t *testing.T) {
	ctx := tctx()
	// Dimensions that do not divide the tile size: padding must not
	// contribute to the product.
	da := linalg.RandDense(5, 7, -1, 1, 10)
	db := linalg.RandDense(7, 3, -1, 1, 11)
	a := FromDense(ctx, da, 4, 2)
	b := FromDense(ctx, db, 4, 2)
	want := linalg.Mul(da, db)
	if got := JoinMultiply(a, b, Product{}, true).ToDense(); !got.EqualApprox(want, 1e-9) {
		t.Fatal("padded multiply mismatch")
	}
	if got := a.MultiplyGBJ(b).ToDense(); !got.EqualApprox(want, 1e-9) {
		t.Fatal("padded GBJ multiply mismatch")
	}
}

// TestMultiplyShapePanics: both plans refuse operands whose contracted
// dimensions or tile sizes differ, whatever the combine.
func TestMultiplyShapePanics(t *testing.T) {
	ctx := tctx()
	a := FromDense(ctx, linalg.NewDense(4, 4), 2, 1)
	h := func(out, x, y *linalg.Dense, _ Coord, _ int64) {}
	for _, b := range []*Matrix{
		FromDense(ctx, linalg.NewDense(6, 4), 2, 1), // 4 columns against 6 rows
		FromDense(ctx, linalg.NewDense(4, 4), 4, 1), // tile 2 against tile 4
	} {
		for _, prod := range []Product{{}, {H: h}} {
			for name, plan := range map[string]func(){
				"gbj":  func() { GroupByJoin(a, b, prod) },
				"join": func() { JoinMultiply(a, b, prod, true) },
			} {
				func() {
					defer func() {
						if recover() == nil {
							t.Fatalf("%s over %dx%d/%d: no panic", name, b.Rows, b.Cols, b.N)
						}
					}()
					plan()
				}()
			}
		}
	}
}

// Shuffle accounting behind Figure 4.B. Rule 13: reduceByKey's
// map-side combine must shuffle strictly less than groupByKey, which
// ships every partial-product tile. GBJ's shuffle is exactly the
// bounded replication 2*g^3 tiles (g = blocks per side) — its real
// advantage over join+reduce is never materializing the g^3 partial
// product tiles, which benchmarks observe as time, not bytes.
func TestMultiplyShuffleAccounting(t *testing.T) {
	ctx := tctx()
	da := linalg.RandDense(24, 24, 0, 1, 12)
	db := linalg.RandDense(24, 24, 0, 1, 13)
	mk := func() (*Matrix, *Matrix) {
		return FromDense(ctx, da, 4, 4), FromDense(ctx, db, 4, 4)
	}

	a, b := mk()
	ctx.ResetMetrics()
	a.MultiplyGBJ(b).ToDense()
	gbjRecords := ctx.Metrics().ShuffledRecords

	a, b = mk()
	ctx.ResetMetrics()
	GroupByJoin(a, b, Product{gridP: 6, gridQ: 6}).ToDense()
	fullGridRecords := ctx.Metrics().ShuffledRecords

	a, b = mk()
	ctx.ResetMetrics()
	JoinMultiply(a, b, Product{}, true).ToDense()
	rbk := ctx.Metrics().ShuffledBytes

	a, b = mk()
	ctx.ResetMetrics()
	JoinMultiply(a, b, Product{}, false).ToDense()
	gbk := ctx.Metrics().ShuffledBytes

	if rbk >= gbk {
		t.Fatalf("reduceByKey should shuffle less than groupByKey: %d vs %d", rbk, gbk)
	}
	// g = 24/4 = 6 blocks per side, 36 tiles per input, 4 partitions:
	// the processor grid is the p x q PickGrid derives from those, and
	// A crosses the shuffle q times, B p times.
	p, q := stats.PickGrid(6, 6, 36, 36, 4, 0)
	if p*q != 4 {
		t.Fatalf("grid %dx%d for 4 partitions, want 4 cells", p, q)
	}
	if want := 36*q + 36*p; gbjRecords != want {
		t.Fatalf("GBJ shuffled records %d, want tilesA*q + tilesB*p = %d on the %dx%d grid", gbjRecords, want, p, q)
	}
	// One cell per output tile replicates each tile 6 times: 2 * 6^3.
	if fullGridRecords != 432 {
		t.Fatalf("full-grid GBJ shuffled records %d, want 432", fullGridRecords)
	}
}

func TestRowColSums(t *testing.T) {
	ctx := tctx()
	d := linalg.RandDense(7, 5, -2, 2, 15)
	m := FromDense(ctx, d, 3, 2)
	if !m.RowSums().ToDense().EqualApprox(d.RowSums(), 1e-9) {
		t.Fatal("row sums mismatch")
	}
	if !m.Transpose().RowSums().ToDense().EqualApprox(d.ColSums(), 1e-9) {
		t.Fatal("col sums mismatch")
	}
}

func TestSumAllAndNorm(t *testing.T) {
	ctx := tctx()
	d := linalg.RandDense(5, 5, -1, 1, 16)
	m := FromDense(ctx, d, 2, 2)
	if !approx(m.RowSums().ToDense().Sum(), d.Sum(), 1e-9) {
		t.Fatal("sum mismatch")
	}
	want := d.FrobeniusNorm()
	if !approx(m.FrobeniusNorm2(), want*want, 1e-9) {
		t.Fatal("norm mismatch")
	}
}

// TestMultiplyTransVariants: both plans of Aᵀ·B and A·Bᵀ, with the
// transposed operand read in place.
func TestMultiplyTransVariants(t *testing.T) {
	ctx := tctx()
	da := linalg.RandDense(6, 4, -1, 1, 19)
	db := linalg.RandDense(6, 5, -1, 1, 20)
	dc := linalg.RandDense(7, 4, -1, 1, 21)
	dd := linalg.RandDense(5, 4, -1, 1, 22)
	for _, c := range []struct {
		name string
		x, y *linalg.Dense
		prod Product
		want *linalg.Dense
	}{
		{"A^T*B", da, db, Product{TransA: true}, linalg.Mul(da.Transpose(), db)},
		{"A*B^T", dc, dd, Product{TransB: true}, linalg.Mul(dc, dd.Transpose())},
	} {
		a, b := FromDense(ctx, c.x, 2, 2), FromDense(ctx, c.y, 2, 2)
		for plan, got := range map[string]*Matrix{
			"gbj":             GroupByJoin(a, b, c.prod),
			"join+reduce":     JoinMultiply(a, b, c.prod, true),
			"join+groupByKey": JoinMultiply(a, b, c.prod, false),
		} {
			if d := got.ToDense(); !d.EqualApprox(c.want, 1e-9) {
				t.Fatalf("%s %s mismatch: %g", c.name, plan, d.MaxAbsDiff(c.want))
			}
		}
	}
}

// Property: tiled multiply agrees with dense multiply across random
// shapes, tile sizes, and both strategies.
func TestQuickMultiplyStrategiesAgree(t *testing.T) {
	ctx := tctx()
	f := func(n1, n2, n3, ts uint8, seed int64) bool {
		r, k, c := int(n1%6)+1, int(n2%6)+1, int(n3%6)+1
		n := int(ts%3) + 1
		da := linalg.RandDense(r, k, -2, 2, seed)
		db := linalg.RandDense(k, c, -2, 2, seed+1)
		a := FromDense(ctx, da, n, 2)
		b := FromDense(ctx, db, n, 2)
		want := linalg.Mul(da, db)
		return JoinMultiply(a, b, Product{}, true).ToDense().EqualApprox(want, 1e-9) &&
			a.MultiplyGBJ(b).ToDense().EqualApprox(want, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: (A+B)^T == A^T + B^T on tiled matrices.
func TestQuickTransposeAddCommute(t *testing.T) {
	ctx := tctx()
	f := func(seed int64) bool {
		da := linalg.RandDense(5, 7, -2, 2, seed)
		db := linalg.RandDense(5, 7, -2, 2, seed+3)
		a := FromDense(ctx, da, 3, 2)
		b := FromDense(ctx, db, 3, 2)
		left := a.Add(b).Transpose().ToDense()
		right := a.Transpose().Add(b.Transpose()).ToDense()
		return left.EqualApprox(right, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
