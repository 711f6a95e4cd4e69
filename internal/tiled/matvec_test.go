package tiled

import (
	"testing"
	"testing/quick"

	"repro/internal/dataflow"
	"repro/internal/linalg"
)

func TestMatVecMatchesDense(t *testing.T) {
	ctx := tctx()
	d := linalg.RandDense(7, 5, -2, 2, 61)
	x := linalg.RandVector(5, -1, 1, 62)
	m := FromDense(ctx, d, 3, 2)
	bx := VectorFromDense(ctx, x, 3, 2)
	got := m.MatVecOp(bx, false).ToDense()
	if !got.EqualApprox(linalg.MatVec(d, x), 1e-9) {
		t.Fatal("matvec mismatch")
	}
}

func TestMatVecOpTransposedMatchesDense(t *testing.T) {
	ctx := tctx()
	d := linalg.RandDense(7, 5, -2, 2, 63)
	x := linalg.RandVector(7, -1, 1, 64)
	m := FromDense(ctx, d, 3, 2)
	bx := VectorFromDense(ctx, x, 3, 2)
	got := m.MatVecOp(bx, true).ToDense()
	want := linalg.MatVec(d.Transpose(), x)
	if !got.EqualApprox(want, 1e-9) {
		t.Fatal("matvec-trans mismatch")
	}
}

func TestMatVecShapePanics(t *testing.T) {
	ctx := tctx()
	m := FromDense(ctx, linalg.NewDense(4, 4), 2, 1)
	x := VectorFromDense(ctx, linalg.NewVector(6), 2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.MatVecOp(x, false)
}

// Property: M(x + y) = Mx + My on tiled structures.
func TestQuickMatVecLinearity(t *testing.T) {
	ctx := tctx()
	f := func(seed int64) bool {
		d := linalg.RandDense(6, 8, -2, 2, seed)
		x := linalg.RandVector(8, -1, 1, seed+1)
		y := linalg.RandVector(8, -1, 1, seed+2)
		m := FromDense(ctx, d, 3, 2)
		bx := VectorFromDense(ctx, x, 3, 2)
		by := VectorFromDense(ctx, y, 3, 2)
		left := m.MatVecOp(VectorFromDense(ctx, x.Clone().AddInPlace(y), 3, 2), false).ToDense()
		right := m.MatVecOp(bx, false).ToDense().AddInPlace(m.MatVecOp(by, false).ToDense())
		return left.EqualApprox(right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

var _ = dataflow.NewLocalContext // silence unused-import on build tags
