package ml

import (
	"testing"

	"repro/internal/dataflow"
	"repro/internal/linalg"
	"repro/internal/mllib"
	"repro/internal/tiled"
)

// factorization fixture: sparse-ish R (10% of the paper's setup,
// values in (0,5]) and dense P, Q in [0,1).
func fixture(n, m, k int) (*linalg.Dense, *linalg.Dense, *linalg.Dense) {
	r := linalg.RandSparseCOO(n, m, 0.1, 5, 42).ToDense()
	p := linalg.RandDense(n, k, 0, 1, 43)
	q := linalg.RandDense(m, k, 0, 1, 44)
	return r, p, q
}

func TestStepTiledMatchesDense(t *testing.T) {
	ctx := dataflow.NewLocalContext()
	r, p, q := fixture(12, 10, 4)
	wantP, wantQ := StepDense(r, p, q, PaperConfig())

	tr := tiled.FromDense(ctx, r, 3, 3)
	tp := tiled.FromDense(ctx, p, 3, 3)
	tq := tiled.FromDense(ctx, q, 3, 3)
	gotP, gotQ := StepTiled(tr, tp, tq, PaperConfig())
	if !gotP.ToDense().EqualApprox(wantP, 1e-9) {
		t.Fatalf("tiled P mismatch: %g", gotP.ToDense().MaxAbsDiff(wantP))
	}
	if !gotQ.ToDense().EqualApprox(wantQ, 1e-9) {
		t.Fatalf("tiled Q mismatch: %g", gotQ.ToDense().MaxAbsDiff(wantQ))
	}
}

func TestStepMLlibMatchesDense(t *testing.T) {
	ctx := dataflow.NewLocalContext()
	r, p, q := fixture(12, 10, 4)
	wantP, wantQ := StepDense(r, p, q, PaperConfig())

	br := mllib.FromDense(ctx, r, 3, 3)
	bp := mllib.FromDense(ctx, p, 3, 3)
	bq := mllib.FromDense(ctx, q, 3, 3)
	gotP, gotQ := StepMLlib(br, bp, bq, PaperConfig())
	if !gotP.ToDense().EqualApprox(wantP, 1e-9) {
		t.Fatal("mllib P mismatch")
	}
	if !gotQ.ToDense().EqualApprox(wantQ, 1e-9) {
		t.Fatal("mllib Q mismatch")
	}
}

// Repeated iterations decrease the squared Frobenius loss (gradient
// descent sanity check on all three implementations).
func TestIterationsDecreaseLoss(t *testing.T) {
	ctx := dataflow.NewLocalContext()
	r, p, q := fixture(15, 12, 3)
	tr := tiled.FromDense(ctx, r, 4, 3)
	tp := tiled.FromDense(ctx, p, 4, 3)
	tq := tiled.FromDense(ctx, q, 4, 3)
	cfg := PaperConfig()
	prev := Loss(tr, tp, tq)
	for it := 0; it < 5; it++ {
		tp, tq = StepTiled(tr, tp, tq, cfg)
		cur := Loss(tr, tp, tq)
		if cur > prev {
			t.Fatalf("loss increased at iteration %d: %v -> %v", it, prev, cur)
		}
		prev = cur
	}
}
