package tiled

// End-to-end out-of-core tests: tiled algebra over working sets several
// times the configured memory budget, verified bit-for-bit (or to
// floating-point reassociation tolerance) against the local kernels.
// The CI spill job selects these with -run OutOfCore; SAC_MEMORY_BUDGET
// overrides the default budget (clamped so test runtime stays bounded).

import (
	"math"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/linalg"
	"repro/internal/memory"
)

// oocBudget is the test budget: the environment override, clamped to
// [1MiB, 4MiB] so working sets sized as multiples of it stay test-fast
// (each matmul test runs at ~3 budgets of dense operands).
func oocBudget() int64 {
	b := memory.BudgetFromEnv(2 << 20)
	if b > 4<<20 {
		b = 4 << 20
	}
	if b < 1<<20 {
		b = 1 << 20
	}
	return b
}

func oocCtx(t *testing.T, budget int64) *dataflow.Context {
	t.Helper()
	ctx := dataflow.NewContext(dataflow.Config{
		Parallelism:       8,
		DefaultPartitions: 16,
		MemoryBudget:      budget,
	})
	t.Cleanup(func() {
		if err := ctx.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return ctx
}

// oocDims picks a square size whose three dense operands total at
// least 4x the budget, rounded up to whole tiles.
func oocDims(budget int64, tile int) int {
	n := int(math.Sqrt(float64(4*budget) / (3 * 8)))
	blocks := (n + tile - 1) / tile
	return blocks * tile
}

func maxAbsDiff(a, b *linalg.Dense) float64 {
	var m float64
	for i := range a.Data {
		if d := math.Abs(a.Data[i] - b.Data[i]); d > m {
			m = d
		}
	}
	return m
}

func checkSpilled(t *testing.T, ctx *dataflow.Context, budget int64) {
	t.Helper()
	s := ctx.Metrics()
	if s.SpilledBytes == 0 || s.SpillFiles == 0 {
		t.Fatalf("working set over budget but nothing spilled: %+v", s)
	}
	if s.MergePasses == 0 {
		t.Fatal("spilled runs were never merged")
	}
	if s.MemoryPeak > 2*budget {
		t.Fatalf("tracked peak %s exceeds budget %s + slack %s",
			memory.FormatBytes(s.MemoryPeak), memory.FormatBytes(budget), memory.FormatBytes(budget))
	}
}

func TestOutOfCoreMultiply(t *testing.T) {
	budget := oocBudget()
	const tile = 128
	n := oocDims(budget, tile)
	ctx := oocCtx(t, budget)
	a := RandMatrix(ctx, int64(n), int64(n), tile, 0, 0, 1, 1)
	b := RandMatrix(ctx, int64(n), int64(n), tile, 0, 0, 1, 2)
	got := JoinMultiply(a, b, Product{}, true).ToDense()

	want := linalg.NewDense(n, n)
	linalg.Gemm(want, a.ToDense(), b.ToDense())
	if d := maxAbsDiff(got, want); d > 1e-8 {
		t.Fatalf("out-of-core multiply diverges from local Gemm by %g", d)
	}
	checkSpilled(t, ctx, budget)
}

func TestOutOfCoreMultiplyGroupByKey(t *testing.T) {
	budget := oocBudget()
	const tile = 128
	n := oocDims(budget, tile)
	ctx := oocCtx(t, budget)
	a := RandMatrix(ctx, int64(n), int64(n), tile, 0, 0, 1, 3)
	b := RandMatrix(ctx, int64(n), int64(n), tile, 0, 0, 1, 4)
	got := JoinMultiply(a, b, Product{}, false).ToDense()

	want := linalg.NewDense(n, n)
	linalg.Gemm(want, a.ToDense(), b.ToDense())
	if d := maxAbsDiff(got, want); d > 1e-8 {
		t.Fatalf("group-by multiply diverges from local Gemm by %g", d)
	}
	checkSpilled(t, ctx, budget)
}

func TestOutOfCoreSummaMultiply(t *testing.T) {
	budget := oocBudget()
	const tile = 128
	n := oocDims(budget, tile)
	ctx := oocCtx(t, budget)
	a := RandMatrix(ctx, int64(n), int64(n), tile, 0, 0, 1, 6)
	b := RandMatrix(ctx, int64(n), int64(n), tile, 0, 0, 1, 7)
	got := a.MultiplyGBJ(b).ToDense()

	want := linalg.NewDense(n, n)
	linalg.Gemm(want, a.ToDense(), b.ToDense())
	if d := maxAbsDiff(got, want); d > 1e-8 {
		t.Fatalf("SUMMA multiply diverges from local Gemm by %g", d)
	}
	if s := ctx.Metrics(); s.SpilledBytes == 0 {
		t.Fatalf("SUMMA shuffle did not spill: %+v", s)
	}
}
