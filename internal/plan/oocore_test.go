package plan_test

// Out-of-core coverage for the full query pipeline: a compiled SAC
// comprehension whose working set is several times the session's
// memory budget must still produce the in-memory answer, with the
// spill subsystem visibly engaged. This exercises plan execution on
// top of the budgeted engine (plan_test -> core -> plan keeps the
// import legal).

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/jobs"
	"repro/internal/linalg"
	"repro/internal/opt"
)

func TestOutOfCoreQueryMatmul(t *testing.T) {
	const budget = 2 << 20
	const n = 512 // 3 * 512^2 * 8B = 6MiB working set, 3x the budget
	s := core.NewSession(core.Config{
		Parallelism:  8,
		Partitions:   16,
		TileSize:     128,
		MemoryBudget: budget,
	})
	defer func() {
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	da := linalg.RandDense(n, n, 0, 1, 41)
	db := linalg.RandDense(n, n, 0, 1, 42)
	s.RegisterDense("A", da)
	s.RegisterDense("B", db)
	m, err := s.QueryMatrix(`tiled(512,512)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B,
	          kk == k, let v = a*b, group by (i,j) ]`)
	if err != nil {
		t.Fatal(err)
	}
	if !m.ToDense().EqualApprox(linalg.Mul(da, db), 1e-8) {
		t.Fatal("out-of-core query matmul diverges from local result")
	}
	snap := s.Metrics()
	if snap.SpilledBytes == 0 || snap.SpillFiles == 0 {
		t.Fatalf("query ran over budget without spilling: %+v", snap)
	}
	if snap.MemoryPeak > 2*int64(budget) {
		t.Fatalf("tracked peak %d exceeds budget %d + slack", snap.MemoryPeak, budget)
	}
}

// TestOutOfCoreQueryMatmulNoGBJ runs the same multiply with the
// group-by-join rewrite disabled, forcing the join + group-by plan
// through the budgeted shuffle instead of SUMMA.
func TestOutOfCoreQueryMatmulNoGBJ(t *testing.T) {
	const budget = 2 << 20
	const n = 512
	s := core.NewSession(core.Config{
		Parallelism:   8,
		Partitions:    16,
		TileSize:      128,
		MemoryBudget:  budget,
		Optimizations: opt.Options{DisableGBJ: true},
	})
	defer s.Close()
	da := linalg.RandDense(n, n, 0, 1, 43)
	db := linalg.RandDense(n, n, 0, 1, 44)
	s.RegisterDense("A", da)
	s.RegisterDense("B", db)
	m, err := s.QueryMatrix(`tiled(512,512)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B,
	          kk == k, let v = a*b, group by (i,j) ]`)
	if err != nil {
		t.Fatal(err)
	}
	if !m.ToDense().EqualApprox(linalg.Mul(da, db), 1e-8) {
		t.Fatal("out-of-core join+group-by matmul diverges from local result")
	}
	if snap := s.Metrics(); snap.SpilledBytes == 0 || snap.MergePasses == 0 {
		t.Fatalf("join+group-by query over budget did not spill: %+v", snap)
	}
}

// TestOutOfCoreCoordinateFamilies runs the coordinate fallback's query
// families under a 256-byte budget — every shuffle spills its
// comp.Value rows through the value codec — and requires the bits of the
// unbudgeted run.
func TestOutOfCoreCoordinateFamilies(t *testing.T) {
	run := func(src string, budget int64) (string, dataflow.MetricsSnapshot) {
		s := core.NewSession(core.Config{Parallelism: 4, Partitions: 5, TileSize: 4, MemoryBudget: budget})
		defer func() {
			if err := s.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		}()
		s.RegisterDense("A", linalg.RandDense(10, 9, 0, 5, 51))
		s.RegisterDense("B", linalg.RandDense(9, 10, 0, 5, 52))
		s.RegisterScalar("n", int64(10))
		res, err := s.Query(src)
		if err != nil {
			t.Fatalf("budget %d: %s: %v", budget, src, err)
		}
		blob, err := jobs.EncodeResult(res)
		if err != nil {
			t.Fatal(err)
		}
		return string(blob), s.Metrics()
	}
	for _, c := range []struct {
		name, src string
		shuffles  bool
	}{
		{"join chain", `tiled(n,n)[ ((i,j), min/v) | ((i,k),a) <- A, ((kk,j),b) <- B, kk == k, let v = a+b, group by (i,j) ]`, true},
		{"range-seeded stencil", `tiled(n,9)[ ((i,j), 2.0*v) | i <- 0 until n, j <- 0 until 9, ((ii,jj),v) <- A, ii == i-1, jj == j ]`, true},
		{"having clause", `rdd[ (k, +/a) | ((i,j),a) <- A, group by k: i % 3, count(a) > 27 ]`, true},
		{"filtered total", `+/[ a | ((i,j),a) <- A, a > 2.5 ]`, false},
		{"bare rdd head", `rdd[ a*2.0 | ((i,j),a) <- A, i == j ]`, false},
	} {
		want, _ := run(c.src, 0)
		got, snap := run(c.src, 256)
		if got != want {
			t.Errorf("%s: the budgeted run differs from the unbudgeted one", c.name)
		}
		if (snap.SpilledBytes > 0) != c.shuffles {
			t.Errorf("%s: spilled %d bytes under a 256-byte budget", c.name, snap.SpilledBytes)
		}
	}
}
