package plan_test

// Out-of-core coverage for the full query pipeline: a compiled SAC
// comprehension whose working set is several times the session's
// memory budget must still produce the in-memory answer, with the
// spill subsystem visibly engaged. This exercises plan execution on
// top of the budgeted engine (plan_test -> core -> plan keeps the
// import legal).

import (
	"fmt"
	"math"
	"strings"
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
		{"total over a join", `+/[ a*b | ((i,j),a) <- A, ((jj,ii),b) <- B, ii == i, jj == j, a > 2.5 ]`, true},
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

// TestOutOfCoreRule19Rotation runs the Section 5.2 row rotation, a query
// that does not preserve tiling, through Rule 19's replicate-and-regroup
// under a 256-byte budget: every replicated tile spills through the
// registered codec of its shuffle row, and the result has the bits of
// the unbudgeted run — row i of A is row (i+1) mod n — on a ragged shape
// whose wraparound crosses a padded tile and on a larger one.
func TestOutOfCoreRule19Rotation(t *testing.T) {
	for _, c := range []struct{ n, m, tile int }{{5, 3, 2}, {70, 48, 16}} {
		d := linalg.RandDense(c.n, c.m, 0, 9, int64(c.n))
		src := fmt.Sprintf("tiled(%d,%d)[ (((i+1) %% %d, j), v) | ((i,j),v) <- A ]", c.n, c.m, c.n)
		run := func(budget int64) (*linalg.Dense, dataflow.MetricsSnapshot) {
			s := core.NewSession(core.Config{Parallelism: 4, Partitions: 5, TileSize: c.tile, MemoryBudget: budget})
			defer func() {
				if err := s.Close(); err != nil {
					t.Errorf("Close: %v", err)
				}
			}()
			s.RegisterDense("A", d)
			if plan, err := s.Explain(src); err != nil || !strings.Contains(plan, "Rule 19") {
				t.Fatalf("%s: plan %q (%v), want Rule 19 replication", src, plan, err)
			}
			m, err := s.QueryMatrix(src)
			if err != nil {
				t.Fatalf("budget %d: %v", budget, err)
			}
			return m.ToDense(), s.Metrics()
		}
		want, _ := run(0)
		got, snap := run(256)
		for i := 0; i < c.n; i++ {
			for j := 0; j < c.m; j++ {
				if want.At((i+1)%c.n, j) != d.At(i, j) {
					t.Fatalf("%s: row %d did not move to row %d", src, i, (i+1)%c.n)
				}
			}
		}
		for x := range want.Data {
			if math.Float64bits(got.Data[x]) != math.Float64bits(want.Data[x]) {
				t.Fatalf("%s: the budgeted run differs from the unbudgeted one at %d", src, x)
			}
		}
		if snap.SpilledBytes == 0 {
			t.Fatalf("%s: the replication shuffle did not spill under 256 bytes: %+v", src, snap)
		}
	}
}
