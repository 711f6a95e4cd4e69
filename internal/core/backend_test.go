package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/linalg"
)

const matmulSrc = "tiled(n, n)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B, kk == k, let v = a*b, group by (i,j) ]"

func newABSession(t *testing.T) *Session {
	t.Helper()
	s := NewSession(Config{TileSize: 4, Partitions: 4})
	t.Cleanup(func() { s.Close() })
	s.RegisterRandMatrix("A", 8, 8, 0, 10, 1)
	s.RegisterRandMatrix("B", 8, 8, 0, 10, 2)
	s.RegisterScalar("n", int64(8))
	return s
}

func run(t *testing.T, b Backend, src string, traced bool) *Outcome {
	t.Helper()
	q, err := b.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	out, err := b.Run(q, src, traced)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestBackendAnalyzeReport checks the EXPLAIN ANALYZE output of a traced
// Run: plan line, result, per-stage table metered over just this query,
// and the span tree.
func TestBackendAnalyzeReport(t *testing.T) {
	s := newABSession(t)
	// Earlier unrelated work on the same session must not leak into the
	// report: Run starts the metrics window over.
	run(t, s, "tiled(n, n)[ ((i,j), a + 1.0) | ((i,j),a) <- A ]", true)
	out := run(t, s, matmulSrc, true)
	report := out.Record(matmulSrc, nil).Report()
	for _, want := range []string{
		"plan: tiled([8 8]) <- SUMMA group-by-join",
		"result: 8x8 tiled matrix (sum=",
		"stages:",
		"taskP99",
		// The totals line names the CPU's kernel set, and the
		// group-by-join's cell spans the micro-kernel their 4×4 tile
		// products ran, so a GFLOP/s figure says where it came from.
		" kernel=" + linalg.KernelName() + "\n",
		"kernel: gbj-cell",
		`kernel="` + linalg.KernelFor(4, 4) + `"`,
		"trace:",
		"phase: execute",
		"stage: ",
	} {
		if !strings.Contains(report, want) {
			t.Fatalf("report missing %q:\n%s", want, report)
		}
	}
	var reported int64
	if _, err := fmt.Sscanf(report[strings.Index(report, "stages="):], "stages=%d", &reported); err != nil {
		t.Fatalf("no stages= in totals line: %v\n%s", err, report)
	}
	alone := run(t, newABSession(t), matmulSrc, false).Metrics.Stages
	if reported <= 0 || reported != alone {
		t.Fatalf("metering wrong: report covers %d stages, the query alone runs %d", reported, alone)
	}
	if strings.Contains(report, "tile-map of A") {
		t.Fatalf("report leaked the warm-up query's plan:\n%s", report)
	}
	if s.Engine().Tracer() != nil {
		t.Fatal("tracer left installed after the traced run")
	}
	// The run it reports is the observation the plan line now carries.
	if !strings.Contains(report, "observed 1 run(s)") {
		t.Fatalf("plan line does not carry this run's observation:\n%s", report)
	}
}

// TestBackendRunForcesAndSummarizes: Run forces the lazy result inside
// its metrics window (Query leaves it to the first action), untraced it
// records no spans, its summary is the result's, and a failed run still
// hands back an Outcome with the plan for the event log.
func TestBackendRunForcesAndSummarizes(t *testing.T) {
	s := newABSession(t)
	res, err := s.Query(matmulSrc)
	if err != nil {
		t.Fatal(err)
	}
	lazy := s.Metrics().Stages
	want := Summarize(res)
	out := run(t, s, matmulSrc, false)
	if out.Trace != nil {
		t.Error("untraced run returned a trace")
	}
	if out.Metrics.Stages <= lazy || out.Wall <= 0 {
		t.Errorf("Run metered %d stages in %v; the lazy Query had run %d before anything forced it", out.Metrics.Stages, out.Wall, lazy)
	}
	if got := out.Summary; got.Kind != "matrix" || got.Rows != 8 || got.Sum != want.Sum || len(got.Values) != 8 {
		t.Errorf("summary %+v, want %+v", got, want)
	}
	if !strings.HasPrefix(out.Summary.String(), "8x8 tiled matrix (sum=") || !strings.Contains(out.Summary.String(), "\nDense(8x8)[") {
		t.Errorf("summary prints %q", out.Summary.String())
	}

	s.RegisterScalar("z", int64(0))
	q, err := s.Compile("+/[ i % z | ((i,j),a) <- A ]")
	if err != nil {
		t.Fatal(err)
	}
	if failed, err := s.Run(q, "", false); err == nil || failed == nil || failed.Plan != q {
		t.Errorf("failing run returned outcome %+v, error %v", failed, err)
	}
}

// TestRunLeavesNothingCached: Run forces its result with one action and
// describes what that action returned, so a Run keeps nothing: no Persist
// cache (CachedBytes stays 0), no memory reservation past its end, and no
// stage runs after its metrics window closes. Before, each Run cached its
// result for the life of the session — 32,880 B per transpose at n = 64,
// tile 16 — and under a budget kept the reservation too.
func TestRunLeavesNothingCached(t *testing.T) {
	const src = "tiled(n, n)[ ((j,i), a) | ((i,j),a) <- A ]"
	for _, budget := range []int64{0, 64 << 20} {
		s := NewSession(Config{TileSize: 16, Partitions: 4, MemoryBudget: budget})
		s.RegisterRandMatrix("A", 64, 64, 0, 10, 1)
		s.RegisterScalar("n", int64(64))
		q, err := s.Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		used := s.Metrics().MemoryUsed
		var sum float64
		for r := 0; r < 200; r++ {
			out, err := s.Run(q, src, false)
			if err != nil {
				t.Fatal(err)
			}
			m := s.Metrics()
			if m.CachedBytes != 0 || m.MemoryUsed != used {
				t.Fatalf("budget %d, run %d: %d B cached and %d B reserved after the run, %d before",
					budget, r, m.CachedBytes, m.MemoryUsed, used)
			}
			if m.Stages != out.Metrics.Stages {
				t.Fatalf("budget %d, run %d: the session ran %d stages, the run metered %d", budget, r, m.Stages, out.Metrics.Stages)
			}
			if r == 0 {
				sum = out.Summary.Sum
			} else if out.Summary.Sum != sum || out.Summary.Rows != 64 {
				t.Fatalf("budget %d, run %d: summary %s, the first run's sum was %v", budget, r, out.Summary.Head(), sum)
			}
		}
		s.Close()
	}
}
