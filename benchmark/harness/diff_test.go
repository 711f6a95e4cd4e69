package harness

import (
	"io"
	"math"
	"testing"
)

// The quartiles must be the ones Python's statistics.quantiles(v, n=4)
// returns: the acceptance check of the benchmark computes spreads so.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10.5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	if q1, q3 = quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles = %v, %v; Python gives 1, 3", q1, q3)
	}
}

// The rows of a comparison are the harness's workloads; the tests use
// the first.
var testWorkload = Workloads()[0]

func resultSet(workload string, p50 []float64) *ResultFile {
	f := &ResultFile{Runs: len(p50)}
	for i, v := range p50 {
		f.Untraced = append(f.Untraced, &RunResult{Workload: workload, Seed: int64(i), Correct: true, Attempted: 10,
			Metrics: map[string]Metric{"op_ms_p50": {v, "ms"}, "ops_per_s": {1000 / v, "1/s"}, "setup_s": {1, "s"}}})
	}
	return f
}

func TestDiffVerdicts(t *testing.T) {
	spec := &Spec{EndToEnd: []MetricSpec{{"setup_s", "s", "lower", 0.2}, {"op_ms_p50", "ms", "lower", 0.08}, {"ops_per_s", "1/s", "higher", 0.08}}}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{100, 130, 80, 100, 125, 70, 100, 140, 90, 100}
	for _, c := range []struct {
		name     string
		old, new []float64
		want     string
	}{
		{"same", steady, steady, "ok"},
		{"within the bound", steady, scaled(1.05), "ok"},
		{"beyond the bound", steady, scaled(1.2), "REGRESSION"},
		{"faster", steady, scaled(0.8), "ok"},
		{"spread wider than the bound", steady, noisy, "unresolved"},
		{"noisy but every run better", noisy, scaled(0.5), "ok"},
	} {
		rows := Diff(spec, resultSet(testWorkload, c.old), resultSet(testWorkload, c.new))
		if len(rows) != 3 {
			t.Fatalf("%s: %d rows, want 3", c.name, len(rows))
		}
		for _, r := range rows[1:] {
			if r.Verdict != c.want {
				t.Errorf("%s: %s is %s (worse %+.3f), want %s", c.name, r.Metric, r.Verdict, r.Worse, c.want)
			}
		}
		if rows[0].Verdict != "ok" || math.Abs(rows[0].Worse) > 1e-12 {
			t.Errorf("%s: unchanged setup_s is %s (worse %v)", c.name, rows[0].Verdict, rows[0].Worse)
		}
	}
}

// Set-up time is judged by the same spread rule as every other metric.
func TestDiffSetupSpread(t *testing.T) {
	spec := &Spec{EndToEnd: []MetricSpec{{"setup_s", "s", "lower", 0.2}}}
	set := func(setup []float64) *ResultFile {
		f := &ResultFile{Runs: len(setup)}
		for _, v := range setup {
			f.Untraced = append(f.Untraced, &RunResult{Workload: testWorkload, Metrics: map[string]Metric{"setup_s": {v, "s"}}})
		}
		return f
	}
	rows := Diff(spec, set([]float64{1, 1, 1, 1, 1}), set([]float64{0.6, 0.8, 1, 1.3, 1.5}))
	if len(rows) != 1 || rows[0].Verdict != "unresolved" {
		t.Errorf("set-up spreading wider than its bound: %+v, want unresolved", rows)
	}
}

// A counted quantity that differs between two sets fails the comparison;
// spilled bytes may differ in the seventh digit.
func TestDiffCounts(t *testing.T) {
	spec := &Spec{}
	set := func(shuffled, spilled float64) *ResultFile {
		return &ResultFile{Traced: []*RunResult{{Workload: testWorkload, Metrics: map[string]Metric{
			"dataflow.shuffled_bytes_op": {shuffled, "bytes"}, "spill.spilled_bytes_op": {spilled, "bytes"}}}}}
	}
	for _, c := range []struct {
		name      string
		old, new  *ResultFile
		regressed bool
	}{
		{"same", set(1000, 160041236), set(1000, 160041236), false},
		{"spill jitter", set(1000, 160041236), set(1000, 160041304), false},
		{"shuffled bytes differ", set(1000, 0), set(1001, 0), true},
		{"spilled bytes differ", set(1000, 160041236), set(1000, 170000000), true},
	} {
		if got := PrintDiff(io.Discard, spec, c.old, c.new); got != c.regressed {
			t.Errorf("%s: regressed = %v, want %v", c.name, got, c.regressed)
		}
	}
}
