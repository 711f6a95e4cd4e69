// Package benchmark_test is the smoke pass of the benchmark: every
// workload, the traced run and the layer suite on small inputs, with no
// assertion about wall-clock time. Run it from this directory:
//
//	go test ./...
package benchmark_test

import (
	"math"
	"regexp"
	"runtime"
	"slices"
	"testing"

	"repro/benchmark/harness"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func loadSpec(t *testing.T) *harness.Spec {
	t.Helper()
	root, err := harness.FindRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := harness.LoadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpec checks BENCHMARK.json against the limits of its contract.
func TestSpec(t *testing.T) {
	spec := loadSpec(t)
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1 to 60", spec.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range spec.Workloads {
		name(w.Name)
		if !slices.Contains(harness.Workloads(), w.Name) {
			t.Errorf("workload %s is listed but the harness has no such workload", w.Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1 to 200", w.Name, len(w.Why))
		}
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	setup := false
	for _, m := range append(append([]harness.MetricSpec{}, spec.EndToEnd...), spec.PerLayer...) {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %g, want (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("no end-to-end metric setup_s in s, lower is better")
	}
}

func checkMetrics(t *testing.T, res *harness.RunResult, want []harness.MetricSpec, nonZero bool) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics reported, BENCHMARK.json lists %d", res.Workload, len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s is missing", res.Workload, m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s: metric %s has unit %q, want %q", res.Workload, m.Name, got.Unit, m.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("%s: metric %s is %v", res.Workload, m.Name, got.Value)
		case nonZero && got.Value == 0:
			t.Errorf("%s: end-to-end metric %s is 0", res.Workload, m.Name)
		}
	}
}

// TestSmoke runs every workload of the harness untraced and traced
// (layer table included) and the layer table alone, and checks that every
// name in BENCHMARK.json is reported once per run, finite, and that every
// per-layer name is really measured by some workload, not just
// zero-filled.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	root, tmp := t.TempDir(), t.TempDir()
	measured := map[string]bool{}
	for _, w := range harness.Workloads() {
		for _, trace := range []bool{false, true} {
			cfg := harness.RunConfig{Workload: w, Seed: 7, Seconds: 0.2, Trace: trace, Smoke: true, Root: root, Tmp: tmp}
			res, err := harness.Run(cfg, spec)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d errors=%v",
					w, trace, res.Correct, res.Attempted, res.Failed, res.Errors)
			}
			if !trace {
				checkMetrics(t, res, spec.EndToEnd, true)
				continue
			}
			checkMetrics(t, res, spec.PerLayer, false)
			for name, m := range res.Metrics {
				if m.Value != 0 {
					measured[name] = true
				}
			}
		}
	}
	// Counters of things that do not happen on healthy default runs, and
	// the tile pool's hit share: the query path never hands result tiles
	// back, so every Get is a miss.
	idle := map[string]bool{"cluster.fetch_retries_op": true, "server.rejected_share": true,
		"memory.budget_waits_op": true, "memory.overcommits_op": true, "server.queued_ms_p50": true,
		"linalg.pool_hit_share": true}
	for _, m := range spec.PerLayer {
		if !measured[m.Name] && !idle[m.Name] {
			t.Errorf("per-layer metric %s read 0 on every workload: nothing measures it", m.Name)
		}
	}

	table, err := harness.RunLayerTable(true, tmp, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Metrics) < 30 {
		t.Errorf("layer table has %d metrics, want the whole micro suite", len(table.Metrics))
	}
	for name, m := range table.Metrics {
		if m.Value <= 0 || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("layer table: %s is %v", name, m.Value)
		}
	}
}

// TestCorruptReference damages the verifier's reference on one workload
// of each kind: every op must then be counted wrong.
func TestCorruptReference(t *testing.T) {
	spec := loadSpec(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, w := range []string{"local-elementwise", "spill-matmul", "cluster-rowsum", "serve-mixed"} {
		cfg := harness.RunConfig{Workload: w, Seed: 7, Seconds: 0.1, Smoke: true, Corrupt: true,
			Root: t.TempDir(), Tmp: t.TempDir()}
		res, err := harness.Run(cfg, spec)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if res.Correct || res.Failed != res.Attempted {
			t.Errorf("%s: correct=%v, %d of %d ops failed; want all of them", w, res.Correct, res.Failed, res.Attempted)
		}
	}
}
