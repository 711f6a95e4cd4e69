package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// ResultFile is one full result set: every workload run Runs times
// untraced (seeds Seed, Seed+1, ...) and once traced.
type ResultFile struct {
	Env      Environment  `json:"env"`
	Seed     int64        `json:"seed"`
	Seconds  float64      `json:"seconds"`
	Runs     int          `json:"runs"`
	Untraced []*RunResult `json:"untraced"`
	Traced   []*RunResult `json:"traced"`
}

func ReadResultFile(path string) (*ResultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f ResultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func (f *ResultFile) Write(path string) error {
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// values lists one end-to-end metric of one workload over the runs.
func (f *ResultFile) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range f.Untraced {
		if r.Workload == workload {
			out = append(out, r.Metrics[metric].Value)
		}
	}
	return out
}

func (f *ResultFile) traced(workload string) *RunResult {
	for _, r := range f.Traced {
		if r.Workload == workload {
			return r
		}
	}
	return nil
}

// spread is the distance between the first and third quartile as a
// share of the median: the figure the bounds are judged against.
func spread(vals []float64) float64 {
	m := median(vals)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(vals)
	return (q3 - q1) / m
}

// PrintMetrics writes one run's metrics by name, with units.
func PrintMetrics(w io.Writer, r *RunResult) {
	kind := "end-to-end"
	if r.Trace {
		kind = "per-layer (traced run, then the layer table; 0 = this workload does not enter the layer)"
	}
	fmt.Fprintf(w, "%s seed=%d: %d ops attempted, %d failed, correct=%v — %s\n",
		r.Workload, r.Seed, r.Attempted, r.Failed, r.Correct, kind)
	fmt.Fprintf(w, "  timed ops by the wall clock: fastest %.4g ms, median %.4g, p95 %.4g, slowest %.4g; yardstick %.4g ms (%g = the nominal host)\n",
		r.OpsMs[0], r.OpsMs[1], r.OpsMs[2], r.OpsMs[3], r.YardstickMs, yardstickNominalMs)
	for _, name := range sortedKeys(r.Metrics) {
		m := r.Metrics[name]
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", name, m.Value, m.Unit)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
}

// PrintSummary writes the result set as two tables: end-to-end medians
// with their spread per workload, then the per-layer metrics.
func (f *ResultFile) PrintSummary(w io.Writer, spec *Spec) {
	fmt.Fprintf(w, "\nend-to-end: median of %d run(s) of %gs (spread = interquartile range / median)\n", f.Runs, f.Seconds)
	fmt.Fprintf(w, "%-18s", "workload")
	for _, m := range spec.EndToEnd {
		fmt.Fprintf(w, " %22s", m.Name+" ["+m.Unit+"]")
	}
	fmt.Fprintf(w, " %9s\n", "failed")
	for _, wl := range Workloads() {
		fmt.Fprintf(w, "%-18s", wl)
		for _, m := range spec.EndToEnd {
			vals := f.values(wl, m.Name)
			fmt.Fprintf(w, " %13.5g ±%6.2f%%", median(vals), 100*spread(vals))
		}
		attempted, failed := 0, 0
		for _, r := range f.Untraced {
			if r.Workload == wl {
				attempted += r.Attempted
				failed += r.Failed
			}
		}
		fmt.Fprintf(w, " %4d/%d\n", failed, attempted)
	}
	if len(f.Traced) > 0 {
		fmt.Fprintf(w, "\nper-layer, from the traced runs; each ends with the layer table (0 = the workload does not enter the layer)\n%-36s %-8s", "metric", "unit")
		for _, wl := range Workloads() {
			fmt.Fprintf(w, " %12s", strings.TrimSuffix(strings.Replace(wl, "local-", "l-", 1), "-mixed"))
		}
		fmt.Fprintln(w)
		for _, m := range spec.PerLayer {
			fmt.Fprintf(w, "%-36s %-8s", m.Name, m.Unit)
			for _, wl := range Workloads() {
				if r := f.traced(wl); r != nil {
					fmt.Fprintf(w, " %12.5g", r.Metrics[m.Name].Value)
				}
			}
			fmt.Fprintln(w)
		}
	}
}
