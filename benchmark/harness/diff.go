package harness

import (
	"fmt"
	"io"
)

// DiffRow compares one end-to-end metric of one workload between two
// result sets.
type DiffRow struct {
	Workload, Metric, Unit string
	Old, New               float64 // medians over the runs
	OldSpread, NewSpread   float64 // interquartile range / median
	Worse                  float64 // how much worse New is, as a share of Old; negative = better
	Bound                  float64
	Verdict                string // ok, REGRESSION or unresolved
}

// counted are per-layer metrics that count work rather than time it.
// The same code on the same seed must repeat them exactly, or within tol
// where the program itself does not: where the budgeted map-side combiner
// flushes depends on timing, which moves spilled bytes in the seventh
// digit from op to op.
var counted = []struct {
	name string
	tol  float64
}{
	{"dataflow.shuffled_bytes_op", 0}, {"dataflow.stages_op", 0}, {"spill.spilled_bytes_op", 1e-5},
	{"cluster.wire_bytes_op", 0}, {"cluster.wire_raw_bytes_op", 0}, {"server.plan_cache_misses", 0},
}

// Diff applies the bounds of spec to old against new. A metric whose
// median got worse by more than its bound is a regression. When the
// runs of either side spread wider than the bound, the medians cannot
// carry that verdict: the row is unresolved, unless every new run is
// better than every old one. Comparing two sets from the same commit is
// the A/A check: every row should read ok.
func Diff(spec *Spec, old, new *ResultFile) []DiffRow {
	var rows []DiffRow
	for _, wl := range Workloads() {
		for _, m := range spec.EndToEnd {
			a, b := old.values(wl, m.Name), new.values(wl, m.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			r := DiffRow{Workload: wl, Metric: m.Name, Unit: m.Unit, Old: median(a), New: median(b),
				OldSpread: spread(a), NewSpread: spread(b), Bound: m.Bound, Verdict: "ok"}
			sign := 1.0
			if m.Better == "higher" {
				sign = -1
			}
			if r.Old != 0 {
				r.Worse = sign * (r.New - r.Old) / r.Old
			}
			noisy := r.OldSpread > m.Bound || r.NewSpread > m.Bound
			switch {
			case noisy && !allBetter(a, b, sign):
				r.Verdict = "unresolved"
			case !noisy && r.Worse > m.Bound:
				r.Verdict = "REGRESSION"
			}
			rows = append(rows, r)
		}
	}
	return rows
}

// allBetter reports whether every new value beats every old one.
func allBetter(old, new []float64, sign float64) bool {
	for _, b := range new {
		for _, a := range old {
			if sign*(b-a) >= 0 {
				return false
			}
		}
	}
	return true
}

func failedOps(f *ResultFile) (failed, attempted int) {
	for _, r := range f.Untraced {
		failed += r.Failed
		attempted += r.Attempted
	}
	return failed, attempted
}

// PrintDiff writes the comparison and reports whether new regressed: a
// metric beyond its bound, more failed ops than old, or a count that
// differs.
func PrintDiff(w io.Writer, spec *Spec, old, new *ResultFile) (regressed bool) {
	fmt.Fprintf(w, "old: commit %s, %d run(s) of %gs per workload, seeds from %d\n", old.Env.Commit, old.Runs, old.Seconds, old.Seed)
	fmt.Fprintf(w, "new: commit %s, %d run(s) of %gs per workload, seeds from %d\n\n", new.Env.Commit, new.Runs, new.Seconds, new.Seed)
	fmt.Fprintf(w, "%-18s %-10s %-4s %12s %12s %8s %8s %8s %7s  %s\n",
		"workload", "metric", "unit", "old median", "new median", "worse", "spr.old", "spr.new", "bound", "verdict")
	counts := map[string]int{}
	for _, r := range Diff(spec, old, new) {
		fmt.Fprintf(w, "%-18s %-10s %-4s %12.5g %12.5g %+7.2f%% %7.2f%% %7.2f%% %6.1f%%  %s\n",
			r.Workload, r.Metric, r.Unit, r.Old, r.New, 100*r.Worse, 100*r.OldSpread, 100*r.NewSpread, 100*r.Bound, r.Verdict)
		counts[r.Verdict]++
	}
	of, oa := failedOps(old)
	nf, na := failedOps(new)
	fmt.Fprintf(w, "\nfailed ops: old %d of %d, new %d of %d\n", of, oa, nf, na)

	fmt.Fprintf(w, "\ncounts from the traced runs (the same code and seed repeat them)\n")
	differ := 0
	for _, wl := range Workloads() {
		a, b := old.traced(wl), new.traced(wl)
		if a == nil || b == nil {
			continue
		}
		for _, c := range counted {
			va, vb := a.Metrics[c.name].Value, b.Metrics[c.name].Value
			if va == 0 && vb == 0 {
				continue
			}
			mark := "identical"
			switch {
			case !relClose(va, vb, c.tol):
				mark = "DIFFERS"
				differ++
			case va != vb:
				mark = fmt.Sprintf("within %g", c.tol)
			}
			fmt.Fprintf(w, "  %-18s %-28s %16.0f %16.0f  %s\n", wl, c.name, va, vb, mark)
		}
	}
	regressed = counts["REGRESSION"] > 0 || nf > of || differ > 0
	fmt.Fprintf(w, "\n%d ok, %d unresolved (spread wider than the bound), %d regression(s), %d count(s) differ",
		counts["ok"], counts["unresolved"], counts["REGRESSION"], differ)
	if nf > of {
		fmt.Fprintf(w, ", more failed ops than before")
	}
	fmt.Fprintln(w)
	return regressed
}
