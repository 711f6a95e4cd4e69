package plan

import (
	"repro/internal/comp"
	"repro/internal/sacparser"
	"repro/internal/stats"
)

// This file gives admission control (internal/server) a peak-resident
// proxy for a compiled query before it runs: what the engine would
// have to hold if nothing spilled. It deliberately over-approximates —
// the spill subsystem makes execution beyond the budget *possible*,
// admission control makes it *polite* — so the estimate counts every
// input the query reads, the chosen strategy's shuffle and temp
// volume, and the built output.

// CanonicalKey is a query's cache key, computed from its source without
// compiling it: parse, desugar, render — the rendering of the expression
// a Compiled plan holds. Whitespace and sugar variants of one query
// share a key; structurally different queries render differently. The
// server's plan cache keys a source string by it; the error is the
// parse error.
func CanonicalKey(src string) (string, error) {
	e, err := sacparser.Parse(src)
	if err != nil {
		return "", err
	}
	return comp.Desugar(e).String(), nil
}

// InputStats returns the size statistics of every catalog array the
// query's generators read (arrays the catalog cannot size are skipped).
func (q *Compiled) InputStats() []stats.TableStats {
	if q.info == nil {
		return nil
	}
	seen := map[string]bool{}
	var out []stats.TableStats
	for _, g := range q.info.Gens {
		if seen[g.Name] {
			continue
		}
		seen[g.Name] = true
		if ts, ok := q.cat.ArrayStats(g.Name); ok {
			out = append(out, ts)
		}
	}
	return out
}

// outputBytes prices the built result from the builder dimensions
// (dense float64 payload); rdd/list/scalar results are priced at zero —
// their size is query-dependent and usually dominated by the inputs.
func (q *Compiled) outputBytes() int64 {
	if q.builder != "tiled" && q.builder != "tiledvec" {
		return 0
	}
	n := int64(8)
	for _, d := range q.dims {
		if d > 0 {
			n *= d
		}
	}
	return n
}

// EstimateFootprintBytes is the admission-control estimate: resident
// inputs + the cost model's shuffle and temp volume for the chosen
// strategy + the materialized output. Once the plan has run, its last
// run's shuffle volume replaces the estimate if larger, so a cached plan
// is admitted on what it moved, not on guesswork.
func (q *Compiled) EstimateFootprintBytes() int64 {
	var total int64
	for _, ts := range q.InputStats() {
		total += ts.TotalBytes()
	}
	var moved int64
	if d := q.Decision(); d != nil {
		moved = d.Chosen.ShuffleBytes + d.Chosen.TempBytes
	}
	moved = max(moved, q.observed().ShuffledBytes)
	return total + moved + q.outputBytes()
}
