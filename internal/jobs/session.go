package jobs

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataflow"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/stats"
	"repro/internal/trace"
)

// ClusterSession runs SAC queries on a worker cluster through a
// driver, mirroring core.Session's query-then-metrics shape: Query
// submits the "sac.query" program and Metrics returns the last job's
// aggregated counters — cluster-merged per-stage rows (PerStage),
// every rank's own rows (WorkerStages), and one PerWorker row per
// rank — which also makes it a debug.Source, so `sac -cluster -debug`
// serves the same live endpoints as local mode. Each run's measured
// profile is recorded in a driver-side stats cache keyed like
// core.Session's, so repeated queries observe their history.
type ClusterSession struct {
	driver  *cluster.Driver
	base    QueryParams
	timeout time.Duration
	stats   *stats.Cache

	mu        sync.Mutex
	last      dataflow.MetricsSnapshot
	lastTrace *trace.Tracer
}

// NewClusterSession wraps a driver. base supplies the input-generation
// and planner parameters every query shares (Src is per-query).
func NewClusterSession(d *cluster.Driver, base QueryParams, timeout time.Duration) *ClusterSession {
	if timeout <= 0 {
		timeout = 10 * time.Minute
	}
	return &ClusterSession{driver: d, base: base, timeout: timeout, stats: stats.NewCache()}
}

// Query runs one SAC query on the cluster and returns the canonical
// result blob (see EncodeResult / FormatResult) plus the run detail.
// Span recording follows the session's base.Trace flag.
func (cs *ClusterSession) Query(src string) ([]byte, *cluster.RunResult, error) {
	p := cs.base
	p.Src = src
	run, _, err := cs.run(p)
	if err != nil {
		return nil, nil, err
	}
	return run.Result, run, nil
}

// Analyze is the cluster's EXPLAIN ANALYZE: it runs the query with
// tracing forced on and renders totals, the cluster-merged stage
// table (skew and straggler warnings naming workers), the per-worker
// rows, and the merged span tree with one lane per rank.
func (cs *ClusterSession) Analyze(src string) (string, error) {
	p := cs.base
	p.Src = src
	p.Trace = true
	run, snap, err := cs.run(p)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "result: %s\n", FormatResult(run.Result))
	fmt.Fprintf(&b, "totals: %s\n\nstages:\n", snap)
	b.WriteString(snap.FormatStages())
	if tr := run.MergedTrace(); tr != nil {
		b.WriteString("\ntrace:\n")
		b.WriteString(tr.Tree())
	}
	return b.String(), nil
}

// run submits one job and folds its results into the session state.
func (cs *ClusterSession) run(p QueryParams) (*cluster.RunResult, dataflow.MetricsSnapshot, error) {
	// The stats-cache key is the same canonical rendering plan.Compile
	// keys on, so driver-side observations line up with compiler-side
	// lookups; a source that does not parse fails here, before any rank
	// is asked to run it.
	key, err := plan.CanonicalKey(p.Src)
	if err != nil {
		return nil, dataflow.MetricsSnapshot{}, err
	}
	start := time.Now()
	run, err := cs.driver.Run(QueryName, p.Encode(), cs.timeout)
	if err != nil {
		return nil, dataflow.MetricsSnapshot{}, err
	}
	snap := snapshotFrom(run, cs.driver.Workers())
	cs.mu.Lock()
	cs.last = snap
	cs.lastTrace = run.MergedTrace()
	cs.mu.Unlock()
	cs.stats.Record(key, stats.FromSnapshot(snap, time.Since(start).Nanoseconds()))
	return run, snap, nil
}

// Metrics returns the last completed job's aggregated snapshot
// (zero-valued before the first query). Satisfies debug.Source.
func (cs *ClusterSession) Metrics() dataflow.MetricsSnapshot {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.last
}

// LastTrace returns the last job's merged cluster trace (one lane per
// rank), or nil when no rank shipped spans — tracing off, or no query
// yet. Render with Tree or export with WriteChrome.
func (cs *ClusterSession) LastTrace() *trace.Tracer {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.lastTrace
}

// StatsCache exposes the driver-side measured-statistics cache; each
// completed cluster query records its profile here under the same
// canonical key core.Session uses.
func (cs *ClusterSession) StatsCache() *stats.Cache { return cs.stats }

// snapshotFrom folds per-worker reports into the cluster-wide
// snapshot: the ranks' counter sets merged by the schema's rules (sums;
// high-water marks take the largest), one PerWorker row per rank
// annotated with the driver's liveness view, every
// telemetry-reporting rank's stage rows (WorkerStages, each stamped
// with its worker), and the cluster-merged stage table (PerStage).
func snapshotFrom(run *cluster.RunResult, infos []cluster.WorkerInfo) dataflow.MetricsSnapshot {
	alive := make(map[string]bool, len(infos))
	for _, wi := range infos {
		alive[wi.ID] = wi.Alive
	}
	var snap dataflow.MetricsSnapshot
	for _, wr := range run.Workers {
		snap.CounterSet = obs.MergeCounters(snap.CounterSet, wr.Report)
		snap.PerWorker = append(snap.PerWorker, dataflow.WorkerStat{
			ID: wr.ID, Addr: wr.Addr, Rank: wr.Rank,
			Alive: alive[wr.ID], Lost: wr.Lost, CounterSet: wr.Report})
		for _, row := range wr.Telemetry.Stages {
			row.Worker = wr.ID
			snap.WorkerStages = append(snap.WorkerStages, row)
		}
	}
	if len(snap.WorkerStages) > 0 {
		snap.PerStage = dataflow.MergeStageRows(snap.WorkerStages)
	}
	return snap
}
