package jobs

import (
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/sacparser"
	"repro/internal/stats"
)

// ClusterSession is the cluster core.Backend: it runs SAC queries on a
// worker cluster through a driver. It owns its planner — a core.Session
// built from the same QueryParams, by the same registerInputs, at the
// same partition count as the session every rank builds — so a plan
// preview, a footprint estimate and a plan-cache key are about the plan
// the ranks execute. Metrics returns the last job's aggregated counters
// — cluster-merged per-stage rows (PerStage), every rank's own rows
// (WorkerStages), and one PerWorker row per rank. Run records each
// run's measured profile on the plan it ran. Safe for concurrent use.
type ClusterSession struct {
	driver  *cluster.Driver
	planner *core.Session
	base    QueryParams
	timeout time.Duration

	mu   sync.Mutex
	last dataflow.MetricsSnapshot
}

var _ core.Backend = (*ClusterSession)(nil)

// NewClusterSession wraps a driver whose workers have registered. base
// supplies the input-generation and planner parameters every query
// shares (Src is per-query); a zero Partitions is fixed here, from the
// live world size, for the planner and for every job alike, and the
// planner sizes the group-by-join's grid to that world, as the ranks do.
func NewClusterSession(d *cluster.Driver, base QueryParams, timeout time.Duration) *ClusterSession {
	if timeout <= 0 {
		timeout = 10 * time.Minute
	}
	world := 0
	for _, w := range d.Workers() {
		if w.Alive {
			world++
		}
	}
	conf := base.sessionConfig(world)
	base.Partitions = int64(conf.Partitions)
	planner := core.NewSession(conf)
	planner.PlanFor(world)
	registerInputs(planner, base)
	return &ClusterSession{driver: d, planner: planner, base: base, timeout: timeout}
}

// Connect is the driver bring-up sac and sacserver share: listen on addr
// for sacworker registrations, wait for workers of them, report progress
// through logf, and wrap the driver in a session that owns it.
func Connect(addr string, workers int, wait time.Duration, base QueryParams, logf func(format string, args ...any)) (*ClusterSession, error) {
	d, err := cluster.NewDriver(cluster.DriverConfig{Addr: addr})
	if err != nil {
		return nil, err
	}
	logf("cluster driver: listening on %s, waiting for %d worker(s)", d.Addr(), workers)
	if err := d.WaitForWorkers(workers, wait); err != nil {
		d.Close()
		return nil, err
	}
	for _, wi := range d.Workers() {
		logf("  worker %s (shuffle data at %s)", wi.ID, wi.DataAddr)
	}
	return NewClusterSession(d, base, 0), nil
}

// Close disconnects the workers and releases the planner.
func (cs *ClusterSession) Close() error {
	cs.driver.Close()
	return cs.planner.Close()
}

// Compile plans src on the driver, against the catalog the ranks will
// rebuild.
func (cs *ClusterSession) Compile(src string) (*plan.Compiled, error) {
	return cs.planner.Compile(src)
}

// Run implements core.Backend: the ranks compile src themselves (q is
// the driver's copy of the plan they will choose), the result summary is
// decoded from the blob they agreed on, and a traced run merges every
// rank's spans, one lane each.
func (cs *ClusterSession) Run(q *plan.Compiled, src string, traced bool) (*core.Outcome, error) {
	p := cs.base
	p.Src = src
	p.Trace = p.Trace || traced
	run, snap, wall, err := cs.submit(p)
	out := &core.Outcome{Plan: q, Metrics: snap, Wall: wall}
	if run != nil {
		out.Trace = run.MergedTrace()
	}
	if err != nil {
		return out, err
	}
	q.NoteObserved(stats.FromSnapshot(snap, wall.Nanoseconds()))
	out.Summary = SummarizeBlob(run.Result)
	return out, nil
}

// Query runs one SAC query on the cluster and returns the canonical
// result blob (see EncodeResult / SummarizeBlob) plus the run detail,
// without planning it on the driver. Span recording follows the
// session's base.Trace flag.
func (cs *ClusterSession) Query(src string) ([]byte, *cluster.RunResult, error) {
	// A source that does not parse fails here, before any rank is asked
	// to run it.
	if _, err := sacparser.Parse(src); err != nil {
		return nil, nil, err
	}
	p := cs.base
	p.Src = src
	run, _, _, err := cs.submit(p)
	if err != nil {
		return nil, nil, err
	}
	return run.Result, run, nil
}

// submit runs one job and, once it has settled, makes its merged
// snapshot what Metrics returns. A job that failed after its ranks
// replied is folded too, and comes back beside the error.
func (cs *ClusterSession) submit(p QueryParams) (*cluster.RunResult, dataflow.MetricsSnapshot, time.Duration, error) {
	start := time.Now()
	run, err := cs.driver.Run(QueryName, p.Encode(), cs.timeout)
	if run == nil {
		return nil, dataflow.MetricsSnapshot{}, time.Since(start), err
	}
	snap := snapshotFrom(run, cs.driver.Workers())
	cs.mu.Lock()
	cs.last = snap
	cs.mu.Unlock()
	return run, snap, time.Since(start), err
}

// Metrics returns the last completed job's aggregated snapshot
// (zero-valued before the first query).
func (cs *ClusterSession) Metrics() dataflow.MetricsSnapshot {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.last
}

// snapshotFrom folds per-worker reports into the cluster-wide
// snapshot: the ranks' counter sets merged by the schema's rules (sums;
// high-water marks take the largest), one PerWorker row per rank
// annotated with the driver's liveness view, every replying rank's
// stage rows (WorkerStages, each stamped with its worker), and the
// cluster-merged stage table (PerStage).
// Resubmissions is the run's, summed over every attempt.
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
	// A re-run keeps only the last attempt's rows; the recomputation the
	// first attempt's survivors did is in the run's total.
	snap.Resubmissions = run.Resubmissions
	return snap
}
