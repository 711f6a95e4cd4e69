package dataflow

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/memory"
	"repro/internal/obs"
)

// Metrics accumulates engine counters: the scalar counters of the
// schema (obs.Counters; tasks bump them atomically and concurrently)
// plus the per-stage records.
type Metrics struct {
	c obs.LiveCounters

	stagesInFlight atomic.Int64

	mu       sync.Mutex // guards the record log
	perStage []StageMetric
}

// Dist and StageMetric are declared beside the counter schema, with
// their wire form.
type (
	Dist        = obs.Dist
	StageMetric = obs.StageMetric
)

// summarizeDist computes a Dist over vals[i] for the indices i that ran,
// ran[i] > 0, where index i is task or partition i. It packs and sorts
// vals in place — callers recycle or discard the slice afterwards, so the
// reorder never escapes. ran may be vals itself, but is then packed too.
func summarizeDist(vals, ran []int64) Dist {
	var d Dist
	for i, v := range vals {
		if i >= len(ran) || ran[i] == 0 {
			continue
		}
		if d.N == 0 || v < d.Min {
			d.Min = v
		}
		if d.N == 0 || v > d.Max {
			d.Max, d.ArgMax = v, i
		}
		vals[d.N] = v
		d.N++
	}
	if d.N == 0 {
		return Dist{}
	}
	vals = vals[:d.N]
	slices.Sort(vals)
	rank := func(p int) int64 { // nearest-rank percentile
		idx := (len(vals)*p + 99) / 100
		if idx < 1 {
			idx = 1
		}
		return vals[idx-1]
	}
	d.P50, d.P99 = rank(50), rank(99)
	return d
}

// mergeDist folds two distribution summaries from disjoint sample
// sets into one approximate summary: counts sum, extremes combine
// exactly (ArgMax follows the larger Max), P50 is the N-weighted
// average of the halves' medians, and P99 is the larger of the two —
// conservative in the direction that matters for skew detection. The
// exact percentiles would need the raw samples, which never leave the
// workers.
func mergeDist(a, b Dist) Dist {
	if a.N == 0 {
		return b
	}
	if b.N == 0 {
		return a
	}
	out := Dist{N: a.N + b.N, Min: min(a.Min, b.Min), Max: a.Max, ArgMax: a.ArgMax}
	if b.Max > a.Max {
		out.Max, out.ArgMax = b.Max, b.ArgMax
	}
	out.P50 = (a.P50*int64(a.N) + b.P50*int64(b.N)) / int64(a.N+b.N)
	out.P99 = max(a.P99, b.P99)
	return out
}

// MergeStageRows folds per-worker copies of the same SPMD stages into
// cluster-wide rows, keyed by (ID, Name) in first-seen order. Counts
// sum across ranks; Wall is the maximum (ranks run the stage
// concurrently, so the slowest rank is the stage's cluster wall);
// Start is the earliest; distributions merge via mergeDist; Worker
// names the rank that contributed the slowest task.
func MergeStageRows(rows []StageMetric) []StageMetric {
	type key struct {
		id   int64
		name string
	}
	idx := make(map[key]int)
	var out []StageMetric
	for _, r := range rows {
		k := key{r.ID, r.Name}
		i, ok := idx[k]
		if !ok {
			idx[k] = len(out)
			out = append(out, r)
			continue
		}
		m := &out[i]
		if r.TaskDur.Max > m.TaskDur.Max {
			m.Worker = r.Worker
		}
		if !r.Start.IsZero() && (m.Start.IsZero() || r.Start.Before(m.Start)) {
			m.Start = r.Start
		}
		m.Wall = max(m.Wall, r.Wall)
		m.Tasks += r.Tasks
		m.RecordsIn += r.RecordsIn
		m.RecordsOut += r.RecordsOut
		m.ShuffledBytes += r.ShuffledBytes
		m.TaskDur = mergeDist(m.TaskDur, r.TaskDur)
		m.PartRecords = mergeDist(m.PartRecords, r.PartRecords)
	}
	return out
}

// MetricsSnapshot is an immutable copy of the metrics: the counter set
// (promoted, so snap.Tasks reads as before) and the records. The records
// of a context's snapshot share its logs: no reader may write to a row.
type MetricsSnapshot struct {
	obs.CounterSet
	// PerStage lists every completed stage in completion order with its
	// wall time, task count, records in/out, shuffled bytes, and
	// task-duration / records-per-partition distributions.
	PerStage []StageMetric
	// PerWorker, on cluster-driver snapshots, lists one row per worker
	// that participated in the last job; empty on local contexts and on
	// the workers themselves.
	PerWorker []WorkerStat
	// WorkerStages, on cluster-driver snapshots, holds every rank's
	// per-stage rows (Worker set on each) in rank order; PerStage then
	// carries the cluster-merged view (MergeStageRows). Empty on local
	// contexts.
	WorkerStages []StageMetric
}

// WorkerStat is one worker's row of a distributed job's metrics: the
// counter set that worker reported plus its liveness as seen by the
// driver.
type WorkerStat struct {
	ID   string // worker-supplied identity (host:pid by default)
	Addr string // shuffle-serving address
	Rank int    // rank in the last job
	// Alive is the driver's heartbeat-based liveness view; a worker
	// that was SIGKILLed mid-job reports false with its partial row.
	Alive bool
	// Lost marks a worker that died before reporting: its row carries
	// no counters, and its tasks were resubmitted on surviving ranks.
	Lost bool
	obs.CounterSet
}

// noteStageStart tracks the in-flight stage gauge and its high-water
// mark.
func (m *Metrics) noteStageStart() {
	cur := m.stagesInFlight.Add(1)
	for {
		max := m.c.MaxConcurrentStages.Load()
		if cur <= max || m.c.MaxConcurrentStages.CompareAndSwap(max, cur) {
			return
		}
	}
}

// noteStageEnd decrements the in-flight stage gauge.
func (m *Metrics) noteStageEnd() { m.stagesInFlight.Add(-1) }

// recordStage appends a completed stage's record.
func (m *Metrics) recordStage(s StageMetric) {
	m.mu.Lock()
	m.perStage = append(m.perStage, s)
	m.mu.Unlock()
}

// noteSpill credits one spill event: bytes and rows written across
// files new run files.
func (m *Metrics) noteSpill(bytes, rows, files int64) {
	m.c.SpilledBytes.Add(bytes)
	m.c.SpilledRecords.Add(rows)
	m.c.SpillFiles.Add(files)
}

// Snapshot copies the counters and takes the records as they stand: the
// logs are only ever appended to (Reset starts new ones), so the rows up
// to their current lengths never change, and a snapshot costs the same
// however many stages the context has run.
func (m *Metrics) Snapshot() MetricsSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	return MetricsSnapshot{
		CounterSet: m.c.Snapshot(),
		PerStage:   slices.Clip(m.perStage),
	}
}

// Reset zeroes all counters except the level gauges (cached bytes
// tracks live Persist caches rather than work done), resetHeld with
// them, and drops the records.
func (m *Metrics) Reset(resetHeld func()) {
	m.c.Reset(resetHeld)
	m.mu.Lock()
	m.perStage = nil
	m.mu.Unlock()
}

// String formats the snapshot as a single diagnostics line.
func (s MetricsSnapshot) String() string {
	out := fmt.Sprintf("tasks=%d stages=%d shuffles=%d shuffledRecords=%d shuffledBytes=%d",
		s.Tasks, s.Stages, s.Shuffles, s.ShuffledRecords, s.ShuffledBytes)
	if s.SpilledBytes > 0 || s.SpillFiles > 0 {
		out += fmt.Sprintf(" spilledBytes=%d spillFiles=%d mergePasses=%d",
			s.SpilledBytes, s.SpillFiles, s.MergePasses)
	}
	if s.RemoteFetches > 0 || s.FetchFailures > 0 || s.Resubmissions > 0 {
		out += fmt.Sprintf(" remoteFetches=%d fetchFailures=%d resubmissions=%d",
			s.RemoteFetches, s.FetchFailures, s.Resubmissions)
	}
	return out
}

// FormatStages renders the per-stage execution table: one row per
// completed stage with wall time, tasks, records in/out, shuffled
// bytes, and the task-duration distribution (p50/p99/skew). Stages
// whose skew exceeds obs.DefaultSkewThreshold are flagged below the table
// with the suspect partition.
func (s MetricsSnapshot) FormatStages() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%4s  %-34s %12s %7s %12s %12s %12s %10s %10s %6s\n",
		"id", "stage", "wall", "tasks", "recordsIn", "recordsOut", "shufBytes", "taskP50", "taskP99", "skew")
	for _, st := range s.PerStage {
		name := st.Name
		if len(name) > 34 {
			name = name[:31] + "..."
		}
		p50, p99, skew := "-", "-", "-"
		if st.TaskDur.N > 0 {
			p50 = time.Duration(st.TaskDur.P50).Round(time.Microsecond).String()
			p99 = time.Duration(st.TaskDur.P99).Round(time.Microsecond).String()
			skew = fmt.Sprintf("%.1f", st.TaskDur.Skew())
		}
		fmt.Fprintf(&b, "%4d  %-34s %12s %7d %12d %12d %12d %10s %10s %6s\n",
			st.ID, name, st.Wall.Round(time.Microsecond), st.Tasks,
			st.RecordsIn, st.RecordsOut, st.ShuffledBytes, p50, p99, skew)
	}
	for _, w := range s.SkewWarnings(0) {
		fmt.Fprintf(&b, "warning: %s\n", w)
	}
	for _, w := range s.StragglerWarnings(0) {
		fmt.Fprintf(&b, "warning: %s\n", w)
	}
	fmt.Fprintf(&b, "max concurrent stages: %d\n", s.MaxConcurrentStages)
	if gets := s.PoolHits + s.PoolMisses; gets > 0 {
		fmt.Fprintf(&b, "tile pool: %d/%d gets reused (%.0f%%), %d returned\n",
			s.PoolHits, gets, 100*float64(s.PoolHits)/float64(gets), s.PoolReturns)
	}
	if s.SpillFiles > 0 || s.SpilledBytes > 0 {
		fmt.Fprintf(&b, "spill: %s in %d files (%d rows), %d merge passes, %d budget waits\n",
			memory.FormatBytes(s.SpilledBytes), s.SpillFiles, s.SpilledRecords,
			s.MergePasses, s.BudgetWaits)
	}
	if s.MemoryBudget > 0 {
		fmt.Fprintf(&b, "memory: budget %s, used %s, peak %s, %d overcommits\n",
			memory.FormatBytes(s.MemoryBudget), memory.FormatBytes(s.MemoryUsed),
			memory.FormatBytes(s.MemoryPeak), s.MemoryOvercommits)
	}
	if s.RemoteFetches > 0 || s.FetchFailures > 0 || s.Resubmissions > 0 ||
		s.WireFetchedBytes > 0 || s.FetchRetries > 0 || s.FetchGoneEvents > 0 {
		line := fmt.Sprintf("cluster: %d remote fetches (%s), %d fetch failures, %d resubmissions",
			s.RemoteFetches, memory.FormatBytes(s.WireRawBytes),
			s.FetchFailures, s.Resubmissions)
		if s.WireFetchedBytes > 0 {
			line += fmt.Sprintf(", %s on the wire", memory.FormatBytes(s.WireFetchedBytes))
		}
		if s.ChunksFetched > 0 {
			line += fmt.Sprintf(", %d chunks", s.ChunksFetched)
		}
		if gets := s.ConnPoolHits + s.ConnPoolMisses; gets > 0 {
			line += fmt.Sprintf(", %d/%d conns reused", s.ConnPoolHits, gets)
		}
		if s.FetchRetries > 0 {
			line += fmt.Sprintf(", %d fetch retries", s.FetchRetries)
		}
		if s.FetchGoneEvents > 0 {
			line += fmt.Sprintf(", %d buckets gone", s.FetchGoneEvents)
		}
		b.WriteString(line + "\n")
	}
	if len(s.PerWorker) > 0 {
		b.WriteString(s.FormatWorkers())
	}
	return b.String()
}

// FormatWorkers renders the per-worker rows of a distributed job: one
// line per worker with its reported engine counters, the bytes of the
// result it sent the driver, the input partitions
// it keeps resident (with this job's reads of them: found / generated),
// and liveness. Empty snapshots render an empty string.
func (s MetricsSnapshot) FormatWorkers() string {
	if len(s.PerWorker) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%4s  %-22s %-6s %7s %8s %12s %12s %9s %10s %8s %12s %10s %10s %9s\n",
		"rank", "worker", "state", "tasks", "stages", "shufRecords", "shufBytes",
		"fetches", "result", "resub", "wall", "memPeak", "resident", "hit/miss")
	for _, w := range s.PerWorker {
		state := "alive"
		switch {
		case w.Lost:
			state = "lost"
		case !w.Alive:
			state = "dead"
		}
		name := w.ID
		if len(name) > 22 {
			name = name[:19] + "..."
		}
		if w.Lost {
			fmt.Fprintf(&b, "%4d  %-22s %-6s %7s %8s %12s %12s %9s %10s %8s %12s %10s %10s %9s\n",
				w.Rank, name, state, "-", "-", "-", "-", "-", "-", "-", "-", "-", "-", "-")
			continue
		}
		fmt.Fprintf(&b, "%4d  %-22s %-6s %7d %8d %12d %12d %9d %10s %8d %12s %10s %10s %9s\n",
			w.Rank, name, state, w.Tasks, w.Stages, w.ShuffledRecords, w.ShuffledBytes,
			w.RemoteFetches, memory.FormatBytes(w.ResultBytes), w.Resubmissions,
			time.Duration(w.WallNanos).Round(time.Millisecond), memory.FormatBytes(w.MemoryPeak),
			memory.FormatBytes(w.ResidentBytes), fmt.Sprintf("%d/%d", w.ResidentHits, w.ResidentMisses))
	}
	return b.String()
}

// SkewWarnings lists the per-stage skew diagnoses whose task-duration
// p99/p50 exceeds threshold (<= 0 uses obs.DefaultSkewThreshold), each
// naming the suspect partition. This is the hook skew-mitigation work
// builds on.
func (s MetricsSnapshot) SkewWarnings(threshold float64) []string {
	var out []string
	for _, st := range s.PerStage {
		if w, ok := st.SkewWarning(threshold); ok {
			out = append(out, w)
		}
	}
	return out
}

// DefaultStragglerThreshold is the per-stage wall-time ratio (slowest
// rank over median rank) above which a whole worker is flagged as the
// stage's straggler.
const DefaultStragglerThreshold = 2.0

// StragglerWarnings compares each stage's wall time across ranks
// (WorkerStages, so cluster snapshots only) and reports the stages
// where one worker ran the stage more than threshold times longer than
// the median rank (<= 0 uses DefaultStragglerThreshold). Task-level
// skew (SkewWarnings) catches a hot partition; this catches a slow or
// overloaded *machine*, which looks fine partition-by-partition but
// drags every stage it touches.
func (s MetricsSnapshot) StragglerWarnings(threshold float64) []string {
	if threshold <= 0 {
		threshold = DefaultStragglerThreshold
	}
	type key struct {
		id   int64
		name string
	}
	order := []key{}
	byStage := map[key][]StageMetric{}
	for _, st := range s.WorkerStages {
		k := key{st.ID, st.Name}
		if _, ok := byStage[k]; !ok {
			order = append(order, k)
		}
		byStage[k] = append(byStage[k], st)
	}
	var out []string
	for _, k := range order {
		rows := byStage[k]
		if len(rows) < 2 {
			continue
		}
		walls := make([]int64, len(rows))
		slowest := 0
		for i, r := range rows {
			walls[i] = int64(r.Wall)
			if r.Wall > rows[slowest].Wall {
				slowest = i
			}
		}
		slices.Sort(walls)
		median := walls[len(walls)/2]
		if median == 0 {
			continue
		}
		ratio := float64(rows[slowest].Wall) / float64(median)
		if ratio <= threshold {
			continue
		}
		out = append(out, fmt.Sprintf(
			"straggler: stage %d %s took %s on worker %s, %.1fx the median rank (%s)",
			k.id, k.name, rows[slowest].Wall.Round(time.Microsecond),
			rows[slowest].Worker, ratio,
			time.Duration(median).Round(time.Microsecond)))
	}
	return out
}

// Sub returns the difference s - t, useful to meter one query when the
// context is reused: take t before, s after, and Sub reports only the
// work in between. Counters diff by the schema's rules (obs.SubCounters:
// high-water marks and level gauges are taken from s). PerStage keeps
// only the stages completed after t (the first len(t.PerStage) rows are
// dropped), and MaxConcurrentStages is recomputed over just those
// stages by sweeping their [Start, Start+Wall] intervals — the
// snapshots' own field is a since-reset high-water mark that may
// predate t.
func (s MetricsSnapshot) Sub(t MetricsSnapshot) MetricsSnapshot {
	s.CounterSet = obs.SubCounters(s.CounterSet, t.CounterSet)
	s.PerStage = s.PerStage[min(len(t.PerStage), len(s.PerStage)):]
	s.MaxConcurrentStages = maxOverlap(s.PerStage)
	return s
}

// maxOverlap sweeps the stages' [Start, Start+Wall] intervals and
// returns the largest number running at once.
func maxOverlap(stages []StageMetric) int64 {
	type edge struct {
		at    time.Time
		delta int64
	}
	edges := make([]edge, 0, 2*len(stages))
	for _, st := range stages {
		if st.Start.IsZero() {
			continue
		}
		edges = append(edges, edge{st.Start, +1}, edge{st.Start.Add(st.Wall), -1})
	}
	sort.Slice(edges, func(i, j int) bool {
		if !edges[i].at.Equal(edges[j].at) {
			return edges[i].at.Before(edges[j].at)
		}
		return edges[i].delta < edges[j].delta // close before open at ties
	})
	var cur, max int64
	for _, e := range edges {
		cur += e.delta
		if cur > max {
			max = cur
		}
	}
	return max
}
