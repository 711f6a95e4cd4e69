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
)

// Metrics accumulates engine counters. All fields are updated atomically
// by tasks running concurrently.
type Metrics struct {
	tasks            atomic.Int64
	taskFailures     atomic.Int64
	stages           atomic.Int64
	shuffles         atomic.Int64
	shuffledRecords  atomic.Int64
	shuffledBytes    atomic.Int64
	collectedRecords atomic.Int64
	cachedBytes      atomic.Int64

	// Out-of-core counters: rows/bytes written to spill run files (by
	// shuffle buffers and evicted caches), run files created, and
	// read-back passes over spilled partitions.
	spilledBytes   atomic.Int64
	spilledRecords atomic.Int64
	spillFiles     atomic.Int64
	mergePasses    atomic.Int64

	// Cluster counters (all zero on local contexts): shuffle blobs and
	// bytes fetched from peer workers, fetches that failed because the
	// owning peer died, and map tasks resubmitted — recomputed locally
	// from lineage — to cover for lost peers.
	remoteFetches      atomic.Int64
	remoteFetchedBytes atomic.Int64
	fetchFailures      atomic.Int64
	resubmissions      atomic.Int64

	// Adaptive-boundary counters: shuffle map-sides whose buckets were
	// rebalanced, and the records / whole key groups moved out of hot
	// buckets. Zero when AdaptiveShuffle is off.
	adaptiveRebalances   atomic.Int64
	adaptiveMovedRecords atomic.Int64
	adaptiveMovedGroups  atomic.Int64

	stagesInFlight atomic.Int64
	maxInFlight    atomic.Int64

	stageMu  sync.Mutex
	perStage []StageMetric

	adaptiveMu     sync.Mutex
	adaptiveEvents []AdaptiveEvent
}

// Dist is a compact distribution summary of one per-task quantity
// within a stage (nearest-rank percentiles over all samples).
type Dist struct {
	N                  int
	Min, P50, P99, Max int64
	// ArgMax is the task/partition index that produced Max — the
	// suspect to look at when the distribution is lopsided.
	ArgMax int
}

// Skew is the p99/p50 ratio, the stage's headline skew statistic
// (0 when p50 is 0).
func (d Dist) Skew() float64 {
	if d.P50 == 0 {
		return 0
	}
	return float64(d.P99) / float64(d.P50)
}

// summarizeDist computes a Dist over vals, where index i is task or
// partition i. It sorts vals in place — callers recycle or discard the
// slice afterwards, so the reorder never escapes.
func summarizeDist(vals []int64) Dist {
	if len(vals) == 0 {
		return Dist{}
	}
	d := Dist{N: len(vals), Min: vals[0], Max: vals[0]}
	for i, v := range vals {
		if v < d.Min {
			d.Min = v
		}
		if v > d.Max {
			d.Max = v
			d.ArgMax = i
		}
	}
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

// StageMetric is the execution record of one completed stage.
// RecordsIn counts the records that reached the stage's sink (after the
// fused narrow-operator chain); RecordsOut counts the records the stage
// emitted across its boundary (shuffle rows written, or results handed
// to the driver).
type StageMetric struct {
	ID            int64
	Name          string
	Start         time.Time
	Wall          time.Duration
	Tasks         int64
	RecordsIn     int64
	RecordsOut    int64
	ShuffledBytes int64
	// Worker names the rank behind this row on distributed snapshots:
	// the owning rank on per-worker rows (WorkerStages), the rank that
	// contributed the slowest task on cluster-merged rows
	// (MergeStageRows). Empty on local runs.
	Worker string
	// TaskDur summarizes per-task wall time in nanoseconds; a p99 far
	// above p50 means one straggler task dominated the stage.
	TaskDur Dist
	// PartRecords summarizes input records per partition, exposing
	// data skew independently of compute skew.
	PartRecords Dist
}

// DefaultSkewThreshold is the task-duration p99/p50 ratio above which a
// stage is flagged as skewed.
const DefaultSkewThreshold = 4.0

// AdaptiveEvent records one adaptive stage-boundary rebalance: the
// records-per-partition distribution of the shuffle's buckets before
// and after, and the volume moved out of the hot (argmax) bucket.
type AdaptiveEvent struct {
	// Stage is the shuffle's name (e.g. "shuffle(reduceByKey)").
	Stage string
	// Before and After summarize records per reduce bucket around the
	// rebalance; Before.ArgMax is the hot bucket that was split.
	Before, After Dist
	// MovedRecords and MovedGroups count the rows and whole key groups
	// relocated from the hot bucket to the smallest ones.
	MovedRecords int64
	MovedGroups  int64
}

// SkewWarning reports a human-readable skew diagnosis when the stage's
// task-duration p99/p50 exceeds threshold (<= 0 uses
// DefaultSkewThreshold). Stages with fewer than two timed tasks cannot
// be skewed and never warn.
func (st StageMetric) SkewWarning(threshold float64) (string, bool) {
	if threshold <= 0 {
		threshold = DefaultSkewThreshold
	}
	if st.TaskDur.N < 2 {
		return "", false
	}
	r := st.TaskDur.Skew()
	if r <= threshold {
		return "", false
	}
	w := fmt.Sprintf("skew: stage %d %s task-duration p99/p50=%.1f (p50=%s p99=%s); suspect partition %d (slowest task, %s)",
		st.ID, st.Name, r,
		time.Duration(st.TaskDur.P50).Round(time.Microsecond),
		time.Duration(st.TaskDur.P99).Round(time.Microsecond),
		st.TaskDur.ArgMax,
		time.Duration(st.TaskDur.Max).Round(time.Microsecond))
	if st.Worker != "" {
		w += fmt.Sprintf(" on worker %s", st.Worker)
	}
	if st.PartRecords.N > 0 && st.PartRecords.Skew() > threshold {
		w += fmt.Sprintf("; hottest partition %d holds %d records (p50=%d)",
			st.PartRecords.ArgMax, st.PartRecords.Max, st.PartRecords.P50)
	}
	return w, true
}

// MetricsSnapshot is an immutable copy of the counters.
type MetricsSnapshot struct {
	Tasks            int64 // tasks completed successfully
	TaskFailures     int64 // injected/retried task failures
	Stages           int64 // stages executed (shuffle map-sides and actions)
	Shuffles         int64 // wide operations performed
	ShuffledRecords  int64 // records that crossed a shuffle boundary
	ShuffledBytes    int64 // estimated payload bytes shuffled
	CollectedRecords int64 // records returned to the driver
	CachedBytes      int64 // estimated bytes pinned by Persist caches
	// PoolHits / PoolMisses / PoolReturns are the context tile pool's
	// reuse gauges: Get calls served from the pool, Get calls that
	// allocated, and tiles handed back. A miss-heavy multiply is
	// allocating a fresh tile per output coordinate.
	PoolHits    int64
	PoolMisses  int64
	PoolReturns int64
	// SpilledBytes / SpilledRecords / SpillFiles count data written to
	// spill run files when the memory budget forced shuffle buffers or
	// Persist caches to disk; MergePasses counts the times a spilled
	// partition's runs were read back. All zero when
	// no budget is set — the out-of-core layer is idle.
	SpilledBytes   int64
	SpilledRecords int64
	SpillFiles     int64
	MergePasses    int64
	// BudgetWaits counts Reserve calls that had to block for other
	// holders to release; MemoryOvercommits counts grants issued over
	// budget to preserve liveness (stall grants and oversized single
	// requests). MemoryBudget/MemoryUsed/MemoryPeak are the manager's
	// live gauges (0 when unlimited).
	BudgetWaits       int64
	MemoryOvercommits int64
	MemoryBudget      int64
	MemoryUsed        int64
	MemoryPeak        int64
	// MaxConcurrentStages is the since-reset high-water mark of stages
	// executing simultaneously (>= 2 proves independent shuffle
	// map-sides, e.g. both sides of a join, overlapped). Sub recomputes
	// it over just the diffed stages.
	MaxConcurrentStages int64
	// RemoteFetches / RemoteFetchedBytes count shuffle blobs pulled
	// from peer workers; FetchFailures counts fetches that failed
	// because the owning peer was dead or unreachable; Resubmissions
	// counts map tasks recomputed locally from lineage to cover for a
	// lost peer. All zero on local (non-cluster) contexts.
	RemoteFetches      int64
	RemoteFetchedBytes int64
	FetchFailures      int64
	Resubmissions      int64
	// WireFetchedBytes / FetchRetries / FetchGoneEvents are the
	// wire-level shuffle counters reported by the cluster exchange:
	// bytes actually pulled over TCP, peer dials that had to be
	// retried, and FetchGone replies (a peer lost the bucket). Zero on
	// local contexts; on cluster-merged snapshots they sum the ranks'
	// reports.
	WireFetchedBytes int64
	FetchRetries     int64
	FetchGoneEvents  int64
	// Streaming data-plane counters: WireRawBytes is what the fetched
	// chunks decompress to (so WireRawBytes - WireFetchedBytes = bytes
	// compression kept off the network), WireChunks counts chunks
	// fetched, and ConnPoolHits / ConnPoolMisses count data-connection
	// reuse vs fresh dials. Zero on local contexts.
	WireRawBytes   int64
	WireChunks     int64
	ConnPoolHits   int64
	ConnPoolMisses int64
	// AdaptiveRebalances / AdaptiveMovedRecords / AdaptiveMovedGroups
	// count adaptive stage-boundary rebalances: shuffles whose reduce
	// buckets were reshaped after the map side completed, and the rows /
	// whole key groups moved out of hot buckets. All zero when
	// Config.AdaptiveShuffle is off (the default) and always under SPMD.
	AdaptiveRebalances   int64
	AdaptiveMovedRecords int64
	AdaptiveMovedGroups  int64
	// AdaptiveEvents details each rebalance in completion order.
	AdaptiveEvents []AdaptiveEvent
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
// engine counters that worker reported plus its liveness as seen by
// the driver.
type WorkerStat struct {
	ID   string // worker-supplied identity (host:pid by default)
	Addr string // shuffle-serving address
	Rank int    // rank in the last job
	// Alive is the driver's heartbeat-based liveness view; a worker
	// that was SIGKILLed mid-job reports false with its partial row.
	Alive bool
	// Lost marks a worker that died before reporting: its row carries
	// no counters, and its tasks were resubmitted on surviving ranks.
	Lost               bool
	Tasks              int64
	TaskFailures       int64
	Stages             int64
	ShuffledRecords    int64
	ShuffledBytes      int64
	RemoteFetches      int64
	RemoteFetchedBytes int64
	FetchFailures      int64
	Resubmissions      int64
	// ServedFetches / ServedBytes count the shuffle blobs this worker
	// served to its peers.
	ServedFetches int64
	ServedBytes   int64
	// WireFetchedBytes / FetchRetries / FetchGoneEvents mirror the
	// exchange's wire counters for this rank.
	WireFetchedBytes int64
	FetchRetries     int64
	FetchGoneEvents  int64
	// Streaming data-plane counters for this rank: decompressed bytes
	// behind the wire bytes, chunks fetched, and connection-pool reuse.
	WireRawBytes   int64
	WireChunks     int64
	ConnPoolHits   int64
	ConnPoolMisses int64
	SpilledBytes   int64
	MemoryPeak     int64
	Wall           time.Duration
}

// noteStageStart tracks the in-flight stage gauge and its high-water
// mark.
func (m *Metrics) noteStageStart() {
	cur := m.stagesInFlight.Add(1)
	for {
		max := m.maxInFlight.Load()
		if cur <= max || m.maxInFlight.CompareAndSwap(max, cur) {
			return
		}
	}
}

// noteStageEnd decrements the in-flight stage gauge.
func (m *Metrics) noteStageEnd() { m.stagesInFlight.Add(-1) }

// recordStage appends a completed stage's record.
func (m *Metrics) recordStage(s StageMetric) {
	m.stageMu.Lock()
	m.perStage = append(m.perStage, s)
	m.stageMu.Unlock()
}

// noteAdaptive appends one adaptive rebalance record.
func (m *Metrics) noteAdaptive(e AdaptiveEvent) {
	m.adaptiveMu.Lock()
	m.adaptiveEvents = append(m.adaptiveEvents, e)
	m.adaptiveMu.Unlock()
}

// noteSpill credits one spill event: bytes and rows written across
// files new run files.
func (m *Metrics) noteSpill(bytes, rows, files int64) {
	m.spilledBytes.Add(bytes)
	m.spilledRecords.Add(rows)
	m.spillFiles.Add(files)
	obsSpilledBytes.Add(bytes)
	obsSpillFiles.Add(files)
}

// Snapshot copies the counters.
func (m *Metrics) Snapshot() MetricsSnapshot {
	m.stageMu.Lock()
	perStage := append([]StageMetric(nil), m.perStage...)
	m.stageMu.Unlock()
	m.adaptiveMu.Lock()
	adaptive := append([]AdaptiveEvent(nil), m.adaptiveEvents...)
	m.adaptiveMu.Unlock()
	return MetricsSnapshot{
		Tasks:                m.tasks.Load(),
		TaskFailures:         m.taskFailures.Load(),
		Stages:               m.stages.Load(),
		Shuffles:             m.shuffles.Load(),
		ShuffledRecords:      m.shuffledRecords.Load(),
		ShuffledBytes:        m.shuffledBytes.Load(),
		CollectedRecords:     m.collectedRecords.Load(),
		CachedBytes:          m.cachedBytes.Load(),
		SpilledBytes:         m.spilledBytes.Load(),
		SpilledRecords:       m.spilledRecords.Load(),
		SpillFiles:           m.spillFiles.Load(),
		MergePasses:          m.mergePasses.Load(),
		RemoteFetches:        m.remoteFetches.Load(),
		RemoteFetchedBytes:   m.remoteFetchedBytes.Load(),
		FetchFailures:        m.fetchFailures.Load(),
		Resubmissions:        m.resubmissions.Load(),
		MaxConcurrentStages:  m.maxInFlight.Load(),
		AdaptiveRebalances:   m.adaptiveRebalances.Load(),
		AdaptiveMovedRecords: m.adaptiveMovedRecords.Load(),
		AdaptiveMovedGroups:  m.adaptiveMovedGroups.Load(),
		AdaptiveEvents:       adaptive,
		PerStage:             perStage,
	}
}

// Reset zeroes all counters except the cached-bytes gauge, which tracks
// live Persist caches rather than work done.
func (m *Metrics) Reset() {
	m.tasks.Store(0)
	m.taskFailures.Store(0)
	m.stages.Store(0)
	m.shuffles.Store(0)
	m.shuffledRecords.Store(0)
	m.shuffledBytes.Store(0)
	m.collectedRecords.Store(0)
	m.spilledBytes.Store(0)
	m.spilledRecords.Store(0)
	m.spillFiles.Store(0)
	m.mergePasses.Store(0)
	m.remoteFetches.Store(0)
	m.remoteFetchedBytes.Store(0)
	m.fetchFailures.Store(0)
	m.resubmissions.Store(0)
	m.maxInFlight.Store(0)
	m.adaptiveRebalances.Store(0)
	m.adaptiveMovedRecords.Store(0)
	m.adaptiveMovedGroups.Store(0)
	m.stageMu.Lock()
	m.perStage = nil
	m.stageMu.Unlock()
	m.adaptiveMu.Lock()
	m.adaptiveEvents = nil
	m.adaptiveMu.Unlock()
}

// String formats the snapshot as a single diagnostics line.
func (s MetricsSnapshot) String() string {
	out := fmt.Sprintf("tasks=%d failures=%d stages=%d shuffles=%d shuffledRecords=%d shuffledBytes=%d",
		s.Tasks, s.TaskFailures, s.Stages, s.Shuffles, s.ShuffledRecords, s.ShuffledBytes)
	if s.SpilledBytes > 0 || s.SpillFiles > 0 {
		out += fmt.Sprintf(" spilledBytes=%d spillFiles=%d mergePasses=%d",
			s.SpilledBytes, s.SpillFiles, s.MergePasses)
	}
	if s.RemoteFetches > 0 || s.FetchFailures > 0 || s.Resubmissions > 0 {
		out += fmt.Sprintf(" remoteFetches=%d remoteFetchedBytes=%d fetchFailures=%d resubmissions=%d",
			s.RemoteFetches, s.RemoteFetchedBytes, s.FetchFailures, s.Resubmissions)
	}
	if s.AdaptiveRebalances > 0 {
		out += fmt.Sprintf(" adaptiveRebalances=%d adaptiveMovedRecords=%d",
			s.AdaptiveRebalances, s.AdaptiveMovedRecords)
	}
	return out
}

// FormatStages renders the per-stage execution table: one row per
// completed stage with wall time, tasks, records in/out, shuffled
// bytes, and the task-duration distribution (p50/p99/skew). Stages
// whose skew exceeds DefaultSkewThreshold are flagged below the table
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
	if s.AdaptiveRebalances > 0 {
		fmt.Fprintf(&b, "adaptive: %d rebalances moved %d records (%d key groups)\n",
			s.AdaptiveRebalances, s.AdaptiveMovedRecords, s.AdaptiveMovedGroups)
		for _, e := range s.AdaptiveEvents {
			fmt.Fprintf(&b, "  %s: bucket %d held %d records (p50=%d) -> max %d after moving %d records in %d groups\n",
				e.Stage, e.Before.ArgMax, e.Before.Max, e.Before.P50,
				e.After.Max, e.MovedRecords, e.MovedGroups)
		}
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
			s.RemoteFetches, memory.FormatBytes(s.RemoteFetchedBytes),
			s.FetchFailures, s.Resubmissions)
		if s.WireFetchedBytes > 0 {
			line += fmt.Sprintf(", %s on the wire", memory.FormatBytes(s.WireFetchedBytes))
		}
		if s.WireRawBytes > s.WireFetchedBytes {
			line += fmt.Sprintf(" (%s raw, %.1fx compression)", memory.FormatBytes(s.WireRawBytes),
				float64(s.WireRawBytes)/float64(s.WireFetchedBytes))
		}
		if s.WireChunks > 0 {
			line += fmt.Sprintf(", %d chunks", s.WireChunks)
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
// line per worker with its reported engine counters, data served to
// peers, and liveness. Empty snapshots render an empty string.
func (s MetricsSnapshot) FormatWorkers() string {
	if len(s.PerWorker) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%4s  %-22s %-6s %7s %8s %12s %12s %9s %9s %8s %12s %10s\n",
		"rank", "worker", "state", "tasks", "stages", "shufRecords", "shufBytes",
		"fetches", "served", "resub", "wall", "memPeak")
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
			fmt.Fprintf(&b, "%4d  %-22s %-6s %7s %8s %12s %12s %9s %9s %8s %12s %10s\n",
				w.Rank, name, state, "-", "-", "-", "-", "-", "-", "-", "-", "-")
			continue
		}
		fmt.Fprintf(&b, "%4d  %-22s %-6s %7d %8d %12d %12d %9d %9d %8d %12s %10s\n",
			w.Rank, name, state, w.Tasks, w.Stages, w.ShuffledRecords, w.ShuffledBytes,
			w.RemoteFetches, w.ServedFetches, w.Resubmissions,
			w.Wall.Round(time.Millisecond), memory.FormatBytes(w.MemoryPeak))
	}
	return b.String()
}

// SkewWarnings lists the per-stage skew diagnoses whose task-duration
// p99/p50 exceeds threshold (<= 0 uses DefaultSkewThreshold), each
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
// work in between. PerStage keeps only the stages completed after t
// (the first len(t.PerStage) rows are dropped), and
// MaxConcurrentStages is recomputed over just those stages by sweeping
// their [Start, Start+Wall] intervals — the snapshots' own field is a
// since-reset high-water mark that may predate t. CachedBytes is a
// live gauge and is taken from s.
func (s MetricsSnapshot) Sub(t MetricsSnapshot) MetricsSnapshot {
	var per []StageMetric
	if len(s.PerStage) > len(t.PerStage) {
		per = s.PerStage[len(t.PerStage):]
	}
	var adaptive []AdaptiveEvent
	if len(s.AdaptiveEvents) > len(t.AdaptiveEvents) {
		adaptive = s.AdaptiveEvents[len(t.AdaptiveEvents):]
	}
	return MetricsSnapshot{
		Tasks:                s.Tasks - t.Tasks,
		TaskFailures:         s.TaskFailures - t.TaskFailures,
		Stages:               s.Stages - t.Stages,
		Shuffles:             s.Shuffles - t.Shuffles,
		ShuffledRecords:      s.ShuffledRecords - t.ShuffledRecords,
		ShuffledBytes:        s.ShuffledBytes - t.ShuffledBytes,
		CollectedRecords:     s.CollectedRecords - t.CollectedRecords,
		CachedBytes:          s.CachedBytes,
		SpilledBytes:         s.SpilledBytes - t.SpilledBytes,
		SpilledRecords:       s.SpilledRecords - t.SpilledRecords,
		SpillFiles:           s.SpillFiles - t.SpillFiles,
		MergePasses:          s.MergePasses - t.MergePasses,
		BudgetWaits:          s.BudgetWaits - t.BudgetWaits,
		MemoryOvercommits:    s.MemoryOvercommits - t.MemoryOvercommits,
		MemoryBudget:         s.MemoryBudget,
		MemoryUsed:           s.MemoryUsed,
		MemoryPeak:           s.MemoryPeak,
		PoolHits:             s.PoolHits - t.PoolHits,
		PoolMisses:           s.PoolMisses - t.PoolMisses,
		PoolReturns:          s.PoolReturns - t.PoolReturns,
		RemoteFetches:        s.RemoteFetches - t.RemoteFetches,
		RemoteFetchedBytes:   s.RemoteFetchedBytes - t.RemoteFetchedBytes,
		FetchFailures:        s.FetchFailures - t.FetchFailures,
		Resubmissions:        s.Resubmissions - t.Resubmissions,
		WireFetchedBytes:     s.WireFetchedBytes - t.WireFetchedBytes,
		FetchRetries:         s.FetchRetries - t.FetchRetries,
		FetchGoneEvents:      s.FetchGoneEvents - t.FetchGoneEvents,
		WireRawBytes:         s.WireRawBytes - t.WireRawBytes,
		WireChunks:           s.WireChunks - t.WireChunks,
		ConnPoolHits:         s.ConnPoolHits - t.ConnPoolHits,
		ConnPoolMisses:       s.ConnPoolMisses - t.ConnPoolMisses,
		MaxConcurrentStages:  maxOverlap(per),
		AdaptiveRebalances:   s.AdaptiveRebalances - t.AdaptiveRebalances,
		AdaptiveMovedRecords: s.AdaptiveMovedRecords - t.AdaptiveMovedRecords,
		AdaptiveMovedGroups:  s.AdaptiveMovedGroups - t.AdaptiveMovedGroups,
		AdaptiveEvents:       adaptive,
		PerStage:             per,
		PerWorker:            s.PerWorker,
		WorkerStages:         s.WorkerStages,
	}
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

// Sizer lets shuffled values report their payload size for shuffle-byte
// accounting. Values that do not implement Sizer are estimated by
// defaultSize.
type Sizer interface{ NumBytes() int64 }

// estimateSize approximates the serialized size of a value.
func estimateSize(v any) int64 {
	switch x := v.(type) {
	case nil:
		return 0
	case Sizer:
		return x.NumBytes()
	case Coord:
		return 16 // two int64 coordinates
	case bool, int8, uint8:
		return 1
	case int16, uint16:
		return 2
	case int32, uint32, float32:
		return 4
	case int, int64, uint, uint64, float64:
		return 8
	case string:
		return int64(len(x))
	case []float64:
		return int64(len(x)) * 8
	case []int:
		return int64(len(x)) * 8
	case []byte:
		return int64(len(x))
	default:
		return 16 // opaque boxed value
	}
}
