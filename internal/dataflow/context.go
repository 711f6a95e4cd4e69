// Package dataflow implements a from-scratch analogue of the Spark RDD
// runtime that the paper compiles to. It runs in one process, or as one
// rank of a worker cluster when Config.Transport is set (cluster.go).
// Datasets are immutable partitioned collections evaluated lazily
// through a push-based pipeline: every narrow transformation (map,
// filter, flatMap, mapPartitions, union) wraps its parent's
// per-partition iterator, so a whole chain of narrow operators runs as
// one fused loop per partition with no intermediate slices. Data
// materializes only at stage boundaries — shuffle inputs, Persist
// caches, and actions.
//
// Wide transformations (groupByKey, reduceByKey, join, cogroup) move
// data through an explicit hash shuffle and cut the lineage into
// first-class Stage nodes carrying their dependencies. The driver
// scheduler runs a stage after its dependencies and runs independent
// stages concurrently on the shared bounded worker pool ("executor
// cores"), so e.g. both map-sides of a join overlap; stage bodies
// submit tasks but never start other stages, which keeps the bounded
// pool deadlock-free.
//
// The engine keeps per-context metrics — bytes and records shuffled,
// tasks and stages run, per-stage wall time and record counts, bytes
// pinned by caches — so benchmarks can observe the quantity the paper's
// optimizations target: shuffle volume. A rank that loses a peer
// recomputes the peer's lost map output from lineage (cluster.go),
// mirroring the fault tolerance DISC systems provide.
package dataflow

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/linalg"
	"repro/internal/memory"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Config controls one engine context: a local process, or one rank of a
// cluster when Transport is set.
type Config struct {
	// Parallelism is the number of concurrently executing tasks
	// (executors x cores). Defaults to GOMAXPROCS.
	Parallelism int
	// DefaultPartitions is the partition count for new datasets and
	// shuffles when the caller does not specify one. Defaults to
	// 2*Parallelism.
	DefaultPartitions int
	// MemoryBudget, when positive, bounds the tracked bytes the
	// engine's shuffle buffers and Persist caches may pin in memory.
	// Past the budget, shuffle segments spill to run files that read
	// back in written order, and caches evict to disk. 0 means
	// unlimited: the out-of-core layer costs one nil check. Both CLIs
	// seed it from the SAC_MEMORY_BUDGET environment variable.
	MemoryBudget int64
	// SpillDir is the directory for spill run files. Empty means a
	// fresh directory under the OS temp dir, created on first spill
	// and removed by Close.
	SpillDir string
	// Transport, when non-nil, switches the context into distributed
	// SPMD execution: this process is one rank of Transport.World()
	// identical processes all building the same deterministic graph.
	// Each rank runs the tasks it owns (index % world == rank),
	// publishes their shuffle segments and action partials through the
	// transport, and fetches (or recomputes from lineage, when the
	// owning peer died) the rest. nil — the default — is
	// single-process execution. See cluster.go.
	Transport Transport
	// WorkerTag names this process in distributed diagnostics: stage
	// spans gain a "worker" attribute and formatted tables a worker
	// column. Empty for local contexts.
	WorkerTag string
}

// Context is the entry point to the engine, analogous to SparkContext.
// A Context is safe for concurrent use.
type Context struct {
	conf     Config
	metrics  Metrics
	sem      chan struct{}
	stageIDs atomic.Int64

	// trc is the installed tracer plus the span new stages parent
	// under. A single atomic pointer keeps the tracing-off fast path to
	// one load-and-nil-check per stage/kernel.
	trc atomic.Pointer[traceState]

	// statMu/statFree recycle the per-stage task-sample buffers. A
	// finished stage summarizes its samples into Dist values and returns
	// the raw slices here, so steady-state stage execution allocates no
	// per-stage stat storage.
	statMu   sync.Mutex
	statFree [][]int64

	// tilePool recycles output/accumulator tiles across the context's
	// tiled kernels (see linalg.Pool for the ownership contract). Its
	// hit/miss/return gauges surface in MetricsSnapshot.
	tilePool linalg.Pool

	// lease is the job's account with its worker's buffer pool, from the
	// transport (nil for a local context, and on a worker that pools
	// nothing): the tile pool, the shuffle's blobs and its decoded tiles
	// draw from it, and what they draw outlives the context until the
	// worker ends the job.
	lease *memory.Lease

	// mem is the budgeted memory manager behind out-of-core execution;
	// nil means unlimited (every reservation grants instantly). The
	// spill directory is created lazily on first spill.
	mem       *memory.Manager
	spillOnce sync.Once
	spillPath string
	spillMade bool
	closeOnce sync.Once
	closeErr  error
}

// getStatBuf returns a zeroed, zero-length sample buffer, reusing a
// recycled one when available (nil when the free list is empty — growTo
// then allocates).
func (c *Context) getStatBuf() []int64 {
	c.statMu.Lock()
	defer c.statMu.Unlock()
	if n := len(c.statFree); n > 0 {
		b := c.statFree[n-1]
		c.statFree = c.statFree[:n-1]
		return b
	}
	return nil
}

// putStatBuf zeroes and recycles a finished stage's sample buffer.
func (c *Context) putStatBuf(b []int64) {
	if cap(b) == 0 {
		return
	}
	b = b[:cap(b)]
	for i := range b {
		b[i] = 0
	}
	c.statMu.Lock()
	c.statFree = append(c.statFree, b[:0])
	c.statMu.Unlock()
}

// traceState pairs a tracer with the span stages attach under (the
// running query's execute phase).
type traceState struct {
	tr   *trace.Tracer
	root *trace.Span
}

// NewContext returns a context with the given configuration,
// normalizing zero fields to defaults.
func NewContext(conf Config) *Context {
	if conf.Parallelism <= 0 {
		conf.Parallelism = runtime.GOMAXPROCS(0)
	}
	if conf.DefaultPartitions <= 0 {
		conf.DefaultPartitions = 2 * conf.Parallelism
	}
	ctx := &Context{
		conf: conf,
		sem:  make(chan struct{}, conf.Parallelism),
		mem:  memory.New(conf.MemoryBudget),
	}
	ctx.metrics.c.Held = ctx.heldElsewhere
	// A transport that can bound its per-fetch buffers takes the
	// context's budget manager (structural, so cluster.Exchange plugs
	// in without dataflow importing cluster).
	if mt, ok := conf.Transport.(interface{ SetMemory(*memory.Manager) }); ok {
		mt.SetMemory(ctx.mem)
	}
	// So does one that lends the job's buffers.
	if lt, ok := conf.Transport.(interface{ Lease() *memory.Lease }); ok {
		ctx.lease = lt.Lease()
		ctx.tilePool.DrawFrom(ctx.lease)
	}
	return ctx
}

// Lease returns the job's account with its worker's buffer pool; nil for
// a local context (every method of a nil lease allocates or does
// nothing).
func (c *Context) Lease() *memory.Lease { return c.lease }

// spillDir lazily creates and returns the directory spill run files go
// to.
func (c *Context) spillDir() string {
	c.spillOnce.Do(func() {
		dir := c.conf.SpillDir
		if dir == "" {
			d, err := os.MkdirTemp("", "sac-spill-")
			if err != nil {
				panic(fmt.Errorf("dataflow: create spill dir: %w", err))
			}
			dir, c.spillMade = d, true
		} else if err := os.MkdirAll(dir, 0o755); err != nil {
			panic(fmt.Errorf("dataflow: create spill dir: %w", err))
		}
		c.spillPath = dir
	})
	return c.spillPath
}

// Close releases the context's disk resources: the spill directory and
// every run file in it, when the context created the directory itself.
// A configured SpillDir is left in place (the caller owns it). Close is
// idempotent and safe on contexts that never spilled.
func (c *Context) Close() error {
	c.closeOnce.Do(func() {
		if c.spillMade && c.spillPath != "" {
			c.closeErr = os.RemoveAll(c.spillPath)
		}
	})
	return c.closeErr
}

// NewLocalContext returns a context with default local configuration.
func NewLocalContext() *Context { return NewContext(Config{}) }

// Conf returns the normalized configuration.
func (c *Context) Conf() Config { return c.conf }

// DefaultPartitions returns the default partition count.
func (c *Context) DefaultPartitions() int { return c.conf.DefaultPartitions }

// Metrics returns a snapshot of the accumulated engine metrics,
// including the tile pool's reuse gauges.
func (c *Context) Metrics() MetricsSnapshot { return c.metrics.Snapshot() }

// heldElsewhere completes a snapshot of the engine's live set with the
// counters the tile pool and the memory manager keep.
func (c *Context) heldElsewhere(s obs.CounterSet) obs.CounterSet {
	ps := c.tilePool.Stats()
	s.PoolHits, s.PoolMisses, s.PoolReturns = ps.Hits, ps.Misses, ps.Returns
	ms := c.mem.Stats()
	s.MemoryBudget, s.MemoryUsed, s.MemoryPeak = ms.Budget, ms.Used, ms.Peak
	s.BudgetWaits, s.MemoryOvercommits = ms.Waits, ms.Overcommits
	return s
}

// ResetMetrics zeroes the metric counters, the tile pool's gauges
// (pooled tiles stay pooled), and the memory manager's peak gauge
// (reservations stay reserved); benchmarks call this between measured
// runs.
func (c *Context) ResetMetrics() {
	c.metrics.Reset(func() {
		c.tilePool.ResetStats()
		c.mem.ResetPeak()
	})
}

// TilePool returns the context's tile-buffer pool. Kernels Get output
// and accumulator tiles from it and Put back tiles they exclusively
// own (dead partial products, drained caches), so iterative workloads
// stop allocating a fresh N×N tile per output coordinate.
func (c *Context) TilePool() *linalg.Pool { return &c.tilePool }

// KernelBudget reports how many goroutines an in-tile kernel may spawn
// right now: the parallelism left over after the stage pool's running
// tasks are accounted for. With partitions >= cores every slot is busy
// and kernels run sequentially (budget 1); when a stage has fewer
// partitions than cores, the idle cores go to row/panel-parallel
// kernels instead of oversubscribing the machine.
func (c *Context) KernelBudget() int {
	busy := len(c.sem)
	if busy < 1 {
		busy = 1
	}
	budget := c.conf.Parallelism / busy
	if budget < 1 {
		return 1
	}
	return budget
}

// SetTracer installs tr so every stage and task records spans; a nil tr
// turns tracing off. Tracing off costs one atomic load per stage and
// per task — no allocations, no spans.
func (c *Context) SetTracer(tr *trace.Tracer) {
	if tr == nil {
		c.trc.Store(nil)
		return
	}
	var root *trace.Span
	if ts := c.trc.Load(); ts != nil && ts.tr == tr {
		root = ts.root
	}
	if tag := c.conf.WorkerTag; tag != "" {
		// Stamp every span this tracer records — stages, tasks,
		// kernels — so merged multi-process traces stay attributable.
		tr.SetAutoAttr("worker", tag)
	}
	c.trc.Store(&traceState{tr: tr, root: root})
}

// SetTraceRoot parents subsequent stage spans under root (typically the
// query's execute-phase span). No-op when tracing is off.
func (c *Context) SetTraceRoot(root *trace.Span) {
	if ts := c.trc.Load(); ts != nil {
		c.trc.Store(&traceState{tr: ts.tr, root: root})
	}
}

// Tracer returns the installed tracer, or nil when tracing is off.
func (c *Context) Tracer() *trace.Tracer {
	if ts := c.trc.Load(); ts != nil {
		return ts.tr
	}
	return nil
}

// StartSpan opens a span under the current trace root — tile kernels
// use it to record compute leaves. Returns nil (a no-op span) when
// tracing is off.
func (c *Context) StartSpan(name string) *trace.Span {
	ts := c.trc.Load()
	if ts == nil {
		return nil
	}
	if ts.root != nil {
		return ts.root.StartChild(name)
	}
	return ts.tr.Start(nil, name)
}

// capturedPanic carries a task failure from a worker goroutine to the
// driver, where it is re-raised. Without the hand-off a panic on a
// worker goroutine would kill the whole process, including unrelated
// stages running concurrently.
type capturedPanic struct{ val any }

// runTasksOwned executes body(i) for the indices i in [lo,hi) this
// process owns (owns) on the worker pool and blocks until all complete: a
// local context runs every index, a rank of a cluster its share, the other
// ranks running theirs. Successful tasks are credited to st. A panic in
// body is re-raised on the calling goroutine, unretried: it is
// deterministic, so a second attempt would raise it again.
func (c *Context) runTasksOwned(st *Stage, lo, hi int, body func(i int)) {
	start, stride := lo, 1
	if t := c.conf.Transport; t != nil {
		stride = t.World()
		start += ((t.Rank()-lo)%stride + stride) % stride
	}
	c.runTaskStride(st, start, hi, stride, body)
}

// owns reports whether index i is executed by this process: always,
// locally; by the modulo-world owner under a cluster transport.
func (c *Context) owns(i int) bool {
	t := c.conf.Transport
	return t == nil || i%t.World() == t.Rank()
}

// runTaskStride runs body(i) for i = start, start+stride, ... < hi as
// tasks of st.
func (c *Context) runTaskStride(st *Stage, start, hi, stride int, body func(i int)) {
	var wg sync.WaitGroup
	var panicked atomic.Value
	st.reserveStats(hi)
	for i := start; i < hi; i += stride {
		wg.Add(1)
		c.sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-c.sem }()
			if p := c.runTask(st, i, body); p != nil {
				panicked.Store(p)
			}
		}(i)
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(p.(*capturedPanic).val)
	}
}

// runTask runs one task, recording its metrics: wall time per task
// (feeding the stage's TaskDur distribution) and, when tracing is on, a
// task span under the stage's span. A panic in body is returned for the
// caller to re-raise.
func (c *Context) runTask(st *Stage, i int, body func(i int)) (failed *capturedPanic) {
	var sp *trace.Span
	defer func() {
		if r := recover(); r != nil {
			if sp != nil {
				sp.SetAttr("error", fmt.Sprint(r))
				sp.End()
			}
			failed = &capturedPanic{val: r}
		}
	}()
	if sp = st.span.StartChild("task"); sp != nil {
		sp.SetAttr("partition", i)
	}
	start := time.Now()
	body(i)
	st.noteTaskDur(i, time.Since(start))
	if sp != nil {
		sp.SetAttr("records", st.recordsOf(i))
		sp.End()
	}
	c.metrics.c.Tasks.Add(1)
	st.tasks.Add(1)
	return nil
}
