package dataflow

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// The two histograms of the metrics registry the engine observes
// itself; its counter series are the schema's (obs.Counters), fed by
// publishing the context's live set. Both happen once per stage, so the
// per-record hot paths never touch the registry.
var (
	obsStageSeconds = obs.Default.Histogram("sac_dataflow_stage_seconds",
		"stage wall time", obs.DefSecondsBuckets)
	obsTaskSeconds = obs.Default.Histogram("sac_dataflow_task_seconds",
		"per-task wall time", obs.DefSecondsBuckets)
)

// Stage is a first-class node of the execution DAG: a unit of
// scheduling whose tasks run entirely from already-materialized inputs
// (sources, caches, upstream shuffle outputs) and end at a stage
// boundary — a shuffle write, or results handed to the driver. Narrow
// operators never create stages; they fuse into the stage that
// consumes them.
//
// Stages carry explicit dependencies. The driver scheduler runs a
// stage only after its dependencies, and runs *independent*
// dependencies concurrently — both map-sides of a join overlap on the
// shared worker pool. Stage bodies submit tasks to the pool but never
// start other stages, preserving the no-nested-stages invariant that
// keeps the bounded pool deadlock-free.
type Stage struct {
	ctx  *Context
	id   int64
	name string
	deps []*Stage
	body func(*Stage)

	once    sync.Once
	done    chan struct{}
	failure any

	// Per-stage counters, updated by the stage's tasks.
	tasks         atomic.Int64
	recordsIn     atomic.Int64
	recordsOut    atomic.Int64
	shuffledBytes atomic.Int64

	// span is the stage's trace span (nil when tracing is off); tasks
	// attach their spans under it.
	span *trace.Span

	// Per-task samples backing the stage's TaskDur / PartRecords
	// distributions, indexed by task/partition. A task that ran here
	// records a duration of at least 1 ns, so a zero duration marks a
	// task this process did not run: on a cluster, another rank's.
	statsMu   sync.Mutex
	taskDurNs []int64
	taskRecs  []int64
}

// seedStats adopts recycled sample buffers from the context's free
// list the first time the stage records anything. Callers hold statsMu.
func (s *Stage) seedStats() {
	if s.taskDurNs == nil {
		s.taskDurNs = s.ctx.getStatBuf()
	}
	if s.taskRecs == nil {
		s.taskRecs = s.ctx.getStatBuf()
	}
}

// noteIn credits n input records to the stage and to partition part's
// tally, which feeds the records-per-partition distribution.
func (s *Stage) noteIn(part int, n int64) {
	s.recordsIn.Add(n)
	s.statsMu.Lock()
	s.seedStats()
	s.taskRecs = growTo(s.taskRecs, part+1)
	s.taskRecs[part] += n
	s.statsMu.Unlock()
}

// reserveStats sizes the sample slices for n tasks up front, so the
// per-task paths just index into them (recycled buffers when available,
// one allocation per slice per stage otherwise).
func (s *Stage) reserveStats(n int) {
	s.statsMu.Lock()
	s.seedStats()
	s.taskDurNs = growTo(s.taskDurNs, n)
	s.taskRecs = growTo(s.taskRecs, n)
	s.statsMu.Unlock()
}

// growTo extends xs with zeros to length n in one allocation.
func growTo(xs []int64, n int) []int64 {
	if len(xs) >= n {
		return xs
	}
	if cap(xs) >= n {
		return xs[:n]
	}
	out := make([]int64, n)
	copy(out, xs)
	return out
}

// noteTaskDur records task i's wall time, at least 1 ns (see taskDurNs).
func (s *Stage) noteTaskDur(i int, d time.Duration) {
	s.statsMu.Lock()
	s.seedStats()
	s.taskDurNs = growTo(s.taskDurNs, i+1)
	s.taskDurNs[i] += max(d.Nanoseconds(), 1)
	s.statsMu.Unlock()
}

// recordsOf reports partition i's input-record tally so far.
func (s *Stage) recordsOf(i int) int64 {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	if i < len(s.taskRecs) {
		return s.taskRecs[i]
	}
	return 0
}

// newStage registers a stage with the context's DAG.
func (c *Context) newStage(name string, deps []*Stage, body func(*Stage)) *Stage {
	return &Stage{
		ctx:  c,
		id:   c.stageIDs.Add(1),
		name: name,
		deps: deps,
		body: body,
		done: make(chan struct{}),
	}
}

// ensure runs the stage exactly once: first its dependencies
// (independent ones concurrently), then its own body. Concurrent
// callers block until the stage completes. A failure (a task's panic)
// is recorded and re-panicked to every waiter, so actions
// observe upstream stage failures. ensure must only be called from
// driver-side goroutines, never from inside a task.
func (s *Stage) ensure() {
	s.once.Do(func() {
		defer close(s.done)
		defer func() {
			if r := recover(); r != nil {
				s.failure = r
			}
		}()
		waitStages(s.deps)

		c := s.ctx
		if ts := c.trc.Load(); ts != nil {
			s.span = ts.tr.Start(ts.root, "stage: "+s.name)
			s.span.SetAttr("stage.id", s.id)
		}
		c.metrics.noteStageStart()
		start := time.Now()
		defer func() {
			wall := time.Since(start)
			c.metrics.noteStageEnd()
			c.metrics.c.Stages.Add(1)
			// The stage is finished: no task can append samples anymore,
			// so the slices are summarized without copying and then
			// recycled for later stages. The row covers the tasks that
			// ran here.
			s.statsMu.Lock()
			durs, recs := s.taskDurNs, s.taskRecs
			s.taskDurNs, s.taskRecs = nil, nil
			s.statsMu.Unlock()
			partRecs := summarizeDist(recs, durs) // before durs packs itself
			sm := StageMetric{
				ID:            s.id,
				Name:          s.name,
				Start:         start,
				Wall:          wall,
				Tasks:         s.tasks.Load(),
				RecordsIn:     s.recordsIn.Load(),
				RecordsOut:    s.recordsOut.Load(),
				ShuffledBytes: s.shuffledBytes.Load(),
				PartRecords:   partRecs,
				TaskDur:       summarizeDist(durs, durs),
			}
			c.metrics.c.RecordsIn.Add(sm.RecordsIn)
			c.metrics.recordStage(sm)
			c.metrics.c.Publish()
			obsStageSeconds.Observe(wall.Seconds())
			for _, ns := range durs[:sm.TaskDur.N] { // packed: the tasks that ran here
				obsTaskSeconds.Observe(float64(ns) / 1e9)
			}
			c.putStatBuf(durs)
			c.putStatBuf(recs)
			if sp := s.span; sp != nil {
				sp.SetAttr("tasks", sm.Tasks)
				sp.SetAttr("recordsIn", sm.RecordsIn)
				sp.SetAttr("recordsOut", sm.RecordsOut)
				if sm.ShuffledBytes > 0 {
					sp.SetAttr("shuffledBytes", sm.ShuffledBytes)
				}
				if w, ok := sm.SkewWarning(0); ok {
					sp.SetAttr("warn", w)
				}
				sp.End()
			}
		}()
		s.body(s)
	})
	<-s.done
	if s.failure != nil {
		panic(s.failure)
	}
}

// waitStages ensures every listed stage has run, launching independent
// stages concurrently, and re-panics the first observed failure.
func waitStages(stages []*Stage) {
	switch len(stages) {
	case 0:
		return
	case 1:
		stages[0].ensure()
		return
	}
	var wg sync.WaitGroup
	var failure atomic.Value
	for _, st := range stages {
		wg.Add(1)
		go func(st *Stage) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					failure.CompareAndSwap(nil, r)
				}
			}()
			st.ensure()
		}(st)
	}
	wg.Wait()
	if f := failure.Load(); f != nil {
		panic(f)
	}
}
