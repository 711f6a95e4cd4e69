package dataflow

// Out-of-core execution: when a memory budget is configured
// (Config.MemoryBudget / SAC_MEMORY_BUDGET), shuffle segments and
// Persist caches become spillable. The shuffle writer reserves tracked
// bytes in chunks; a denied reservation spills the task's segments as
// run files, and finished segments spill when another holder needs
// the room. A run holds a segment's rows in the order they were
// written, so reading a segment back — its runs, then what is still in
// memory — yields exactly what an unspilled segment would have: the
// budget moves bytes, never rows. With no budget every hook below
// degenerates to a nil check.

import (
	"fmt"
	"math"

	"repro/internal/memory"
	"repro/internal/spill"
)

// spillReserveChunk is the granularity of memory-budget reservations on
// the shuffle write path: tasks accumulate this many encoded bytes
// before asking the manager again, amortizing the reservation cost.
const spillReserveChunk = 256 << 10

// zeroOrd is the sort key written into run files: runs are never
// sorted or merged, only streamed back whole in written order.
func zeroOrd[T any](T) uint64 { return 0 }

// combinerFlushBytes caps the map-side combiner's per-task working set
// under a budget: roughly a quarter of the budget split across the
// worker slots, floored at 1 MiB. Unlimited contexts never flush early.
func combinerFlushBytes(c *Context) int64 {
	if c.mem == nil {
		return math.MaxInt64
	}
	per := c.mem.Budget() / int64(4*c.conf.Parallelism)
	if per < 1<<20 {
		per = 1 << 20
	}
	return per
}

// taskBuckets is the one shuffle writer: it buffers one map task's
// routed output, one segment per reduce bucket. Under a budget it
// reserves tracked bytes in chunks and spills all its segments when a
// reservation is denied.
type taskBuckets[T any] struct {
	lb       *lazyBuckets[T]
	mem      *memory.Manager // nil without a budget
	buckets  []bucketed[T]
	reserved int64
	unres    int64
}

func (s *lazyBuckets[T]) newTask() *taskBuckets[T] {
	return &taskBuckets[T]{lb: s, mem: s.ctx.mem, buckets: make([]bucketed[T], s.parts)}
}

// add routes one row to bucket b, charging its encoded size.
func (tb *taskBuckets[T]) add(b int, v T) {
	bytes := tb.lb.codec.Size(v)
	bk := &tb.buckets[b]
	bk.rows = append(bk.rows, v)
	bk.bytes += bytes
	if tb.mem != nil {
		bk.mem += bytes
		tb.unres += bytes
		if tb.unres >= spillReserveChunk {
			tb.reserveOrSpill()
		}
	}
}

// reserveOrSpill books the accumulated unreserved bytes against the
// budget: grant, grant-after-evicting-others, or spill this task's
// segments to disk and release everything.
func (tb *taskBuckets[T]) reserveOrSpill() {
	chunk := tb.unres
	tb.unres = 0
	if tb.mem.TryReserve(chunk) {
		tb.reserved += chunk
		return
	}
	tb.mem.Evict(chunk)
	if tb.mem.TryReserve(chunk) {
		tb.reserved += chunk
		return
	}
	span := tb.lb.ctx.StartSpan("spill: " + tb.lb.name)
	for b := range tb.buckets {
		if _, err := tb.lb.spill(&tb.buckets[b]); err != nil {
			panic(err)
		}
	}
	tb.mem.Release(tb.reserved)
	tb.reserved = 0
	span.End()
}

// finish books what the task has not reserved yet. From here on every
// segment's mem is exactly the reservation it holds.
func (tb *taskBuckets[T]) finish() {
	if tb.unres > 0 {
		tb.reserveOrSpill()
	}
}

// spill appends the segment's tracked in-memory rows to its runs as one
// more run file, written in order, and returns their tracked size for
// the caller to give back. Untracked rows — a narrow read's — stay, and
// stay the canonical copy: their owner can produce them again. The rows
// slice is only read: a reader may still hold it.
func (s *lazyBuckets[T]) spill(bk *bucketed[T]) (freed int64, err error) {
	if bk.mem == 0 {
		return 0, nil
	}
	run, err := spill.WriteRunOrdered(s.ctx.spillDir(), bk.rows, zeroOrd[T], s.codec)
	if err != nil {
		return 0, fmt.Errorf("dataflow: %s: %w", s.name, err)
	}
	freed = bk.mem
	bk.runs = append(bk.runs, run)
	bk.rows, bk.mem = nil, 0
	s.ctx.metrics.noteSpill(run.Bytes, run.Rows, 1)
	return freed, nil
}

// read returns the segment's rows in written order: its runs, decoded,
// then the rows still in memory. An unspilled segment is returned as
// is.
func (s *lazyBuckets[T]) read(bk *bucketed[T]) []T {
	if len(bk.runs) == 0 {
		return bk.rows
	}
	out := make([]T, 0, bk.count())
	for _, run := range bk.runs {
		out = appendRun(out, run, s.codec)
	}
	return append(out, bk.rows...)
}

// evict is the shuffle's memory-pressure hook: finished segments that
// no reader has taken move to run files until need bytes are freed.
// Partitions being read (pmu held) are skipped rather than waited on.
func (s *lazyBuckets[T]) evict(need int64) int64 {
	var freed int64
	for b := 0; b < s.parts && freed < need; b++ {
		if !s.pmu[b].TryLock() {
			continue
		}
		for _, bk := range s.resting(b) {
			if n, err := s.spill(bk); err == nil {
				s.ctx.mem.Release(n)
				freed += n
			}
		}
		s.pmu[b].Unlock()
	}
	return freed
}

// appendRun decodes a run file onto dst, in the order it was written.
func appendRun[T any](dst []T, run spill.Run[T], c spill.Codec[T]) []T {
	if err := run.Each(c, func(_ uint64, v T) { dst = append(dst, v) }); err != nil {
		panic(fmt.Errorf("dataflow: read back spilled rows: %w", err))
	}
	return dst
}

// cacheStore installs a freshly computed partition in the Persist
// cache, charging the memory budget; if the budget refuses even after
// evicting others, the partition caches to disk instead. Returns the
// canonical slice (an earlier racer's copy may win).
func (d *Dataset[T]) cacheStore(p int, rows []T) []T {
	b := sliceBytes(d.codec, rows)
	mem := d.ctx.mem
	if mem != nil && b > 0 && !mem.TryReserve(b) {
		mem.Evict(b)
		if !mem.TryReserve(b) {
			return d.cacheToDisk(p, rows)
		}
	}
	d.cacheMu.Lock()
	if !d.persist {
		d.cacheMu.Unlock()
		mem.Release(b)
		return rows
	}
	if d.cached == nil {
		d.cached = make([][]T, d.parts)
	}
	if d.cached[p] != nil {
		rows = d.cached[p]
		d.cacheMu.Unlock()
		mem.Release(b)
		return rows
	}
	d.cached[p] = rows
	if mem != nil {
		if d.cachedResv == nil {
			d.cachedResv = make([]int64, d.parts)
		}
		d.cachedResv[p] = b
	}
	d.cachedBytes += b
	d.ctx.metrics.c.CachedBytes.Add(b)
	d.cacheMu.Unlock()
	if mem != nil {
		// Register outside cacheMu: the evictor takes cacheMu, and
		// registration takes the manager's evictor lock — nesting them
		// here would invert the order the evictor uses.
		d.evictOnce.Do(func() {
			unreg := mem.RegisterEvictor(func(need int64) int64 { return d.evictCache(need) })
			d.cacheMu.Lock()
			d.unregEvict = unreg
			d.cacheMu.Unlock()
		})
	}
	return rows
}

// cacheToDisk persists a partition the budget refused to admit. The
// rows are written in their computed order (WriteRunOrdered only reads
// the slice, which consumers may share) and later reads stream the run
// back with appendRun.
func (d *Dataset[T]) cacheToDisk(p int, rows []T) []T {
	span := d.ctx.StartSpan("spill: cache(" + d.name + ")")
	run, err := spill.WriteRunOrdered(d.ctx.spillDir(), rows, zeroOrd[T], d.codec)
	if err != nil {
		// Caching is best-effort; the dataset recomputes from lineage.
		span.End()
		return rows
	}
	span.SetAttr("bytes", run.Bytes)
	span.SetAttr("rows", run.Rows)
	span.End()
	d.cacheMu.Lock()
	dup := !d.persist ||
		(d.cached != nil && d.cached[p] != nil) ||
		(d.cachedDisk != nil && d.cachedDisk[p].Path != "")
	if !dup {
		if d.cachedDisk == nil {
			d.cachedDisk = make([]spill.Run[T], d.parts)
		}
		d.cachedDisk[p] = run
	}
	d.cacheMu.Unlock()
	if dup {
		run.Remove()
		return rows
	}
	d.ctx.metrics.noteSpill(run.Bytes, run.Rows, 1)
	return rows
}

// evictCache is the Persist cache's memory-pressure hook: in-memory
// cached partitions move to disk until need bytes are freed. It only
// ever runs with a non-nil manager (registration is budget-gated).
func (d *Dataset[T]) evictCache(need int64) int64 {
	var freed int64
	d.cacheMu.Lock()
	defer d.cacheMu.Unlock()
	if d.cached == nil || d.cachedResv == nil {
		return 0
	}
	for p := 0; p < d.parts && freed < need; p++ {
		rows, resv := d.cached[p], d.cachedResv[p]
		if rows == nil || resv == 0 {
			continue
		}
		run, err := spill.WriteRunOrdered(d.ctx.spillDir(), rows, zeroOrd[T], d.codec)
		if err != nil {
			continue
		}
		if d.cachedDisk == nil {
			d.cachedDisk = make([]spill.Run[T], d.parts)
		}
		d.cachedDisk[p] = run
		d.cached[p] = nil
		d.cachedResv[p] = 0
		d.cachedBytes -= resv
		d.ctx.metrics.c.CachedBytes.Add(-resv)
		d.ctx.metrics.noteSpill(run.Bytes, run.Rows, 1)
		d.ctx.mem.Release(resv)
		freed += resv
	}
	return freed
}
