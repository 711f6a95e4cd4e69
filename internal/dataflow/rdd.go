package dataflow

import (
	"fmt"
	"sync"

	"repro/internal/spill"
)

// Dataset is an immutable, lazily evaluated, partitioned collection —
// the engine's RDD. A Dataset records how to compute each partition
// from its lineage; nothing runs until an action (Collect, Count,
// Reduce, ...) or a downstream shuffle materializes it.
//
// Execution is push-based: each streams a partition's elements into a
// sink one at a time, and narrow transformations wrap their parent's
// stream, so an entire chain of narrow operators runs as one fused
// loop per partition with no intermediate slices. Elements materialize
// only at stage boundaries: shuffle inputs, Persist caches, and
// actions.
//
// Because Go methods cannot introduce type parameters, transformations
// that change the element type are package-level functions (Map,
// FlatMap, ...) taking the Dataset as the first argument.
type Dataset[T any] struct {
	ctx   *Context
	parts int
	// each pushes partition part's elements into emit (the fused
	// pipeline). It reads only materialized inputs, so it is safe to
	// run inside a task once deps have completed.
	each func(part int, emit func(T))
	// rows, when non-nil, exposes a partition as an already-materialized
	// slice without copying (sources and shuffle reads); nil for fused
	// operator chains.
	rows func(part int) []T
	// deps are the stages (shuffle map-sides, transitively collected)
	// that must complete before this dataset's partitions can be
	// computed inside a task. The driver scheduler runs them — with
	// independent stages concurrent — before any action or shuffle over
	// this dataset, so task bodies never start nested stages (which
	// would deadlock the bounded worker pool).
	deps    []*Stage
	cacheMu sync.Mutex
	cached  [][]T
	// cachedBytes tracks this dataset's contribution to the context's
	// cached-bytes gauge, so Unpersist can release exactly that much.
	cachedBytes int64
	// Out-of-core cache state (memory-budgeted contexts only): disk
	// runs for evicted partitions, the per-partition budget
	// reservations backing d.cached, and the eviction hook's
	// registration (see oocore.go).
	cachedDisk []spill.Run[T]
	cachedResv []int64
	codec      spill.Codec[T] // set by Persist: sizes and spills the cache
	unregEvict func()
	evictOnce  sync.Once
	persist    bool
	name       string
	// keyParts, when nonzero, records that the elements are Pairs
	// hash-partitioned by key into exactly this many partitions
	// (partition p holds the keys with partitionOf(k, keyParts) == p).
	// Joins and cogroups use it to skip the exchange for
	// co-partitioned sides, like Spark's partitioner-aware joins.
	keyParts int
}

// newSliceDataset wraps a materialized per-partition slice function
// (sources and shuffle outputs) as a Dataset.
func newSliceDataset[T any](ctx *Context, parts int, name string, deps []*Stage, rows func(part int) []T) *Dataset[T] {
	checkParts(parts, name)
	return &Dataset[T]{
		ctx: ctx, parts: parts, name: name, deps: deps,
		rows: rows,
		each: func(p int, emit func(T)) {
			for _, v := range rows(p) {
				emit(v)
			}
		},
	}
}

// newStreamDataset wraps a push-based per-partition stream (fused
// narrow operators) as a Dataset.
func newStreamDataset[T any](ctx *Context, parts int, name string, deps []*Stage, each func(part int, emit func(T))) *Dataset[T] {
	checkParts(parts, name)
	return &Dataset[T]{ctx: ctx, parts: parts, name: name, deps: deps, each: each}
}

func checkParts(parts int, name string) {
	if parts <= 0 {
		panic(fmt.Sprintf("dataflow: dataset %q with %d partitions", name, parts))
	}
}

// withKeyParts records the hash-partitioning of a keyed dataset.
func (d *Dataset[T]) withKeyParts(parts int) *Dataset[T] {
	d.keyParts = parts
	return d
}

// Context returns the owning context.
func (d *Dataset[T]) Context() *Context { return d.ctx }

// NumPartitions returns the partition count.
func (d *Dataset[T]) NumPartitions() int { return d.parts }

// Persist marks the dataset to cache partition contents on first
// computation, like RDD.cache. It panics if T has no registered codec.
func (d *Dataset[T]) Persist() *Dataset[T] {
	c := spill.For[T]()
	d.cacheMu.Lock()
	defer d.cacheMu.Unlock()
	d.persist, d.codec = true, c
	return d
}

// IsPersisted reports whether the dataset is marked for caching.
func (d *Dataset[T]) IsPersisted() bool {
	d.cacheMu.Lock()
	defer d.cacheMu.Unlock()
	return d.persist
}

// Unpersist drops the cache and the persist mark, releasing the bytes
// from the context's cached-bytes gauge. Iterative workloads call it on
// superseded iterates so the cache holds only live data; the dataset
// can still be recomputed from lineage afterwards.
func (d *Dataset[T]) Unpersist() *Dataset[T] {
	d.cacheMu.Lock()
	d.persist = false
	d.cached = nil
	var resv int64
	for p := range d.cachedResv {
		resv += d.cachedResv[p]
		d.cachedResv[p] = 0
	}
	for p := range d.cachedDisk {
		d.cachedDisk[p].Remove()
	}
	d.cachedDisk = nil
	d.ctx.metrics.c.CachedBytes.Add(-d.cachedBytes)
	d.cachedBytes = 0
	unreg := d.unregEvict
	d.unregEvict = nil
	d.cacheMu.Unlock()
	// Outside cacheMu: unregistration takes the manager's evictor lock
	// and Release wakes budget waiters; neither may nest under cacheMu.
	if unreg != nil {
		unreg()
	}
	if resv > 0 {
		d.ctx.mem.Release(resv)
	}
	return d
}

// forEach streams one partition into emit, preferring the cache and
// materialized rows over re-running the fused pipeline.
func (d *Dataset[T]) forEach(p int, emit func(T)) {
	d.cacheMu.Lock()
	if d.cached != nil && d.cached[p] != nil {
		rows := d.cached[p]
		d.cacheMu.Unlock()
		for _, v := range rows {
			emit(v)
		}
		return
	}
	persist := d.persist
	d.cacheMu.Unlock()
	if persist {
		for _, v := range d.partition(p) {
			emit(v)
		}
		return
	}
	d.each(p, emit)
}

// partition computes (or fetches from cache) one partition as a slice.
func (d *Dataset[T]) partition(p int) []T {
	d.cacheMu.Lock()
	if d.cached != nil && d.cached[p] != nil {
		rows := d.cached[p]
		d.cacheMu.Unlock()
		return rows
	}
	if d.cachedDisk != nil && d.cachedDisk[p].Path != "" {
		run := d.cachedDisk[p]
		d.cacheMu.Unlock()
		return appendRun(make([]T, 0, run.Rows), run, d.codec)
	}
	persist := d.persist
	d.cacheMu.Unlock()

	var rows []T
	if d.rows != nil {
		rows = d.rows(p)
	} else {
		d.each(p, func(v T) { rows = append(rows, v) })
	}
	if persist {
		rows = d.cacheStore(p, rows)
	}
	return rows
}

// sliceBytes is the encoded size of a partition's rows.
func sliceBytes[T any](c spill.Codec[T], rows []T) int64 {
	var b int64
	for _, v := range rows {
		b += c.Size(v)
	}
	return b
}

// runAction executes body as a result stage over d's dependencies:
// the scheduler first completes the dependency stages (independent
// ones concurrently), then runs the action's own tasks.
func (d *Dataset[T]) runAction(name string, body func(st *Stage)) {
	d.ctx.newStage(name+"("+d.name+")", d.deps, body).ensure()
}

// materialize computes the dataset's partitions in parallel on the worker
// pool and returns them by partition index. It counts as one stage. Each
// process computes the partitions it owns; the rest are gathered from
// their owners unless ownedOnly, where the consumer is outside the job —
// the driver assembling a query result — and they stay nil (see gather).
func (d *Dataset[T]) materialize(ownedOnly bool) [][]T {
	var out [][]T
	d.runAction("collect", func(st *Stage) {
		out = gather(d.ctx, st, 0, d.parts, !ownedOnly, func(p int) []T {
			rows := d.partition(p)
			st.noteIn(p, int64(len(rows)))
			st.recordsOut.Add(int64(len(rows)))
			return rows
		})
	})
	return out
}

// Parallelize distributes a slice over numPartitions partitions
// (contiguous ranges, like Spark's parallelize). numPartitions <= 0
// uses the context default.
func Parallelize[T any](ctx *Context, data []T, numPartitions int) *Dataset[T] {
	if numPartitions <= 0 {
		numPartitions = ctx.DefaultPartitions()
	}
	n := len(data)
	if numPartitions > n && n > 0 {
		numPartitions = n
	}
	if n == 0 {
		numPartitions = 1
	}
	return newSliceDataset(ctx, numPartitions, "parallelize", nil, func(p int) []T {
		lo := p * n / numPartitions
		hi := (p + 1) * n / numPartitions
		return data[lo:hi]
	})
}

// Generate creates a dataset whose partition contents are produced by
// gen(partition); used to build large inputs without a driver-side
// slice.
func Generate[T any](ctx *Context, numPartitions int, gen func(part int) []T) *Dataset[T] {
	if numPartitions <= 0 {
		numPartitions = ctx.DefaultPartitions()
	}
	return newSliceDataset(ctx, numPartitions, "generate", nil, gen)
}

// Map applies f to each element.
func Map[T, U any](d *Dataset[T], f func(T) U) *Dataset[U] {
	return newStreamDataset(d.ctx, d.parts, "map", d.deps, func(p int, emit func(U)) {
		d.forEach(p, func(v T) { emit(f(v)) })
	})
}

// Filter keeps elements satisfying pred.
func Filter[T any](d *Dataset[T], pred func(T) bool) *Dataset[T] {
	return newStreamDataset(d.ctx, d.parts, "filter", d.deps, func(p int, emit func(T)) {
		d.forEach(p, func(v T) {
			if pred(v) {
				emit(v)
			}
		})
	})
}

// FlatMap applies f and concatenates the results.
func FlatMap[T, U any](d *Dataset[T], f func(T) []U) *Dataset[U] {
	return newStreamDataset(d.ctx, d.parts, "flatMap", d.deps, func(p int, emit func(U)) {
		d.forEach(p, func(v T) {
			for _, u := range f(v) {
				emit(u)
			}
		})
	})
}

// FlatMapEmit is the push-native flatMap: f receives each element and
// an emit callback and may emit any number of outputs. Unlike FlatMap
// there is no intermediate result slice per element, so sparsifier-like
// expansions stream straight into the consuming sink.
func FlatMapEmit[T, U any](d *Dataset[T], f func(v T, emit func(U))) *Dataset[U] {
	return newStreamDataset(d.ctx, d.parts, "flatMapEmit", d.deps, func(p int, emit func(U)) {
		d.forEach(p, func(v T) { f(v, emit) })
	})
}

// Collect materializes the dataset and returns all elements in
// partition order.
func Collect[T any](d *Dataset[T]) []T {
	parts := d.materialize(false)
	var n int
	for _, p := range parts {
		n += len(p)
	}
	out := make([]T, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	d.ctx.metrics.c.CollectedRecords.Add(int64(n))
	return out
}

// OwnedPartition is one partition of a dataset, as the rank that owns it
// computed it.
type OwnedPartition[T any] struct {
	Part int
	Rows []T
}

// CollectOwned is Collect for a result that leaves the job: it runs the
// final stage for the partitions this rank owns and returns those, in
// partition order. The ranks' returns are disjoint and together are what
// Collect returns on each of them, so whoever assembles the result — the
// cluster driver — receives every partition once, and no rank receives
// any. A local context owns every partition.
func CollectOwned[T any](d *Dataset[T]) []OwnedPartition[T] {
	var out []OwnedPartition[T]
	var n int
	for p, rows := range d.materialize(true) {
		if d.ctx.owns(p) {
			out = append(out, OwnedPartition[T]{Part: p, Rows: rows})
			n += len(rows)
		}
	}
	d.ctx.metrics.c.CollectedRecords.Add(int64(n))
	return out
}

// Count returns the number of elements. The count streams through the
// fused pipeline without materializing partitions.
func Count[T any](d *Dataset[T]) int64 {
	var total int64
	d.runAction("count", func(st *Stage) {
		counts := make([]int64, d.parts) // each partition's partial, without an allocation of its own
		for _, c := range gather(d.ctx, st, 0, d.parts, true, func(p int) []int64 {
			var n int64
			d.forEach(p, func(T) { n++ })
			st.noteIn(p, n)
			counts[p] = n
			return counts[p : p+1]
		}) {
			total += c[0]
		}
	})
	return total
}

// Reduce folds all elements with the associative function f: each
// partition folds in parallel inside its task into a 0-or-1-element
// partial, and the partials merge in partition order. It panics on an
// empty dataset.
func Reduce[T any](d *Dataset[T], f func(T, T) T) T {
	var parts [][]T
	d.runAction("reduce", func(st *Stage) {
		partials := make([]T, d.parts)
		parts = gather(d.ctx, st, 0, d.parts, true, func(p int) []T {
			var n int64
			d.forEach(p, func(v T) {
				if n == 0 {
					partials[p] = v
				} else {
					partials[p] = f(partials[p], v)
				}
				n++
			})
			st.noteIn(p, n)
			if n == 0 {
				return nil
			}
			st.recordsOut.Add(1)
			return partials[p : p+1]
		})
	})
	var acc T
	any := false
	for _, partial := range parts {
		if len(partial) == 0 {
			continue
		}
		if !any {
			acc, any = partial[0], true
		} else {
			acc = f(acc, partial[0])
		}
	}
	if !any {
		panic("dataflow: Reduce of empty dataset")
	}
	return acc
}

// Aggregate folds all elements starting from zero; zero is used once
// per partition (folded inside the partition's task) and partials are
// merged in partition order.
func Aggregate[T, A any](d *Dataset[T], zero A, seq func(A, T) A, merge func(A, A) A) A {
	var parts [][]A
	d.runAction("aggregate", func(st *Stage) {
		partials := make([]A, d.parts)
		parts = gather(d.ctx, st, 0, d.parts, true, func(p int) []A {
			partial := zero
			var n int64
			d.forEach(p, func(v T) {
				n++
				partial = seq(partial, v)
			})
			st.noteIn(p, n)
			st.recordsOut.Add(1)
			partials[p] = partial
			return partials[p : p+1]
		})
	})
	acc := parts[0][0]
	for _, partial := range parts[1:] {
		acc = merge(acc, partial[0])
	}
	return acc
}

// Repartition redistributes elements round-robin into numPartitions
// partitions through a shuffle.
func Repartition[T any](d *Dataset[T], numPartitions int) *Dataset[T] {
	if numPartitions <= 0 {
		numPartitions = d.ctx.DefaultPartitions()
	}
	lb := newShuffle(d, "shuffle(repartition)", numPartitions, func(p int, tb *taskBuckets[T]) int64 {
		i := 0
		d.forEach(p, func(v T) {
			b := (p + i) % numPartitions
			i++
			tb.add(b, v)
		})
		return int64(i)
	})
	return newSliceDataset(d.ctx, numPartitions, "repartition", []*Stage{lb.stage}, lb.get)
}
