package dataflow

// bucketed is the map-side output of one task for one reduce bucket.
type bucketed[T any] struct {
	rows  []T
	bytes int64
}

// lazyBuckets is materialized shuffle output: for each reduce partition
// the rows routed to it. The map-side runs as a first-class Stage;
// downstream datasets list that stage as a dependency, so the driver
// scheduler materializes it (concurrently with independent stages)
// before any task reads a bucket.
type lazyBuckets[T any] struct {
	ctx     *Context
	parts   int
	stage   *Stage
	name    string
	buckets [][]T
	// post, when set, transforms each bucket exactly once during
	// materialization. ReduceByKey folds here because combine
	// functions may mutate their first argument (the Spark contract);
	// folding lazily per downstream computation would re-mutate the
	// cached bucket rows.
	post func([]T) []T
	// narrow marks a co-partitioned read that moves no data; it is
	// excluded from the shuffle metrics.
	narrow bool
	// spill, when non-nil (context has a memory budget), lets the
	// buckets overflow to sorted run files; see oocore.go.
	spill *spillState[T]
	// spmd, when non-nil (context has a cluster transport), replaces
	// the in-memory buckets with published blobs fetched from the
	// owning ranks; see cluster.go.
	spmd *spmdState[T]
	// adapt, when non-nil, opts the shuffle into adaptive stage-boundary
	// rebalancing; it maps a row to its key-group ordinal, the unit that
	// must move between buckets atomically. See adaptive.go.
	adapt func(T) uint64
}

// merge concatenates the per-parent bucket outputs into reduce
// partitions and records shuffle metrics. It runs at the end of the
// shuffle stage's body.
func (s *lazyBuckets[T]) merge(st *Stage, outputs [][]bucketed[T]) {
	s.buckets = make([][]T, s.parts)
	var recs, bytes int64
	for _, parent := range outputs {
		for b := range parent {
			s.buckets[b] = append(s.buckets[b], parent[b].rows...)
			recs += int64(len(parent[b].rows))
			bytes += parent[b].bytes
		}
	}
	st.recordsOut.Add(recs)
	st.shuffledBytes.Add(bytes)
	if !s.narrow {
		s.ctx.metrics.shuffles.Add(1)
		s.ctx.metrics.shuffledRecords.Add(recs)
		s.ctx.metrics.shuffledBytes.Add(bytes)
		s.ctx.chargeShuffleCost(bytes)
	}
	if s.post != nil {
		for b := range s.buckets {
			s.buckets[b] = s.post(s.buckets[b])
		}
	}
	// Post runs first so the histogram sees the folded sizes (one row
	// per key for reduceByKey), not the pre-combine volume.
	s.rebalance()
}

// get reads one reduce partition. The stage must have run (it is a
// dependency of every downstream dataset); tasks never trigger it.
// Budgeted partitions with spilled runs external-merge them first.
func (s *lazyBuckets[T]) get(p int) []T {
	if s.spmd != nil {
		return s.getSPMD(p)
	}
	if s.buckets == nil {
		panic("dataflow: shuffle read before its stage ran")
	}
	if s.spill != nil {
		return s.getSpilled(p)
	}
	return s.buckets[p]
}

// exchange routes every element of d into numPartitions buckets inside
// a shuffle map stage, fusing d's narrow-operator chain into the
// bucket-write sink. keyed marks the route as hash-by-key: when d is
// already hash-partitioned by key into numPartitions partitions, the
// exchange degrades to an in-place narrow read (like Spark's
// partitioner-aware joins). ord is the spill sort key used when a
// memory budget forces the buckets out of core.
func exchange[T any](d *Dataset[T], numPartitions int, route func(T) int, ord func(T) uint64, keyed bool) *lazyBuckets[T] {
	lb := &lazyBuckets[T]{ctx: d.ctx, parts: numPartitions}
	if keyed && d.keyParts == numPartitions {
		lb.narrow = true
		lb.name = "narrow-read(" + d.name + ")"
		if d.ctx.conf.Transport != nil {
			// Distributed: map task p fills exactly bucket p, and both
			// share the owner rank, so the published bucket is read back
			// locally — a narrow read still moves nothing.
			lb.stage = d.ctx.newStage(lb.name, d.deps, func(st *Stage) {
				lb.runSPMD(st, d.parts, func(m int) ([]bucketed[T], int64) {
					buckets := make([]bucketed[T], numPartitions)
					buckets[m].rows = d.partition(m)
					return buckets, int64(len(buckets[m].rows))
				})
			})
			return lb
		}
		lb.stage = d.ctx.newStage(lb.name, d.deps, func(st *Stage) {
			outputs := make([][]bucketed[T], d.parts)
			d.ctx.runTasks(st, d.parts, func(p int) {
				buckets := make([]bucketed[T], numPartitions)
				buckets[p].rows = d.partition(p)
				st.noteIn(p, int64(len(buckets[p].rows)))
				outputs[p] = buckets
			})
			lb.merge(st, outputs)
		})
		return lb
	}
	lb.withSpill("shuffle("+d.name+")", ord)
	lb.stage = d.ctx.newStage(lb.name, d.deps, func(st *Stage) {
		lb.runMapSide(st, d.parts, func(p int, tb *taskBuckets[T]) int64 {
			var in int64
			d.forEach(p, func(v T) {
				in++
				tb.add(route(v), v, estimateSize(v))
			})
			return in
		})
	})
	return lb
}

// Pair is a key-value record, the element type of all keyed operations.
type Pair[K comparable, V any] struct {
	Key   K
	Value V
}

// KV constructs a Pair.
func KV[K comparable, V any](k K, v V) Pair[K, V] { return Pair[K, V]{Key: k, Value: v} }

// NumBytes lets pairs participate in shuffle accounting.
func (p Pair[K, V]) NumBytes() int64 {
	return estimateSize(p.Key) + estimateSize(p.Value)
}

// pairRoute returns the hash route function for pairs.
func pairRoute[K comparable, V any](numPartitions int) func(Pair[K, V]) int {
	return func(p Pair[K, V]) int { return partitionOf(p.Key, numPartitions) }
}

// ReduceByKey merges values sharing a key with the associative,
// commutative function combine. Values are partially combined on the
// map side before the shuffle (Spark's reduceByKey) — the combine sink
// sits at the end of the fused narrow chain — so shuffle volume is one
// record per (input partition, distinct key).
func ReduceByKey[K comparable, V any](d *Dataset[Pair[K, V]], combine func(V, V) V, numPartitions int) *Dataset[Pair[K, V]] {
	if numPartitions <= 0 {
		numPartitions = d.ctx.DefaultPartitions()
	}
	lb := (&lazyBuckets[Pair[K, V]]{ctx: d.ctx, parts: numPartitions}).
		withSpill("shuffle(reduceByKey)", pairOrd[K, V]).
		withAdapt(pairOrd[K, V])
	// Reduce side: fold the shuffled partials per key, exactly once
	// (combine may mutate its first argument). Installed before the
	// stage body so the budgeted path can fold run-free partitions at
	// stage end and spilled ones during their merged read.
	lb.post = func(rows []Pair[K, V]) []Pair[K, V] {
		return foldPairs(rows, combine)
	}
	flushAt := combinerFlushBytes(d.ctx)
	lb.stage = d.ctx.newStage(lb.name, d.deps, func(st *Stage) {
		lb.runMapSide(st, d.parts, func(p int, tb *taskBuckets[Pair[K, V]]) int64 {
			// Map-side combine; under a memory budget the accumulator
			// flushes to the buckets whenever its working set exceeds
			// the per-task allowance, trading shuffle volume for a
			// bounded map-side footprint.
			acc := make(map[K]V)
			order := make([]K, 0)
			var accBytes int64
			flush := func() {
				for _, k := range order {
					kv := KV(k, acc[k])
					tb.add(partitionOf(k, numPartitions), kv, kv.NumBytes())
				}
				acc = make(map[K]V)
				order = order[:0]
				accBytes = 0
			}
			var in int64
			d.forEach(p, func(kv Pair[K, V]) {
				in++
				if old, ok := acc[kv.Key]; ok {
					acc[kv.Key] = combine(old, kv.Value)
				} else {
					acc[kv.Key] = kv.Value
					order = append(order, kv.Key)
					accBytes += kv.NumBytes()
					if accBytes >= flushAt {
						flush()
					}
				}
			})
			flush()
			return in
		})
	})
	out := newSliceDataset(d.ctx, numPartitions, "reduceByKey", []*Stage{lb.stage}, lb.get)
	if lb.mayAdapt() {
		// Rebalancing may move keys off their hash bucket, so the output
		// is no longer hash-co-partitioned: downstream keyed operators
		// must do a full exchange rather than a narrow read.
		return out
	}
	return out.withKeyParts(numPartitions)
}

// foldPairs merges a slice of pairs by key preserving first-seen key
// order, folding values with combine.
func foldPairs[K comparable, V any](rows []Pair[K, V], combine func(V, V) V) []Pair[K, V] {
	acc := make(map[K]V, len(rows))
	order := make([]K, 0, len(rows))
	for _, kv := range rows {
		if old, ok := acc[kv.Key]; ok {
			acc[kv.Key] = combine(old, kv.Value)
		} else {
			acc[kv.Key] = kv.Value
			order = append(order, kv.Key)
		}
	}
	out := make([]Pair[K, V], len(order))
	for i, k := range order {
		out[i] = KV(k, acc[k])
	}
	return out
}

// GroupByKey collects all values per key into a slice. Unlike
// ReduceByKey there is no map-side combining: every record crosses the
// shuffle, which is exactly the cost difference the paper's Rule (13)
// exploits.
func GroupByKey[K comparable, V any](d *Dataset[Pair[K, V]], numPartitions int) *Dataset[Pair[K, []V]] {
	if numPartitions <= 0 {
		numPartitions = d.ctx.DefaultPartitions()
	}
	lb := exchange(d, numPartitions, pairRoute[K, V](numPartitions), pairOrd[K, V], true).
		withAdapt(pairOrd[K, V])
	ds := newStreamDataset(d.ctx, numPartitions, "groupByKey", []*Stage{lb.stage},
		func(p int, emit func(Pair[K, []V])) {
			if lb.spill != nil {
				// Budgeted: stream maximal equal-hash groups off the
				// external merge — every record of a key arrives inside
				// one group, so grouping is group-local and the whole
				// partition never materializes at once.
				lb.eachHashGroup(p, func(g []Pair[K, V]) { emitGroups(g, emit) })
				return
			}
			rows := lb.get(p)
			acc := make(map[K][]V)
			order := make([]K, 0)
			for _, kv := range rows {
				if _, ok := acc[kv.Key]; !ok {
					order = append(order, kv.Key)
				}
				acc[kv.Key] = append(acc[kv.Key], kv.Value)
			}
			for _, k := range order {
				emit(KV(k, acc[k]))
			}
		})
	if lb.mayAdapt() {
		return ds // rebalancing breaks hash-co-partitioning; see ReduceByKey
	}
	return ds.withKeyParts(numPartitions)
}

// emitGroups turns one maximal equal-hash group of pairs into grouped
// records. Hash collisions mean distinct keys can share a group, so the
// general case still splits by exact key; the overwhelmingly common
// single-key group takes the copy-only fast paths. The input slice is
// reused by the merge and never retained.
func emitGroups[K comparable, V any](g []Pair[K, V], emit func(Pair[K, []V])) {
	if len(g) == 1 {
		emit(KV(g[0].Key, []V{g[0].Value}))
		return
	}
	oneKey := true
	for _, kv := range g[1:] {
		if kv.Key != g[0].Key {
			oneKey = false
			break
		}
	}
	if oneKey {
		vs := make([]V, len(g))
		for i, kv := range g {
			vs[i] = kv.Value
		}
		emit(KV(g[0].Key, vs))
		return
	}
	acc := make(map[K][]V, 2)
	order := make([]K, 0, 2)
	for _, kv := range g {
		if _, ok := acc[kv.Key]; !ok {
			order = append(order, kv.Key)
		}
		acc[kv.Key] = append(acc[kv.Key], kv.Value)
	}
	for _, k := range order {
		emit(KV(k, acc[k]))
	}
}

// AggregateByKey folds values per key into an accumulator of a
// different type, with map-side partial aggregation.
func AggregateByKey[K comparable, V, A any](d *Dataset[Pair[K, V]], zero func() A, seq func(A, V) A, merge func(A, A) A, numPartitions int) *Dataset[Pair[K, A]] {
	partials := MapPartitions(d, func(_ int, rows []Pair[K, V]) []Pair[K, A] {
		acc := make(map[K]A, len(rows))
		order := make([]K, 0)
		for _, kv := range rows {
			a, ok := acc[kv.Key]
			if !ok {
				a = zero()
				order = append(order, kv.Key)
			}
			acc[kv.Key] = seq(a, kv.Value)
		}
		out := make([]Pair[K, A], len(order))
		for i, k := range order {
			out[i] = KV(k, acc[k])
		}
		return out
	})
	return ReduceByKey(partials, merge, numPartitions)
}

// MapValues transforms the value of each pair, keeping the key; the
// partitioning survives (keys are untouched), so downstream joins on
// the result stay narrow.
func MapValues[K comparable, V, W any](d *Dataset[Pair[K, V]], f func(V) W) *Dataset[Pair[K, W]] {
	out := Map(d, func(p Pair[K, V]) Pair[K, W] { return KV(p.Key, f(p.Value)) })
	return out.withKeyParts(d.keyParts)
}

// Keys projects the keys of a pair dataset.
func Keys[K comparable, V any](d *Dataset[Pair[K, V]]) *Dataset[K] {
	return Map(d, func(p Pair[K, V]) K { return p.Key })
}

// Values projects the values of a pair dataset.
func Values[K comparable, V any](d *Dataset[Pair[K, V]]) *Dataset[V] {
	return Map(d, func(p Pair[K, V]) V { return p.Value })
}

// JoinedPair is one match of an inner join.
type JoinedPair[A, B any] struct {
	Left  A
	Right B
}

// NumBytes reports the combined payload so join outputs size correctly
// when they cross a later shuffle or land in a Persist cache.
func (j JoinedPair[A, B]) NumBytes() int64 {
	return estimateSize(j.Left) + estimateSize(j.Right)
}

// Join computes the inner equi-join of two pair datasets. Both sides
// are hash-shuffled into co-partitioned buckets — the two map-side
// stages are independent, so the scheduler runs them concurrently —
// and joined with an in-memory hash join per bucket.
func Join[K comparable, A, B any](left *Dataset[Pair[K, A]], right *Dataset[Pair[K, B]], numPartitions int) *Dataset[Pair[K, JoinedPair[A, B]]] {
	if numPartitions <= 0 {
		numPartitions = left.ctx.DefaultPartitions()
	}
	lb := exchange(left, numPartitions, pairRoute[K, A](numPartitions), pairOrd[K, A], true)
	rb := exchange(right, numPartitions, pairRoute[K, B](numPartitions), pairOrd[K, B], true)
	return newStreamDataset(left.ctx, numPartitions, "join", []*Stage{lb.stage, rb.stage},
		func(p int, emit func(Pair[K, JoinedPair[A, B]])) {
			ls := lb.get(p)
			rs := rb.get(p)
			table := make(map[K][]A, len(ls))
			for _, kv := range ls {
				table[kv.Key] = append(table[kv.Key], kv.Value)
			}
			for _, kv := range rs {
				for _, a := range table[kv.Key] {
					emit(KV(kv.Key, JoinedPair[A, B]{Left: a, Right: kv.Value}))
				}
			}
		})
}

// CoGrouped holds, for one key, all left and right values.
type CoGrouped[A, B any] struct {
	Left  []A
	Right []B
}

// NumBytes sums both groups' payloads so cogrouped values size
// correctly in downstream shuffle and cache accounting.
func (g CoGrouped[A, B]) NumBytes() int64 {
	var n int64
	for i := range g.Left {
		n += estimateSize(g.Left[i])
	}
	for i := range g.Right {
		n += estimateSize(g.Right[i])
	}
	return n
}

// CoGroup groups both datasets by key simultaneously, like Spark's
// cogroup; keys present on either side appear in the output. As with
// Join, the two map-side stages run concurrently.
func CoGroup[K comparable, A, B any](left *Dataset[Pair[K, A]], right *Dataset[Pair[K, B]], numPartitions int) *Dataset[Pair[K, CoGrouped[A, B]]] {
	if numPartitions <= 0 {
		numPartitions = left.ctx.DefaultPartitions()
	}
	hash := func(k K) int { return partitionOf(k, numPartitions) }
	return coGroup(left, right, numPartitions, hash, true)
}

// CoGroupRouted is CoGroup with the caller placing the keys: route maps
// a key to its reduce partition in [0, numPartitions) and must be a
// pure function of the key. A caller that knows its key space (the
// SUMMA processor grid) can spread it evenly where the hash router
// would collide a handful of keys into fewer partitions. Both inputs
// always cross a full exchange, and the output is not hash-partitioned
// by key, so downstream keyed operators exchange it again.
func CoGroupRouted[K comparable, A, B any](left *Dataset[Pair[K, A]], right *Dataset[Pair[K, B]], numPartitions int, route func(K) int) *Dataset[Pair[K, CoGrouped[A, B]]] {
	return coGroup(left, right, numPartitions, route, false)
}

func coGroup[K comparable, A, B any](left *Dataset[Pair[K, A]], right *Dataset[Pair[K, B]], numPartitions int, route func(K) int, hashed bool) *Dataset[Pair[K, CoGrouped[A, B]]] {
	lb := exchange(left, numPartitions, func(p Pair[K, A]) int { return route(p.Key) }, pairOrd[K, A], hashed)
	rb := exchange(right, numPartitions, func(p Pair[K, B]) int { return route(p.Key) }, pairOrd[K, B], hashed)
	return newStreamDataset(left.ctx, numPartitions, "cogroup", []*Stage{lb.stage, rb.stage},
		func(p int, emit func(Pair[K, CoGrouped[A, B]])) {
			ls := lb.get(p)
			rs := rb.get(p)
			acc := make(map[K]*CoGrouped[A, B])
			order := make([]K, 0)
			get := func(k K) *CoGrouped[A, B] {
				g, ok := acc[k]
				if !ok {
					g = &CoGrouped[A, B]{}
					acc[k] = g
					order = append(order, k)
				}
				return g
			}
			for _, kv := range ls {
				g := get(kv.Key)
				g.Left = append(g.Left, kv.Value)
			}
			for _, kv := range rs {
				g := get(kv.Key)
				g.Right = append(g.Right, kv.Value)
			}
			for _, k := range order {
				emit(KV(k, *acc[k]))
			}
		})
}

// PartitionByKey hash-shuffles a pair dataset so that all records of a
// key land in the same partition (Spark's partitionBy).
func PartitionByKey[K comparable, V any](d *Dataset[Pair[K, V]], numPartitions int) *Dataset[Pair[K, V]] {
	if numPartitions <= 0 {
		numPartitions = d.ctx.DefaultPartitions()
	}
	lb := exchange(d, numPartitions, pairRoute[K, V](numPartitions), pairOrd[K, V], true).
		withAdapt(pairOrd[K, V])
	out := newSliceDataset(d.ctx, numPartitions, "partitionBy", []*Stage{lb.stage}, lb.get)
	if lb.mayAdapt() {
		return out // rebalancing breaks hash-co-partitioning; see ReduceByKey
	}
	return out.withKeyParts(numPartitions)
}

// CollectAsMap collects a pair dataset into a map; later duplicates of
// a key overwrite earlier ones.
func CollectAsMap[K comparable, V any](d *Dataset[Pair[K, V]]) map[K]V {
	rows := Collect(d)
	m := make(map[K]V, len(rows))
	for _, kv := range rows {
		m[kv.Key] = kv.Value
	}
	return m
}

// CountByKey returns the number of records per key.
func CountByKey[K comparable, V any](d *Dataset[Pair[K, V]]) map[K]int64 {
	counts := ReduceByKey(MapValues(d, func(V) int64 { return 1 }), func(a, b int64) int64 { return a + b }, 0)
	return CollectAsMap(counts)
}
