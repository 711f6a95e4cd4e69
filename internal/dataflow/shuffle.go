package dataflow

import (
	"sync"

	"repro/internal/spill"
)

// bucketed is one segment of a shuffle's map output: the rows one map
// task routed to one reduce bucket, in the order the task produced
// them. Under a memory budget a prefix of them may rest in run files,
// written in that same order, so runs followed by rows is the task's
// output order however often, and whenever, the segment was spilled.
type bucketed[T any] struct {
	rows  []T
	bytes int64 // encoded size of the rows routed here, spilled rows included
	runs  []spill.Run[T]
	// mem is the tracked size of rows: their encoded size while the task
	// fills the segment, the reservation it holds once the task has
	// finished.
	mem int64
}

// count is the number of rows routed to the segment.
func (b *bucketed[T]) count() int64 {
	n := int64(len(b.rows))
	for _, r := range b.runs {
		n += r.Rows
	}
	return n
}

// lazyBuckets is a shuffle: one store of map-output segments, written
// by the map-side stage and read back per reduce partition. The
// map-side runs as a first-class Stage; downstream datasets list that
// stage as a dependency, so the driver scheduler materializes it
// (concurrently with independent stages) before any task reads a
// partition.
//
// Where a segment rests is a property of the context, not a mode of
// the shuffle: with a memory budget segments reserve tracked bytes and
// spill to run files when refused (oocore.go); with a Transport a rank
// holds the segments of the map tasks it ran, publishes those its peers
// read, and fetches the others from their owners or recomputes them from
// lineage (cluster.go). The two stack. Either way partition p is the
// concatenation of seg[0][p], seg[1][p], ... in that order, so the
// reduce-side row order is a function of the map outputs alone.
type lazyBuckets[T any] struct {
	ctx   *Context
	parts int
	stage *Stage
	name  string
	// codec is the row type's: it sizes every routed row and writes the
	// rows to run files and to peers.
	codec spill.Codec[T]
	// fold, when set, opens the reduce-side combiner of one partition
	// read: absorb takes the segments' rows in map-task order, finish
	// returns the folded partition. ReduceByKey folds here, once per
	// kept partition, because combine functions may mutate their first
	// argument (the Spark contract); folding per downstream computation
	// would re-mutate the kept rows.
	fold func() (absorb func([]T), finish func() []T)
	// narrow marks a co-partitioned read that moves no data: map task m
	// fills only bucket m. It is excluded from the shuffle metrics.
	narrow bool

	// fill is the map side: it routes input partition m's rows into tb
	// and returns the input-record count. It runs once per map task
	// this rank owns, and again as the lineage recompute of a map task
	// whose owner is gone.
	srcParts int
	fill     func(m int, tb *taskBuckets[T]) int64

	// seg[m][b] is map task m's segment for reduce bucket b; seg[m] is
	// nil while this rank has not run map task m. got holds, under a
	// Transport, the blobs fetched from the owners of the map tasks this
	// rank did not run, keyed by (map task, rank whose buckets the blob
	// holds), so a blob crosses to a rank once (cluster.go). mu guards the
	// seg[m] slots and got; column p of every seg[m] and of every filed
	// blob belongs to whoever holds pmu[p].
	mu    sync.Mutex
	seg   [][]bucketed[T]
	got   map[[2]int]*fetchedBlob[T]
	recMu sync.Mutex // one lineage recompute at a time

	// pmu[p] serializes reads of reduce partition p against each other
	// and against the evictor. out[p] is the assembled partition once
	// done[p]; a partition with spilled segments is never kept, its
	// runs stay the canonical copy and every read decodes them afresh.
	pmu  []sync.Mutex
	out  [][]T
	done []bool
}

// newShuffle builds the shuffle of d into parts reduce partitions and
// its map-side stage. It panics if T has no registered codec.
func newShuffle[T any](d *Dataset[T], name string, parts int, fill func(m int, tb *taskBuckets[T]) int64) *lazyBuckets[T] {
	s := &lazyBuckets[T]{ctx: d.ctx, parts: parts, name: name, codec: spill.For[T](), srcParts: d.parts, fill: fill,
		pmu: make([]sync.Mutex, parts), out: make([][]T, parts), done: make([]bool, parts)}
	s.stage = d.ctx.newStage(name, d.deps, s.runMapSide)
	return s
}

// runMapSide is the map-side stage body: every map task this rank owns
// fills its segments through the one writer, then the stage accounts
// for what it produced and opens the store to eviction.
func (s *lazyBuckets[T]) runMapSide(st *Stage) {
	s.seg = make([][]bucketed[T], s.srcParts)
	s.ctx.runTasksOwned(st, 0, s.srcParts, func(m int) {
		in, sg := s.runTask(m)
		st.noteIn(m, in)
		s.publish(m, sg)
	})
	var recs, bytes int64
	for _, sg := range s.seg {
		for b := range sg {
			recs += sg[b].count()
			bytes += sg[b].bytes
		}
	}
	st.recordsOut.Add(recs)
	st.shuffledBytes.Add(bytes)
	if !s.narrow {
		s.ctx.metrics.c.Shuffles.Add(1)
		s.ctx.metrics.c.ShuffledRecords.Add(recs)
		s.ctx.metrics.c.ShuffledBytes.Add(bytes)
		s.ctx.mem.RegisterEvictor(s.evict)
	}
}

// runTask runs map task m through the writer and stores its segments.
func (s *lazyBuckets[T]) runTask(m int) (int64, []bucketed[T]) {
	tb := s.newTask()
	in := s.fill(m, tb)
	tb.finish()
	s.mu.Lock()
	s.seg[m] = tb.buckets
	s.mu.Unlock()
	return in, tb.buckets
}

// column returns column p of the segments of map tasks lo..hi-1: the
// task's own where this rank ran it, else the one a filed blob brought,
// else nil.
func (s *lazyBuckets[T]) column(p, lo, hi int) []*bucketed[T] {
	cols := make([]*bucketed[T], hi-lo)
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range cols {
		if sg := s.seg[lo+i]; sg != nil {
			cols[i] = &sg[p]
		} else if len(s.got) > 0 {
			if f := s.got[[2]int{lo + i, p % s.ctx.conf.Transport.World()}]; f != nil && f.segs != nil {
				cols[i] = &f.segs[p]
			}
		}
	}
	return cols
}

// resting returns every segment of partition b this rank holds, its map
// tasks' and its filed blobs', for the evictor.
func (s *lazyBuckets[T]) resting(b int) []*bucketed[T] {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*bucketed[T]
	for _, sg := range s.seg {
		if sg != nil {
			out = append(out, &sg[b])
		}
	}
	for _, f := range s.got {
		if f.segs != nil {
			out = append(out, &f.segs[b])
		}
	}
	return out
}

// get reads one reduce partition: every map task's segment for it, in
// map-task order, through the reduce-side fold when there is one. The
// stage must have run (it is a dependency of every downstream dataset);
// tasks never trigger it.
//
// A partition none of whose segments has spilled is assembled once and
// kept, taking over the segments' rows and reservations. One with a
// spilled segment is never kept: the rest of its tracked segments go to
// disk too, every read decodes the runs afresh — so a fold that mutates
// its input can run again — and the rows are the consumer's.
func (s *lazyBuckets[T]) get(p int) []T {
	if s.seg == nil {
		panic("dataflow: shuffle read before its stage ran")
	}
	s.pmu[p].Lock()
	defer s.pmu[p].Unlock()
	if s.done[p] {
		return s.out[p]
	}
	lo, hi := 0, s.srcParts
	if s.narrow {
		lo, hi = p, p+1
	}
	cols := s.column(p, lo, hi)
	s.fetchRemote(p, lo, cols)
	total, onDisk := 0, false
	for _, bk := range cols {
		total += int(bk.count())
		onDisk = onDisk || len(bk.runs) > 0
	}
	var rows []T
	absorb, finish := func(seg []T) { rows = append(rows, seg...) }, func() []T { return rows }
	if s.fold != nil {
		absorb, finish = s.fold()
	} else {
		rows = make([]T, 0, total)
	}
	var held int64
	for _, bk := range cols {
		if onDisk {
			freed, err := s.spill(bk)
			if err != nil {
				panic(err)
			}
			s.ctx.mem.Release(freed)
		}
		absorb(s.read(bk))
		if !onDisk {
			held += bk.mem
			bk.rows, bk.mem = nil, 0
		}
	}
	rows = finish()
	if onDisk {
		s.ctx.metrics.c.MergePasses.Add(1)
		return rows
	}
	if s.fold != nil && held > 0 {
		if after := sliceBytes(s.codec, rows); after < held {
			s.ctx.mem.Release(held - after)
		}
	}
	s.out[p], s.done[p] = rows, true
	return rows
}

// exchange routes every element of d into numPartitions buckets inside
// a shuffle map stage, fusing d's narrow-operator chain into the
// bucket-write sink. keyed marks the route as hash-by-key: when d is
// already hash-partitioned by key into numPartitions partitions, the
// exchange degrades to an in-place narrow read (like Spark's
// partitioner-aware joins) — map task p hands its whole partition to
// bucket p, which the same rank reads back, so nothing moves.
func exchange[T any](d *Dataset[T], numPartitions int, route func(T) int, keyed bool) *lazyBuckets[T] {
	if keyed && d.keyParts == numPartitions {
		lb := newShuffle(d, "narrow-read("+d.name+")", numPartitions, func(m int, tb *taskBuckets[T]) int64 {
			tb.buckets[m].rows = d.partition(m)
			return int64(len(tb.buckets[m].rows))
		})
		lb.narrow = true
		return lb
	}
	return newShuffle(d, "shuffle("+d.name+")", numPartitions, func(p int, tb *taskBuckets[T]) int64 {
		var in int64
		d.forEach(p, func(v T) {
			in++
			tb.add(route(v), v)
		})
		return in
	})
}

// Pair is a key-value record, the element type of all keyed operations.
type Pair[K comparable, V any] struct {
	Key   K
	Value V
}

// KV constructs a Pair.
func KV[K comparable, V any](k K, v V) Pair[K, V] { return Pair[K, V]{Key: k, Value: v} }

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
	flushAt := combinerFlushBytes(d.ctx)
	lb := newShuffle(d, "shuffle(reduceByKey)", numPartitions, func(p int, tb *taskBuckets[Pair[K, V]]) int64 {
		// Map-side combine; under a memory budget the accumulator
		// flushes to the buckets whenever its working set exceeds the
		// per-task allowance, trading shuffle volume for a bounded
		// map-side footprint.
		acc := make(map[K]V)
		order := make([]K, 0)
		var accBytes int64
		flush := func() {
			for _, k := range order {
				kv := KV(k, acc[k])
				tb.add(partitionOf(k, numPartitions), kv)
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
				accBytes += tb.lb.codec.Size(kv)
				if accBytes >= flushAt {
					flush()
				}
			}
		})
		flush()
		return in
	})
	// Reduce side: fold the shuffled partials per key, in first-seen key
	// order.
	lb.fold = func() (func([]Pair[K, V]), func() []Pair[K, V]) {
		acc := make(map[K]V)
		var order []K
		absorb := func(rows []Pair[K, V]) {
			for _, kv := range rows {
				if old, ok := acc[kv.Key]; ok {
					acc[kv.Key] = combine(old, kv.Value)
				} else {
					acc[kv.Key] = kv.Value
					order = append(order, kv.Key)
				}
			}
		}
		finish := func() []Pair[K, V] {
			out := make([]Pair[K, V], len(order))
			for i, k := range order {
				out[i] = KV(k, acc[k])
			}
			return out
		}
		return absorb, finish
	}
	return newSliceDataset(d.ctx, numPartitions, "reduceByKey", []*Stage{lb.stage}, lb.get).
		withKeyParts(numPartitions)
}

// GroupByKey collects all values per key into a slice. Unlike
// ReduceByKey there is no map-side combining: every record crosses the
// shuffle, which is exactly the cost difference the paper's Rule (13)
// exploits.
func GroupByKey[K comparable, V any](d *Dataset[Pair[K, V]], numPartitions int) *Dataset[Pair[K, []V]] {
	if numPartitions <= 0 {
		numPartitions = d.ctx.DefaultPartitions()
	}
	lb := exchange(d, numPartitions, pairRoute[K, V](numPartitions), true)
	ds := newStreamDataset(d.ctx, numPartitions, "groupByKey", []*Stage{lb.stage},
		func(p int, emit func(Pair[K, []V])) {
			acc := make(map[K][]V)
			order := make([]K, 0)
			for _, kv := range lb.get(p) {
				if _, ok := acc[kv.Key]; !ok {
					order = append(order, kv.Key)
				}
				acc[kv.Key] = append(acc[kv.Key], kv.Value)
			}
			for _, k := range order {
				emit(KV(k, acc[k]))
			}
		})
	return ds.withKeyParts(numPartitions)
}

// FillKeys returns d with (k, zero()) added for every key k in [0, n)
// that d lacks: a dense index space (the blocks of a vector) whose
// producer skips the keys nothing contributed to. A missing key is
// emitted in the partition it hashes to, on the reduce side — in place
// when d is already hash-partitioned by key, after an exchange by key
// otherwise — so nothing is gathered to the driver.
func FillKeys[V any](d *Dataset[Pair[int64, V]], n int64, zero func() V) *Dataset[Pair[int64, V]] {
	parts := d.parts
	if d.keyParts != parts {
		lb := exchange(d, parts, pairRoute[int64, V](parts), true)
		d = newSliceDataset(d.ctx, parts, "partitionByKey", []*Stage{lb.stage}, lb.get)
	}
	return newStreamDataset(d.ctx, parts, "fillKeys", d.deps, func(p int, emit func(Pair[int64, V])) {
		seen := make(map[int64]bool)
		d.forEach(p, func(kv Pair[int64, V]) {
			seen[kv.Key] = true
			emit(kv)
		})
		for k := int64(0); k < n; k++ {
			if !seen[k] && partitionOf(k, parts) == p {
				emit(KV(k, zero()))
			}
		}
	}).withKeyParts(parts)
}

// JoinedPair is one match of an inner join.
type JoinedPair[A, B any] struct {
	Left  A
	Right B
}

// Join computes the inner equi-join of two pair datasets. Both sides
// are hash-shuffled into co-partitioned buckets — the two map-side
// stages are independent, so the scheduler runs them concurrently —
// and joined with an in-memory hash join per bucket.
func Join[K comparable, A, B any](left *Dataset[Pair[K, A]], right *Dataset[Pair[K, B]], numPartitions int) *Dataset[Pair[K, JoinedPair[A, B]]] {
	if numPartitions <= 0 {
		numPartitions = left.ctx.DefaultPartitions()
	}
	lb := exchange(left, numPartitions, pairRoute[K, A](numPartitions), true)
	rb := exchange(right, numPartitions, pairRoute[K, B](numPartitions), true)
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
	lb := exchange(left, numPartitions, func(p Pair[K, A]) int { return route(p.Key) }, hashed)
	rb := exchange(right, numPartitions, func(p Pair[K, B]) int { return route(p.Key) }, hashed)
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
