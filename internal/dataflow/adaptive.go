package dataflow

import (
	"sort"

	"repro/internal/spill"
)

// This file implements adaptive stage boundaries: after a shuffle's
// map side completes, the engine inspects the store's rows-per-bucket
// histogram and, when one bucket is lopsided, re-routes whole key groups
// out of the argmax bucket into the smallest ones before any reduce
// task runs. One pass both splits the hot bucket and fills the tiny
// ones; the partition *count* never changes, so downstream lineage is
// untouched.
//
// Correctness hinges on moving only whole ord-groups (all rows whose
// ordinal — a hash of the key — is equal): per-partition grouping and
// folding then still see every record of a key in one bucket, in the
// order the map tasks produced them, so results are exactly those of
// the static plan, merely distributed differently. The moved rows go
// back through the shuffle writer, so under a memory budget they
// reserve and spill like any map output. The rebalance is skipped on
// narrow reads (nothing to move) and under a cluster transport: every
// rank would have to reach the same decision from a histogram no rank
// holds whole, and exchanging one is a protocol this engine does not
// have.

// adaptiveMinRows is the record count the hot bucket must reach before
// rebalancing is considered, so tiny shuffles are never touched.
const adaptiveMinRows = 32

// adaptiveEnabled reports whether this context rebalances shuffle
// buckets at stage boundaries. Never under SPMD: a rank sees only its
// own map tasks' share of the histogram, and diverging bucket layouts
// across ranks would break the deterministic-graph contract.
func (c *Context) adaptiveEnabled() bool {
	return c.conf.AdaptiveShuffle && c.conf.Transport == nil
}

// pairOrd is a pair's key-group ordinal: the hash of its key.
func pairOrd[K comparable, V any](p Pair[K, V]) uint64 { return hashAny(p.Key) }

// withAdapt opts this shuffle into adaptive rebalancing, using ord to
// delimit the groups that must move atomically. No-op when the context
// is static.
func (s *lazyBuckets[T]) withAdapt(ord func(T) uint64) *lazyBuckets[T] {
	if s.ctx.adaptiveEnabled() {
		s.adapt = ord
	}
	return s
}

// mayAdapt reports whether this shuffle's buckets can be rebalanced —
// decidable at construction time, so callers also use it to decide
// whether the output is still co-partitioned by key (it is not once
// rows may move between buckets).
func (s *lazyBuckets[T]) mayAdapt() bool {
	return s.adapt != nil && !s.narrow && s.parts > 1
}

// rebalance runs once per shuffle, single-threaded, at the end of the
// map-side stage body (before any reduce task reads a bucket). It fires
// only when the hot bucket is both absolutely large (adaptiveMinRows)
// and relatively skewed (DefaultSkewThreshold × the median), then
// greedily moves the hot bucket's largest key groups to the smallest
// buckets while each move strictly improves balance. A single giant key
// is unsplittable and stays put.
func (s *lazyBuckets[T]) rebalance() {
	if !s.mayAdapt() {
		return
	}
	sizes := make([]int64, s.parts)
	for _, sg := range s.seg {
		for b := range sg {
			sizes[b] += sg[b].count()
		}
	}
	before := summarizeDist(append([]int64(nil), sizes...), nil)
	hot := before.ArgMax
	p50 := before.P50
	if p50 < 1 {
		p50 = 1
	}
	if before.Max < adaptiveMinRows ||
		float64(before.Max) <= DefaultSkewThreshold*float64(p50) {
		return
	}

	// Size the hot bucket's ord-groups, numbered in first-seen order.
	hotRows := make([][]T, len(s.seg))
	idx := make(map[uint64]int)
	var groups []int64
	for m, sg := range s.seg {
		hotRows[m] = s.read(&sg[hot])
		for _, r := range hotRows[m] {
			o := s.adapt(r)
			g, ok := idx[o]
			if !ok {
				g = len(groups)
				idx[o] = g
				groups = append(groups, 0)
			}
			groups[g]++
		}
	}
	if len(groups) < 2 {
		return // one key owns the bucket: splitting it would break grouping
	}
	order := make([]int, len(groups))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return groups[order[i]] > groups[order[j]] })

	dest := make([]int, len(groups))
	var movedRecords, movedGroups int64
	for _, gi := range order {
		n := groups[gi]
		dst := -1
		for b := 0; b < s.parts; b++ {
			if b != hot && (dst < 0 || sizes[b] < sizes[dst]) {
				dst = b
			}
		}
		// Move only while the shrunk hot bucket stays at least as large
		// as the grown destination — otherwise the move just relocates
		// the skew to another bucket.
		if sizes[hot]-n < sizes[dst]+n {
			dest[gi] = hot
			continue
		}
		dest[gi] = dst
		sizes[dst] += n
		sizes[hot] -= n
		movedRecords += n
		movedGroups++
	}
	if movedGroups == 0 {
		return
	}

	// Re-route: each map task's hot segment goes through the writer
	// again, the groups that stay into the hot segment, the others into
	// a further row of segments that every bucket reads after the map
	// tasks' own.
	for m, rows := range hotRows {
		old := &s.seg[m][hot]
		s.ctx.mem.Release(old.mem)
		spill.RemoveAll(old.runs)
		tb := s.newTask()
		for _, r := range rows {
			tb.add(dest[idx[s.adapt(r)]], r)
		}
		tb.finish()
		*old, tb.buckets[hot] = tb.buckets[hot], bucketed[T]{}
		s.seg = append(s.seg, tb.buckets)
	}

	m := &s.ctx.metrics
	m.c.AdaptiveRebalances.Add(1)
	m.c.AdaptiveMovedRecords.Add(movedRecords)
	m.c.AdaptiveMovedGroups.Add(movedGroups)
	m.noteAdaptive(AdaptiveEvent{
		Stage:        s.name,
		Before:       before,
		After:        summarizeDist(sizes, nil),
		MovedRecords: movedRecords,
		MovedGroups:  movedGroups,
	})
}
