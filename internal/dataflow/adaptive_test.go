package dataflow

// Adversarial-skew tests for adaptive stage-boundary rebalancing: keys
// engineered to collide into one reduce partition (via KeyPartition),
// zipf-like duplication, and single-giant-group inputs. Every test
// cross-checks the adaptive result against the static plan — the
// rebalance must be invisible in values, only in placement. The CI
// race job runs these under -race, covering the rebalance's interaction
// with concurrent bucket merges.

import (
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

// underAdaptBudgets runs an exact-and-balanced case with no memory
// budget, and with one so small every map task spills its segments: the
// rebalance then reads the hot bucket back from run files and re-routes
// it through a writer that spills again.
func underAdaptBudgets(t *testing.T, body func(t *testing.T, budget int64)) {
	for _, budget := range []int64{0, 64} {
		t.Run(fmt.Sprint("budget=", budget), func(t *testing.T) { body(t, budget) })
	}
}

// adaptCtx builds a context with adaptive rebalancing on or off and the
// given memory budget.
func adaptCtx(t *testing.T, adaptive bool, budget int64) *Context {
	t.Helper()
	ctx := NewContext(Config{
		Parallelism:       8,
		DefaultPartitions: 8,
		AdaptiveShuffle:   adaptive,
		MemoryBudget:      budget,
	})
	t.Cleanup(func() {
		if err := ctx.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return ctx
}

// collideInto returns n distinct int64 keys all hashing to partition
// p of parts.
func collideInto(n, parts, p int) []int64 {
	keys := make([]int64, 0, n)
	for k := int64(0); len(keys) < n; k++ {
		if KeyPartition(k, parts) == p {
			keys = append(keys, k)
		}
	}
	return keys
}

func sortedPairs[V any](d *Dataset[Pair[int64, V]]) []Pair[int64, V] {
	out := Collect(d)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// TestAdaptiveReduceByKeyExactAndBalanced: all keys in one bucket;
// adaptive must produce the exact static result while splitting the
// hot bucket down to (near) even.
func TestAdaptiveReduceByKeyExactAndBalanced(t *testing.T) {
	underAdaptBudgets(t, adaptiveReduceByKeyExactAndBalanced)
}

func adaptiveReduceByKeyExactAndBalanced(t *testing.T, budget int64) {
	const parts, nKeys, rowsPerKey = 8, 64, 5
	keys := collideInto(nKeys, parts, 0)
	rows := make([]Pair[int64, float64], 0, nKeys*rowsPerKey)
	for i, k := range keys {
		for r := 0; r < rowsPerKey; r++ {
			rows = append(rows, KV(k, float64(i*r)+0.5))
		}
	}
	run := func(adaptive bool) ([]Pair[int64, float64], MetricsSnapshot) {
		ctx := adaptCtx(t, adaptive, budget)
		red := ReduceByKey(Parallelize(ctx, rows, parts), func(a, b float64) float64 { return a + b }, parts)
		return sortedPairs(red), ctx.Metrics()
	}
	want, staticM := run(false)
	got, adaptM := run(true)
	if (adaptM.SpilledBytes > 0) != (budget > 0) {
		t.Fatalf("budget %d: adaptive run spilled %d bytes", budget, adaptM.SpilledBytes)
	}
	if len(got) != len(want) {
		t.Fatalf("adaptive returned %d pairs, static %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pair %d: adaptive %v != static %v", i, got[i], want[i])
		}
	}
	if staticM.AdaptiveRebalances != 0 {
		t.Fatalf("static run rebalanced %d times", staticM.AdaptiveRebalances)
	}
	if adaptM.AdaptiveRebalances == 0 {
		t.Fatal("adaptive run never rebalanced a fully-colliding input")
	}
	if len(adaptM.AdaptiveEvents) == 0 {
		t.Fatal("no adaptive events recorded")
	}
	e := adaptM.AdaptiveEvents[0]
	if e.Before.Max != nKeys {
		t.Fatalf("hot bucket held %d records before, want %d", e.Before.Max, nKeys)
	}
	if e.After.Max >= e.Before.Max {
		t.Fatalf("rebalance did not shrink the hot bucket: before max %d, after max %d",
			e.Before.Max, e.After.Max)
	}
	if e.After.Max > 2*nKeys/parts {
		t.Fatalf("post-split hot bucket still holds %d of %d records (parts=%d)",
			e.After.Max, nKeys, parts)
	}
}

// TestAdaptiveGroupByKeyPreservesGroups: zipf-like duplication; every
// group must stay intact (same members) after rows move between
// buckets, because ord-groups move atomically.
func TestAdaptiveGroupByKeyPreservesGroups(t *testing.T) {
	underAdaptBudgets(t, adaptiveGroupByKeyPreservesGroups)
}

func adaptiveGroupByKeyPreservesGroups(t *testing.T, budget int64) {
	const parts, records = 8, 4000
	rng := rand.New(rand.NewSource(7))
	zipf := rand.NewZipf(rng, 1.3, 1, 255)
	rows := make([]Pair[int64, int64], records)
	for i := range rows {
		rows[i] = KV(int64(zipf.Uint64()), int64(i))
	}
	run := func(adaptive bool) []Pair[int64, []int64] {
		ctx := adaptCtx(t, adaptive, budget)
		g := GroupByKey(Parallelize(ctx, rows, parts), parts)
		out := sortedPairs(g)
		for _, p := range out {
			sort.Slice(p.Value, func(i, j int) bool { return p.Value[i] < p.Value[j] })
		}
		return out
	}
	want := run(false)
	got := run(true)
	if len(got) != len(want) {
		t.Fatalf("adaptive produced %d groups, static %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Key != want[i].Key || len(got[i].Value) != len(want[i].Value) {
			t.Fatalf("group %d differs: adaptive (%d, %d members) vs static (%d, %d members)",
				i, got[i].Key, len(got[i].Value), want[i].Key, len(want[i].Value))
		}
		for j := range want[i].Value {
			if got[i].Value[j] != want[i].Value[j] {
				t.Fatalf("group %d member %d differs", i, j)
			}
		}
	}
}

// TestAdaptiveSingleGroupNoop: one giant key group is unsplittable —
// whole groups move atomically — so the rebalancer must leave the
// bucket alone and the result must still be exact.
func TestAdaptiveSingleGroupNoop(t *testing.T) {
	const parts, records = 8, 512
	rows := make([]Pair[int64, float64], records)
	for i := range rows {
		rows[i] = KV(int64(42), float64(i))
	}
	ctx := adaptCtx(t, true, 0)
	g := GroupByKey(Parallelize(ctx, rows, parts), parts)
	out := sortedPairs(g)
	if len(out) != 1 || len(out[0].Value) != records {
		t.Fatalf("giant group mangled: %d groups, first has %d members", len(out), len(out[0].Value))
	}
	if m := ctx.Metrics(); m.AdaptiveMovedRecords != 0 {
		t.Fatalf("rebalancer moved %d records out of a single-group bucket", m.AdaptiveMovedRecords)
	}
}

// TestAdaptivePartitionByKeyProperty is the randomized property test:
// across seeds, partition counts, and skew shapes, the key shuffles —
// adaptive ReduceByKey and GroupByKey — must agree with a local
// reference fold.
func TestAdaptivePartitionByKeyProperty(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			parts := 2 + rng.Intn(9)
			records := 200 + rng.Intn(2000)
			keySpace := int64(1 + rng.Intn(64))
			rows := make([]Pair[int64, int64], records)
			ref := map[int64]int64{}
			for i := range rows {
				k := rng.Int63n(keySpace)
				if rng.Intn(3) == 0 {
					k = 0 // extra mass on one key
				}
				v := rng.Int63n(1000)
				rows[i] = KV(k, v)
				ref[k] += v
			}
			ctx := adaptCtx(t, true, 0)
			in := Parallelize(ctx, rows, parts)
			red := sortedPairs(ReduceByKey(in, func(a, b int64) int64 { return a + b }, parts))
			grouped := sortedPairs(GroupByKey(in, parts))
			if len(red) != len(ref) || len(grouped) != len(ref) {
				t.Fatalf("got %d reduced and %d grouped keys, want %d", len(red), len(grouped), len(ref))
			}
			for i, p := range red {
				var sum int64
				for _, v := range grouped[i].Value {
					sum += v
				}
				if ref[p.Key] != p.Value || grouped[i].Key != p.Key || sum != p.Value {
					t.Fatalf("key %d: reduced %d, grouped sum %d, want %d", p.Key, p.Value, sum, ref[p.Key])
				}
			}
		})
	}
}

// TestAdaptiveSpreadsDownstreamWork: per-key work downstream of a fully
// colliding reduceByKey. The static plan hands all 64 keys to one
// reduce-side task; the rebalanced plan hands every task an even share
// and the tasks run at the same time — which is the whole of the
// wall-clock win (BENCH_adaptive measures the seconds; this asserts the
// mechanism, so it cannot flake on a loaded host).
func TestAdaptiveSpreadsDownstreamWork(t *testing.T) {
	const parts, nKeys = 8, 64
	keys := collideInto(nKeys, parts, 0)
	rows := make([]Pair[int64, float64], len(keys))
	for i, k := range keys {
		rows[i] = KV(k, float64(i))
	}
	// meet, when non-nil, is called by every downstream task that holds
	// rows, inside the task.
	run := func(adaptive bool, meet func()) (held []int, sum float64) {
		ctx := adaptCtx(t, adaptive, 0)
		held = make([]int, parts)
		red := ReduceByKey(Parallelize(ctx, rows, parts), func(a, b float64) float64 { return a + b }, parts)
		work := newStreamDataset(ctx, parts, "work", red.deps, func(p int, emit func(float64)) {
			rows := red.partition(p)
			held[p] = len(rows)
			if len(rows) > 0 && meet != nil {
				meet()
			}
			for _, r := range rows {
				emit(r.Value)
			}
		})
		return held, Reduce(work, func(a, b float64) float64 { return a + b })
	}
	busyAndMax := func(held []int) (busy, most int) {
		for _, n := range held {
			if n > 0 {
				busy++
			}
			most = max(most, n)
		}
		return busy, most
	}

	staticHeld, staticSum := run(false, nil)
	if busy, most := busyAndMax(staticHeld); busy != 1 || most != nKeys {
		t.Fatalf("static plan: %d busy tasks, largest holds %d keys; want 1 task holding all %d", busy, most, nKeys)
	}

	// Two tasks holding rows must be inside their bodies together: the
	// first waits for the second to arrive.
	var arrivals atomic.Int64
	second := make(chan struct{})
	var overlapped atomic.Bool
	adaptiveHeld, adaptiveSum := run(true, func() {
		if arrivals.Add(1) == 2 {
			close(second)
		}
		select {
		case <-second:
			overlapped.Store(true)
		case <-time.After(5 * time.Second):
		}
	})
	if adaptiveSum != staticSum {
		t.Fatalf("checksum diverged: static %v, adaptive %v", staticSum, adaptiveSum)
	}
	if busy, most := busyAndMax(adaptiveHeld); busy != parts || most > 2*nKeys/parts {
		t.Fatalf("rebalanced plan: %d of %d tasks busy, largest holds %d of %d keys", busy, parts, most, nKeys)
	}
	if !overlapped.Load() {
		t.Fatal("rebalanced reduce-side tasks never ran at the same time")
	}
}

// TestAdaptiveKeyPartitionContract pins the property the colliding-key
// construction depends on: KeyPartition is the engine's actual routing
// function.
func TestAdaptiveKeyPartitionContract(t *testing.T) {
	for _, k := range collideInto(16, 8, 3) {
		if got := partitionOf(k, 8); got != 3 {
			t.Fatalf("KeyPartition and partitionOf disagree for %d: %d", k, got)
		}
	}
}
