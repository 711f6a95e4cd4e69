package dataflow

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Both map-sides of a join are independent stages and must execute
// concurrently. Each side's map closure announces itself and then waits
// for the other side; a sequential scheduler would leave each side
// waiting out the timeout, so both overlap flags observing the other
// side proves the stages ran simultaneously. The join result is also
// checked, so overlap does not come at the cost of determinism.
func TestJoinMapSidesRunConcurrently(t *testing.T) {
	ctx := NewContext(Config{Parallelism: 4, DefaultPartitions: 2})

	leftReady := make(chan struct{})
	rightReady := make(chan struct{})
	var leftOnce, rightOnce sync.Once
	var leftSawRight, rightSawLeft atomic.Bool

	rendezvous := func(once *sync.Once, mine chan struct{}, other chan struct{}, saw *atomic.Bool) {
		once.Do(func() { close(mine) })
		select {
		case <-other:
			saw.Store(true)
		case <-time.After(5 * time.Second):
		}
	}

	left := Map(Parallelize(ctx, intRange(8), 2), func(v int) Pair[int, int] {
		rendezvous(&leftOnce, leftReady, rightReady, &leftSawRight)
		return KV(v%4, v)
	})
	right := Map(Parallelize(ctx, intRange(8), 2), func(v int) Pair[int, int] {
		rendezvous(&rightOnce, rightReady, leftReady, &rightSawLeft)
		return KV(v%4, 100+v)
	})

	ctx.ResetMetrics()
	joined := Collect(Join(left, right, 4))

	// 4 keys, each with 2 left x 2 right values.
	if len(joined) != 16 {
		t.Fatalf("join produced %d pairs, want 16", len(joined))
	}
	for _, p := range joined {
		if p.Value.Left%4 != p.Key || (p.Value.Right-100)%4 != p.Key {
			t.Fatalf("mismatched join pair %+v", p)
		}
	}

	if !leftSawRight.Load() || !rightSawLeft.Load() {
		t.Fatalf("map-sides did not overlap: left saw right=%v, right saw left=%v",
			leftSawRight.Load(), rightSawLeft.Load())
	}

	snap := ctx.Metrics()
	if snap.MaxConcurrentStages < 2 {
		t.Fatalf("MaxConcurrentStages = %d, want >= 2", snap.MaxConcurrentStages)
	}
	var shuffleStages int
	for _, s := range snap.PerStage {
		if strings.HasPrefix(s.Name, "shuffle(") {
			shuffleStages++
			if s.Wall <= 0 {
				t.Fatalf("stage %q has no wall time: %+v", s.Name, s)
			}
			if s.Tasks == 0 || s.RecordsOut == 0 {
				t.Fatalf("stage %q has empty execution record: %+v", s.Name, s)
			}
		}
	}
	if shuffleStages != 2 {
		t.Fatalf("recorded %d shuffle stages, want 2; per-stage: %v", shuffleStages, snap.PerStage)
	}
}

// A failing stage must propagate its panic to every concurrent waiter,
// not deadlock the sibling stage.
func TestConcurrentStageFailurePropagates(t *testing.T) {
	ctx := NewContext(Config{Parallelism: 4, DefaultPartitions: 2})

	left := Map(Parallelize(ctx, intRange(8), 2), func(v int) Pair[int, int] {
		if v == 3 {
			panic("boom in left map-side")
		}
		return KV(v%2, v)
	})
	right := Map(Parallelize(ctx, intRange(8), 2), func(v int) Pair[int, int] {
		return KV(v%2, v)
	})

	defer func() {
		if r := recover(); r == nil {
			t.Fatal("join over a failing map-side did not panic")
		}
	}()
	Collect(Join(left, right, 2))
}

// Unpersist must release the cache: the cached-bytes gauge returns to
// zero and the dataset stays computable from lineage.
func TestUnpersistReleasesCache(t *testing.T) {
	ctx := NewContext(Config{Parallelism: 2, DefaultPartitions: 2})
	ds := Map(Parallelize(ctx, intRange(100), 2), func(v int) int { return v * v }).Persist()

	if got := ctx.Metrics().CachedBytes; got != 0 {
		t.Fatalf("CachedBytes = %d before any action, want 0 (Persist is lazy)", got)
	}
	want := Collect(ds)
	cached := ctx.Metrics().CachedBytes
	if cached <= 0 {
		t.Fatalf("CachedBytes = %d after materializing a persisted dataset, want > 0", cached)
	}
	// Reset clears work counters but not the cache gauge: the cache is
	// still alive.
	ctx.ResetMetrics()
	if got := ctx.Metrics().CachedBytes; got != cached {
		t.Fatalf("CachedBytes = %d after Reset, want %d (gauge tracks live caches)", got, cached)
	}

	ds.Unpersist()
	if got := ctx.Metrics().CachedBytes; got != 0 {
		t.Fatalf("CachedBytes = %d after Unpersist, want 0", got)
	}
	if ds.IsPersisted() {
		t.Fatal("IsPersisted() = true after Unpersist")
	}
	again := Collect(ds)
	if len(again) != len(want) {
		t.Fatalf("recomputed dataset has %d elements, want %d", len(again), len(want))
	}
	for i := range want {
		if again[i] != want[i] {
			t.Fatalf("recomputed element %d = %d, want %d", i, again[i], want[i])
		}
	}
}

// Independent actions issued from separate goroutines also overlap on
// the stage scheduler (the driver is not serialized).
func TestIndependentActionsOverlap(t *testing.T) {
	ctx := NewContext(Config{Parallelism: 4, DefaultPartitions: 2})

	aReady := make(chan struct{})
	bReady := make(chan struct{})
	var aOnce, bOnce sync.Once

	a := Map(Parallelize(ctx, intRange(8), 2), func(v int) int {
		aOnce.Do(func() { close(aReady) })
		select {
		case <-bReady:
		case <-time.After(5 * time.Second):
		}
		return v
	})
	b := Map(Parallelize(ctx, intRange(8), 2), func(v int) int {
		bOnce.Do(func() { close(bReady) })
		select {
		case <-aReady:
		case <-time.After(5 * time.Second):
		}
		return v
	})

	ctx.ResetMetrics()
	var wg sync.WaitGroup
	counts := make([]int64, 2)
	wg.Add(2)
	go func() { defer wg.Done(); counts[0] = Count(a) }()
	go func() { defer wg.Done(); counts[1] = Count(b) }()
	wg.Wait()

	if counts[0] != 8 || counts[1] != 8 {
		t.Fatalf("counts = %v, want [8 8]", counts)
	}
	if got := ctx.Metrics().MaxConcurrentStages; got < 2 {
		t.Fatalf("MaxConcurrentStages = %d, want >= 2", got)
	}
}
