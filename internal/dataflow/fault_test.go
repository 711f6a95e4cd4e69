package dataflow

import (
	"testing"

	"repro/internal/obs"
)

func TestMetricsCounting(t *testing.T) {
	ctx := NewLocalContext()
	d := Parallelize(ctx, pairsOf(40), 4)
	Collect(ReduceByKey(d, func(a, b int) int { return a + b }, 2))
	m := ctx.Metrics()
	if m.Shuffles != 1 {
		t.Fatalf("shuffles %d", m.Shuffles)
	}
	if m.ShuffledRecords == 0 || m.ShuffledBytes == 0 {
		t.Fatalf("no shuffle accounting: %+v", m)
	}
	if m.Tasks == 0 || m.Stages == 0 {
		t.Fatalf("no task/stage accounting: %+v", m)
	}
	ctx.ResetMetrics()
	if ctx.Metrics().Tasks != 0 {
		t.Fatal("reset failed")
	}
}

func TestMetricsSub(t *testing.T) {
	a := MetricsSnapshot{CounterSet: obs.CounterSet{Tasks: 10, ShuffledBytes: 100}}
	b := MetricsSnapshot{CounterSet: obs.CounterSet{Tasks: 4, ShuffledBytes: 60}}
	d := a.Sub(b)
	if d.Tasks != 6 || d.ShuffledBytes != 40 {
		t.Fatalf("sub %+v", d)
	}
}

func TestCoordHashSpreads(t *testing.T) {
	seen := map[int]int{}
	for i := int64(0); i < 16; i++ {
		for j := int64(0); j < 16; j++ {
			seen[partitionOf(Coord{i, j}, 8)]++
		}
	}
	if len(seen) != 8 {
		t.Fatalf("coords hash to only %d of 8 partitions", len(seen))
	}
	for p, n := range seen {
		if n < 8 {
			t.Fatalf("partition %d badly underloaded: %d of 256", p, n)
		}
	}
}

func TestHashAnyCoversTypes(t *testing.T) {
	// Distinct values of each supported type should hash differently
	// (not a strict requirement, but catches degenerate implementations).
	if hashAny(1) == hashAny(2) {
		t.Fatal("int hash degenerate")
	}
	if hashAny("a") == hashAny("b") {
		t.Fatal("string hash degenerate")
	}
	if hashAny(int32(7)) != hashAny(7) {
		t.Fatal("int32 and int of same value should agree")
	}
	if hashAny(true) == hashAny(false) {
		t.Fatal("bool hash degenerate")
	}
	if hashAny(1.5) == hashAny(2.5) {
		t.Fatal("float hash degenerate")
	}
	type odd struct{ A, B int }
	if hashAny(odd{1, 2}) == hashAny(odd{2, 1}) {
		t.Fatal("fallback hash degenerate")
	}
}

// Regression test: with parallelism 1, nested stages (a shuffle whose
// child partitions are computed by tasks) must not deadlock the worker
// pool. Stage preparation must run shuffles from the driver.
func TestNoDeadlockWithSingleWorker(t *testing.T) {
	ctx := NewContext(Config{Parallelism: 1, DefaultPartitions: 8})
	var data []Pair[int, int]
	for i := 0; i < 64; i++ {
		data = append(data, KV(i%5, i))
	}
	d := Parallelize(ctx, data, 8)
	r := ReduceByKey(d, func(a, b int) int { return a + b }, 8)
	j := Join(r, r, 8)
	g := GroupByKey(j, 4)
	if got := Count(g); got != 5 {
		t.Fatalf("count %d", got)
	}
}

// Chained shuffles (three deep) also complete with a tiny pool.
func TestChainedShufflesSingleWorker(t *testing.T) {
	ctx := NewContext(Config{Parallelism: 1})
	d := Parallelize(ctx, pairsOf(100), 10)
	s1 := ReduceByKey(d, func(a, b int) int { return a + b }, 7)
	s2 := GroupByKey(Map(s1, func(p Pair[int, int]) Pair[int, int] { return KV(p.Key%2, p.Value) }), 3)
	s3 := ReduceByKey(Map(s2, func(g Pair[int, []int]) Pair[int, int] { return KV(g.Key, len(g.Value)) }), func(a, b int) int { return a + b }, 2)
	got := collectMap(s3)
	if got[0]+got[1] != 5 {
		t.Fatalf("expected 5 keys total, got %v", got)
	}
}
