package dataflow

import (
	"sort"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func intRange(n int) []int {
	xs := make([]int, n)
	for i := range xs {
		xs[i] = i
	}
	return xs
}

func TestParallelizeCollectRoundTrip(t *testing.T) {
	ctx := NewLocalContext()
	data := intRange(100)
	d := Parallelize(ctx, data, 7)
	if d.NumPartitions() != 7 {
		t.Fatalf("partitions %d", d.NumPartitions())
	}
	got := Collect(d)
	if len(got) != 100 {
		t.Fatalf("len %d", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("order not preserved at %d: %d", i, v)
		}
	}
}

func TestParallelizeEmptyAndSmall(t *testing.T) {
	ctx := NewLocalContext()
	if got := Collect(Parallelize(ctx, []int{}, 5)); len(got) != 0 {
		t.Fatalf("empty collect %v", got)
	}
	if got := Collect(Parallelize(ctx, []int{42}, 16)); len(got) != 1 || got[0] != 42 {
		t.Fatalf("single collect %v", got)
	}
}

func TestMapFilterFlatMap(t *testing.T) {
	ctx := NewLocalContext()
	d := Parallelize(ctx, intRange(10), 3)
	doubled := Map(d, func(x int) int { return 2 * x })
	evens := Filter(doubled, func(x int) bool { return x%4 == 0 })
	expanded := FlatMap(evens, func(x int) []int { return []int{x, x + 1} })
	got := Collect(expanded)
	want := []int{0, 1, 4, 5, 8, 9, 12, 13, 16, 17}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestCountReduceAggregate(t *testing.T) {
	ctx := NewLocalContext()
	d := Parallelize(ctx, intRange(11), 3)
	if Count(d) != 11 {
		t.Fatal("count")
	}
	if Reduce(d, func(a, b int) int { return a + b }) != 55 {
		t.Fatal("reduce")
	}
	if got := Aggregate(d, 0, func(a, x int) int { return a + x }, func(a, b int) int { return a + b }); got != 55 {
		t.Fatalf("aggregate %d", got)
	}
}

func TestReduceEmptyPanics(t *testing.T) {
	ctx := NewLocalContext()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Reduce(Parallelize(ctx, []int{}, 1), func(a, b int) int { return a + b })
}

func TestGenerate(t *testing.T) {
	ctx := NewLocalContext()
	d := Generate(ctx, 4, func(p int) []int { return []int{p * 10} })
	got := Collect(d)
	if len(got) != 4 || got[3] != 30 {
		t.Fatalf("generate %v", got)
	}
}

func TestPersistComputesOnce(t *testing.T) {
	ctx := NewLocalContext()
	calls := make([]int, 4)
	d := Generate(ctx, 4, func(p int) []int {
		calls[p]++
		return []int{p}
	}).Persist()
	Collect(d)
	Collect(d)
	for p, c := range calls {
		if c != 1 {
			t.Fatalf("partition %d computed %d times", p, c)
		}
	}
}

func TestRepartitionPreservesElements(t *testing.T) {
	ctx := NewLocalContext()
	d := Parallelize(ctx, intRange(50), 3)
	r := Repartition(d, 8)
	if r.NumPartitions() != 8 {
		t.Fatalf("parts %d", r.NumPartitions())
	}
	got := Collect(r)
	sort.Ints(got)
	for i, v := range got {
		if v != i {
			t.Fatalf("element set changed: %v", got)
		}
	}
}

// Property: results of map+reduce are independent of partition count.
func TestQuickPartitionIndependence(t *testing.T) {
	ctx := NewLocalContext()
	f := func(raw []int16, parts uint8) bool {
		if len(raw) == 0 {
			return true
		}
		data := make([]int, len(raw))
		for i, v := range raw {
			data[i] = int(v)
		}
		p := int(parts%10) + 1
		d := Map(Parallelize(ctx, data, p), func(x int) int { return x * 3 })
		got := Reduce(d, func(a, b int) int { return a + b })
		want := 0
		for _, v := range data {
			want += v * 3
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLazinessNoComputeBeforeAction(t *testing.T) {
	ctx := NewLocalContext()
	var computed atomic.Bool // both partitions' tasks set it
	d := Generate(ctx, 2, func(p int) []int {
		computed.Store(true)
		return []int{p}
	})
	m := Map(d, func(x int) int { return x + 1 })
	if computed.Load() {
		t.Fatal("transformation should be lazy")
	}
	Collect(m)
	if !computed.Load() {
		t.Fatal("action should trigger compute")
	}
}

// TestFillKeys: every key of [0, n) appears once, with its value where
// the input had one and zero() where it did not, in the partition the
// key hashes to — over an input already hash-partitioned by key (read
// in place, no stage added) and over one that is not (exchanged by key).
func TestFillKeys(t *testing.T) {
	const n, parts = 20, 3
	ctx := NewContext(Config{Parallelism: 2, DefaultPartitions: parts})
	var rows []Pair[int64, int64]
	for k := int64(0); k < n; k += 3 {
		rows = append(rows, KV(k, k+100))
	}
	for name, d := range map[string]*Dataset[Pair[int64, int64]]{
		"hashed":   ReduceByKey(Parallelize(ctx, rows, parts), func(a, b int64) int64 { return a + b }, parts),
		"unhashed": Parallelize(ctx, rows, parts),
	} {
		filled := FillKeys(d, n, func() int64 { return -1 })
		if name == "hashed" && len(filled.deps) != len(d.deps) {
			t.Errorf("hashed: filling added a stage")
		}
		seen := map[int64]bool{}
		for p, part := range filled.materialize(false) {
			for _, kv := range part {
				want := int64(-1)
				if kv.Key%3 == 0 {
					want = kv.Key + 100
				}
				if seen[kv.Key] || kv.Value != want || partitionOf(kv.Key, parts) != p {
					t.Fatalf("%s: key %d value %d in partition %d (seen %v)", name, kv.Key, kv.Value, p, seen[kv.Key])
				}
				seen[kv.Key] = true
			}
		}
		if len(seen) != n {
			t.Fatalf("%s: %d keys, want %d", name, len(seen), n)
		}
	}
}
