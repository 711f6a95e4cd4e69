package dataflow

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// collectMap collects a pair dataset into a map; later duplicates of a
// key overwrite earlier ones.
func collectMap[K comparable, V any](d *Dataset[Pair[K, V]]) map[K]V {
	m := map[K]V{}
	for _, kv := range Collect(d) {
		m[kv.Key] = kv.Value
	}
	return m
}

func pairsOf(n int) []Pair[int, int] {
	ps := make([]Pair[int, int], n)
	for i := range ps {
		ps[i] = KV(i%5, i)
	}
	return ps
}

func TestReduceByKeySums(t *testing.T) {
	ctx := NewLocalContext()
	d := Parallelize(ctx, pairsOf(20), 4)
	r := ReduceByKey(d, func(a, b int) int { return a + b }, 3)
	got := collectMap(r)
	// keys 0..4, values i for i%5==k: k, k+5, k+10, k+15 -> 4k+30
	for k := 0; k < 5; k++ {
		if got[k] != 4*k+30 {
			t.Fatalf("key %d: got %d want %d", k, got[k], 4*k+30)
		}
	}
}

func TestGroupByKeyCollectsAll(t *testing.T) {
	ctx := NewLocalContext()
	d := Parallelize(ctx, pairsOf(20), 4)
	g := GroupByKey(d, 3)
	got := collectMap(g)
	if len(got) != 5 {
		t.Fatalf("keys %d", len(got))
	}
	for k, vs := range got {
		if len(vs) != 4 {
			t.Fatalf("key %d has %d values", k, len(vs))
		}
		sort.Ints(vs)
		for i, v := range vs {
			if v != k+5*i {
				t.Fatalf("key %d values %v", k, vs)
			}
		}
	}
}

// skewedPairs is n pairs over a key space of keys with a third of the
// rows on key 0: a hot reduce bucket beside near-empty ones.
func skewedPairs(n, keys int, seed int64) []Pair[int, int] {
	rng := rand.New(rand.NewSource(seed))
	ps := make([]Pair[int, int], n)
	for i := range ps {
		k := rng.Intn(keys)
		if rng.Intn(3) == 0 {
			k = 0
		}
		ps[i] = KV(k, rng.Intn(1000))
	}
	return ps
}

func TestReduceByKeyEquivalentToGroupByKeyFold(t *testing.T) {
	for _, in := range []struct {
		rows             []Pair[int, int]
		srcParts, rParts int
	}{
		{pairsOf(100), 7, 4},
		{skewedPairs(2000, 64, 1), 5, 8},
	} {
		ctx := NewLocalContext()
		want := map[int]int{}
		for _, p := range in.rows {
			want[p.Key] += p.Value
		}
		d := Parallelize(ctx, in.rows, in.srcParts)
		viaReduce := collectMap(ReduceByKey(d, func(a, b int) int { return a + b }, in.rParts))
		viaGroup := collectMap(Map(GroupByKey(d, in.rParts), func(g Pair[int, []int]) Pair[int, int] {
			s := 0
			for _, v := range g.Value {
				s += v
			}
			return KV(g.Key, s)
		}))
		if len(viaReduce) != len(want) || len(viaGroup) != len(want) {
			t.Fatalf("%d reduced and %d grouped keys, want %d", len(viaReduce), len(viaGroup), len(want))
		}
		for k, v := range want {
			if viaReduce[k] != v || viaGroup[k] != v {
				t.Fatalf("key %d: reduced %d, grouped %d, want %d", k, viaReduce[k], viaGroup[k], v)
			}
		}
	}
}

func TestReduceByKeyShufflesLessThanGroupByKey(t *testing.T) {
	ctx := NewLocalContext()
	d := Parallelize(ctx, pairsOf(1000), 8)
	before := ctx.Metrics()
	Collect(ReduceByKey(d, func(a, b int) int { return a + b }, 4))
	mid := ctx.Metrics()
	Collect(GroupByKey(d, 4))
	after := ctx.Metrics()
	reduceShuffled := mid.Sub(before).ShuffledRecords
	groupShuffled := after.Sub(mid).ShuffledRecords
	if reduceShuffled >= groupShuffled {
		t.Fatalf("reduceByKey shuffled %d >= groupByKey %d", reduceShuffled, groupShuffled)
	}
	// Map-side combine bounds shuffle at keys x partitions.
	if reduceShuffled > 5*8 {
		t.Fatalf("reduceByKey shuffled %d > 40", reduceShuffled)
	}
	if groupShuffled != 1000 {
		t.Fatalf("groupByKey should shuffle every record, got %d", groupShuffled)
	}
}

func TestJoin(t *testing.T) {
	ctx := NewLocalContext()
	left := Parallelize(ctx, []Pair[string, int]{KV("a", 1), KV("b", 2), KV("a", 3)}, 2)
	right := Parallelize(ctx, []Pair[string, string]{KV("a", "x"), KV("c", "y"), KV("a", "z")}, 2)
	j := Join(left, right, 3)
	got := Collect(j)
	if len(got) != 4 { // (1,x),(1,z),(3,x),(3,z)
		t.Fatalf("join size %d: %v", len(got), got)
	}
	for _, kv := range got {
		if kv.Key != "a" {
			t.Fatalf("unexpected key %q", kv.Key)
		}
	}
}

func TestJoinNoMatches(t *testing.T) {
	ctx := NewLocalContext()
	left := Parallelize(ctx, []Pair[int, int]{KV(1, 1)}, 1)
	right := Parallelize(ctx, []Pair[int, int]{KV(2, 2)}, 1)
	if got := Collect(Join(left, right, 2)); len(got) != 0 {
		t.Fatalf("expected empty join, got %v", got)
	}
}

func TestCoGroup(t *testing.T) {
	ctx := NewLocalContext()
	left := Parallelize(ctx, []Pair[int, int]{KV(1, 10), KV(2, 20), KV(1, 11)}, 2)
	right := Parallelize(ctx, []Pair[int, string]{KV(1, "a"), KV(3, "c")}, 2)
	got := collectMap(CoGroup(left, right, 2))
	if len(got) != 3 {
		t.Fatalf("cogroup keys %d", len(got))
	}
	g1 := got[1]
	if len(g1.Left) != 2 || len(g1.Right) != 1 {
		t.Fatalf("key 1 groups %+v", g1)
	}
	if len(got[2].Left) != 1 || len(got[2].Right) != 0 {
		t.Fatalf("key 2 groups %+v", got[2])
	}
	if len(got[3].Left) != 0 || len(got[3].Right) != 1 {
		t.Fatalf("key 3 groups %+v", got[3])
	}
}

// TestCoGroupRoutedPlacement: the caller's route, not the key hash,
// decides where a key's group lands — even when both inputs are already
// hash-partitioned into the same partition count (a hash cogroup would
// read them narrowly) — the groups are CoGroup's, and the output makes
// no claim to be hash-partitioned by key.
func TestCoGroupRoutedPlacement(t *testing.T) {
	ctx := NewLocalContext()
	const parts, keys = 4, 12
	var l []Pair[int, int]
	var r []Pair[int, string]
	for k := 0; k < keys; k++ {
		l = append(l, KV(k, k*10), KV(k, k*10+1))
		if k%2 == 0 {
			r = append(r, KV(k, "r"))
		}
	}
	left := ReduceByKey(Parallelize(ctx, l, 3), func(a, b int) int { return a + b }, parts)
	right := ReduceByKey(Parallelize(ctx, r, 3), func(a, b string) string { return a + b }, parts)
	route := func(k int) int { return (parts - 1) - k%parts }
	Count(left) // run the reduceBy shuffles, then count only the cogroup's
	Count(right)
	ctx.ResetMetrics()
	cg := CoGroupRouted(left, right, parts, route)
	if cg.keyParts != 0 {
		t.Fatalf("routed cogroup claims hash partitioning into %d", cg.keyParts)
	}
	seen := 0
	for p, rows := range cg.materialize(false) {
		for _, g := range rows {
			seen++
			if want := route(g.Key); p != want {
				t.Fatalf("key %d in partition %d, routed to %d", g.Key, p, want)
			}
			if len(g.Value.Left) != 1 || g.Value.Left[0] != 20*g.Key+1 || len(g.Value.Right) != (g.Key+1)%2 {
				t.Fatalf("key %d groups %+v", g.Key, g.Value)
			}
		}
	}
	if seen != keys {
		t.Fatalf("%d groups, want %d", seen, keys)
	}
	if m := ctx.Metrics(); m.ShuffledRecords != keys+int64(len(r)) {
		t.Fatalf("routed cogroup shuffled %d records, want all %d (never a narrow read)", m.ShuffledRecords, keys+len(r))
	}
}

// Property: ReduceByKey result is independent of partition counts.
func TestQuickReduceByKeyPartitionIndependence(t *testing.T) {
	ctx := NewLocalContext()
	f := func(raw []uint8, p1, p2 uint8) bool {
		data := make([]Pair[int, int], len(raw))
		for i, v := range raw {
			data[i] = KV(int(v%7), int(v))
		}
		if len(data) == 0 {
			return true
		}
		a := collectMap(ReduceByKey(Parallelize(ctx, data, int(p1%8)+1), func(a, b int) int { return a + b }, int(p2%8)+1))
		b := collectMap(ReduceByKey(Parallelize(ctx, data, int(p2%8)+1), func(a, b int) int { return a + b }, int(p1%8)+1))
		if len(a) != len(b) {
			return false
		}
		for k, v := range a {
			if b[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: Join matches a nested-loop reference implementation.
func TestQuickJoinMatchesNestedLoop(t *testing.T) {
	ctx := NewLocalContext()
	f := func(ls, rs []uint8) bool {
		left := make([]Pair[int, int], len(ls))
		for i, v := range ls {
			left[i] = KV(int(v%5), i)
		}
		right := make([]Pair[int, int], len(rs))
		for i, v := range rs {
			right[i] = KV(int(v%5), 100+i)
		}
		got := Collect(Join(Parallelize(ctx, left, 3), Parallelize(ctx, right, 2), 4))
		want := 0
		for _, l := range left {
			for _, r := range right {
				if l.Key == r.Key {
					want++
				}
			}
		}
		return len(got) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Regression: combine functions may mutate their first argument (the
// Spark reduceByKey contract). Re-materializing a reduceByKey result
// must not re-fold the cached shuffle buckets and double-accumulate.
func TestReduceByKeyRematerializeWithMutatingCombine(t *testing.T) {
	ctx := NewLocalContext()
	var data []Pair[int, *box]
	for i := 0; i < 12; i++ {
		data = append(data, KV(i%3, &box{v: 1}))
	}
	d := Parallelize(ctx, data, 4)
	r := ReduceByKey(d, func(a, b *box) *box {
		a.v += b.v // mutates the first argument
		return a
	}, 2)
	first := map[int]float64{}
	for _, kv := range Collect(r) {
		first[kv.Key] = kv.Value.v
	}
	second := map[int]float64{}
	for _, kv := range Collect(r) { // second materialization
		second[kv.Key] = kv.Value.v
	}
	for k := 0; k < 3; k++ {
		if first[k] != 4 || second[k] != 4 {
			t.Fatalf("key %d: first %v second %v, want 4", k, first[k], second[k])
		}
	}
}

// Partitioner-aware joins: joining two reduceByKey outputs with the
// same partition count must not re-shuffle either side.
func TestCoPartitionedJoinSkipsExchange(t *testing.T) {
	ctx := NewLocalContext()
	d := Parallelize(ctx, pairsOf(100), 5)
	a := ReduceByKey(d, func(x, y int) int { return x + y }, 4)
	b := ReduceByKey(Map(d, func(p Pair[int, int]) Pair[int, int] { return KV(p.Key, p.Value*2) }), func(x, y int) int { return x + y }, 4)
	Collect(a)
	Collect(b)
	ctx.ResetMetrics()

	j := Join(a, b, 4)
	got := collectMap(j)
	if ctx.Metrics().ShuffledRecords != 0 {
		t.Fatalf("co-partitioned join shuffled %d records", ctx.Metrics().ShuffledRecords)
	}
	if len(got) != 5 {
		t.Fatalf("join keys %d", len(got))
	}
	for k, v := range got {
		if v.Right != 2*v.Left {
			t.Fatalf("key %d: %+v", k, v)
		}
	}
}

// A partition-count mismatch falls back to the full exchange.
func TestMismatchedPartitioningStillExchanges(t *testing.T) {
	ctx := NewLocalContext()
	d := Parallelize(ctx, pairsOf(50), 5)
	a := ReduceByKey(d, func(x, y int) int { return x + y }, 4)
	b := ReduceByKey(d, func(x, y int) int { return x + y }, 3)
	Collect(a)
	Collect(b)
	ctx.ResetMetrics()
	got := collectMap(Join(a, b, 4))
	if len(got) != 5 {
		t.Fatalf("join keys %d", len(got))
	}
	if ctx.Metrics().ShuffledRecords == 0 {
		t.Fatal("mismatched partitioning must exchange")
	}
	for _, v := range got {
		if v.Left != v.Right {
			t.Fatalf("values differ: %+v", v)
		}
	}
}

// A key shuffle records its hash partitioning; Map (which may rekey)
// drops it.
func TestShufflesRecordKeyPartitioning(t *testing.T) {
	ctx := NewLocalContext()
	d := Parallelize(ctx, pairsOf(20), 4)
	r := ReduceByKey(d, func(x, y int) int { return x + y }, 4)
	if r.keyParts != 4 {
		t.Fatalf("reduceByKey partitioning %d", r.keyParts)
	}
	m := Map(r, func(p Pair[int, int]) Pair[int, int] { return KV(p.Key+1, p.Value) })
	if m.keyParts != 0 {
		t.Fatal("Map (which may rekey) must drop partitioning")
	}
	g := GroupByKey(d, 5)
	if g.keyParts != 5 {
		t.Fatal("groupByKey should record partitioning")
	}
}
