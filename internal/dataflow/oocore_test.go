package dataflow

// Out-of-core execution tests: every test here configures a memory
// budget a fraction of its working set and asserts both correctness
// (results identical to the unbudgeted engine) and the budget contract
// (tracked peak bounded, spill counters advancing). The CI spill job
// selects these with -run OutOfCore.

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/memory"
)

// oocContext builds a context with the given budget and cleans its
// spill directory up with the test.
func oocContext(t *testing.T, budget int64) *Context {
	t.Helper()
	ctx := NewContext(Config{MemoryBudget: budget})
	t.Cleanup(func() {
		if err := ctx.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return ctx
}

// assertBudget checks the out-of-core contract on a finished context:
// something actually spilled, and the tracked peak stayed within
// budget plus a fixed slack (one budget's worth covers the transient
// double-residency of a partition mid-merge plus stall overcommits).
func assertBudget(t *testing.T, ctx *Context, budget int64) {
	t.Helper()
	s := ctx.Metrics()
	if s.SpilledBytes == 0 || s.SpillFiles == 0 {
		t.Fatalf("expected spilling under %s budget, got %+v bytes in %d files",
			memory.FormatBytes(budget), s.SpilledBytes, s.SpillFiles)
	}
	if slack := budget; s.MemoryPeak > budget+slack {
		t.Fatalf("tracked peak %s exceeds budget %s + slack %s",
			memory.FormatBytes(s.MemoryPeak), memory.FormatBytes(budget), memory.FormatBytes(slack))
	}
}

func TestOutOfCoreGroupBy(t *testing.T) {
	const budget = 1 << 20
	ctx := oocContext(t, budget)
	// Working set: 64 partitions x 8192 rows x 10 encoded bytes (a
	// two-byte key varint and a float) ≈ 5 MiB, five times the 1 MiB
	// budget.
	const parts, rowsPer, keys = 64, 8192, 997
	src := Generate(ctx, parts, func(p int) []Pair[int64, float64] {
		out := make([]Pair[int64, float64], rowsPer)
		for i := range out {
			g := int64((p*rowsPer + i) % keys)
			out[i] = KV(g, float64(g))
		}
		return out
	})
	grouped := GroupByKey(src, 32)
	sums := Collect(Map(grouped, func(p Pair[int64, []float64]) Pair[int64, float64] {
		var s float64
		for _, v := range p.Value {
			s += v
		}
		return KV(p.Key, s)
	}))
	if len(sums) != keys {
		t.Fatalf("got %d keys, want %d", len(sums), keys)
	}
	total := parts * rowsPer
	for _, kv := range sums {
		// Key g appears total/keys (+1 for low keys) times, each
		// occurrence contributing g.
		n := total / keys
		if int(kv.Key) < total%keys {
			n++
		}
		if want := float64(n) * float64(kv.Key); kv.Value != want {
			t.Fatalf("key %d: sum %v, want %v", kv.Key, kv.Value, want)
		}
	}
	assertBudget(t, ctx, budget)
}

func TestOutOfCoreReduceByKey(t *testing.T) {
	const budget = 1 << 20
	ctx := oocContext(t, budget)
	// Mostly-distinct keys defeat the map-side combiner, so the
	// combiner flush and the bucket spill paths both engage.
	const parts, rowsPer = 64, 8192
	src := Generate(ctx, parts, func(p int) []Pair[int64, int64] {
		out := make([]Pair[int64, int64], rowsPer)
		for i := range out {
			out[i] = KV(int64(p*rowsPer+i)%131071, int64(1))
		}
		return out
	})
	counts := Collect(ReduceByKey(src, func(a, b int64) int64 { return a + b }, 32))
	var total int64
	for _, kv := range counts {
		total += kv.Value
	}
	if want := int64(parts * rowsPer); total != want {
		t.Fatalf("total count %d, want %d", total, want)
	}
	assertBudget(t, ctx, budget)
}

func TestOutOfCoreRepartitionRoundTrip(t *testing.T) {
	const budget = 1 << 20
	ctx := oocContext(t, budget)
	const parts, rowsPer = 32, 16384
	src := Generate(ctx, parts, func(p int) []int64 {
		out := make([]int64, rowsPer)
		for i := range out {
			out[i] = int64(p*rowsPer + i)
		}
		return out
	})
	got := Collect(Repartition(src, 48))
	if len(got) != parts*rowsPer {
		t.Fatalf("got %d rows, want %d", len(got), parts*rowsPer)
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("row %d: got %d", i, v)
		}
	}
	assertBudget(t, ctx, budget)
}

func TestOutOfCoreJoinMatchesInMemory(t *testing.T) {
	build := func(ctx *Context) []Pair[int64, JoinedPair[int64, int64]] {
		const parts, rowsPer = 16, 4096
		left := Generate(ctx, parts, func(p int) []Pair[int64, int64] {
			out := make([]Pair[int64, int64], rowsPer)
			for i := range out {
				k := int64(p*rowsPer + i)
				out[i] = KV(k%8191, k)
			}
			return out
		})
		right := Generate(ctx, parts, func(p int) []Pair[int64, int64] {
			out := make([]Pair[int64, int64], rowsPer/4)
			for i := range out {
				k := int64(p*rowsPer/4 + i)
				out[i] = KV(k%8191, -k)
			}
			return out
		})
		rows := Collect(Join(left, right, 24))
		sort.Slice(rows, func(i, j int) bool {
			a, b := rows[i], rows[j]
			if a.Key != b.Key {
				return a.Key < b.Key
			}
			if a.Value.Left != b.Value.Left {
				return a.Value.Left < b.Value.Left
			}
			return a.Value.Right < b.Value.Right
		})
		return rows
	}
	want := build(oocContext(t, 0))
	// The two sides encode to about 400 KiB (a key varint of two bytes,
	// a value of up to three).
	const budget = 128 << 10
	ctx := oocContext(t, budget)
	got := build(ctx)
	if len(got) != len(want) {
		t.Fatalf("budgeted join: %d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("row %d: got %+v want %+v", i, got[i], want[i])
		}
	}
	assertBudget(t, ctx, budget)
}

// TestOutOfCoreOrderIsAFunctionOfTheMapOutputs: under a budget that
// forces spills, every reduce partition — its rows, their order, the
// order inside each group's value list, and so every float fold — is
// the same whatever the task parallelism, i.e. whatever order the map
// tasks finished in and whenever the budget made them spill.
func TestOutOfCoreOrderIsAFunctionOfTheMapOutputs(t *testing.T) {
	run := func(par int) []any {
		// 16 x 4096 rows x 10 encoded bytes, two and a half times the
		// budget.
		const budget = 256 << 10
		ctx := NewContext(Config{Parallelism: par, MemoryBudget: budget})
		defer ctx.Close()
		base := Generate(ctx, 16, func(p int) []Pair[int64, float64] {
			rows := make([]Pair[int64, float64], 4096)
			for i := range rows {
				g := p*len(rows) + i
				rows[i] = KV(int64(g%509), 1/float64(g+1))
			}
			return rows
		})
		sums := ReduceByKey(base, func(a, b float64) float64 { return a + b }, 8)
		r := []any{sums.materialize(false), GroupByKey(base, 8).materialize(false), Join(base, sums, 6).materialize(false)}
		if s := ctx.Metrics(); s.SpilledBytes == 0 {
			t.Fatalf("parallelism %d: nothing spilled under a %d-byte budget", par, budget)
		}
		return r
	}
	want := run(1)
	for _, par := range []int{2, 8} {
		if got := run(par); !reflect.DeepEqual(got, want) {
			t.Fatalf("parallelism %d: partitions differ from parallelism 1", par)
		}
	}
}

// TestOutOfCoreUnpersistReleasesEverything is the regression test for
// eviction accounting: after caches evict to disk under pressure and
// are then unpersisted, the cached-bytes gauge and the budget ledger
// must both return to zero — nothing may stay pinned or leak.
func TestOutOfCoreUnpersistReleasesEverything(t *testing.T) {
	const budget = 256 << 10
	ctx := oocContext(t, budget)
	const parts, rowsPer = 16, 8192
	mk := func(off int64) *Dataset[int64] {
		return Generate(ctx, parts, func(p int) []int64 {
			out := make([]int64, rowsPer)
			for i := range out {
				out[i] = off + int64(p*rowsPer+i)
			}
			return out
		})
	}
	// Each persisted dataset is ~1 MiB tracked (4x budget); caching the
	// second must evict the first to disk.
	a := mk(0).Persist()
	b := mk(1 << 32).Persist()
	if n := Count(a); n != parts*rowsPer {
		t.Fatalf("count a: %d", n)
	}
	if n := Count(b); n != parts*rowsPer {
		t.Fatalf("count b: %d", n)
	}
	if s := ctx.Metrics(); s.SpilledBytes == 0 {
		t.Fatal("expected cache eviction to disk under pressure")
	}
	// Disk-evicted partitions must still read back correctly.
	got := Collect(a)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("row %d after eviction: got %d", i, v)
		}
	}
	a.Unpersist()
	b.Unpersist()
	if s := ctx.Metrics(); s.CachedBytes != 0 {
		t.Fatalf("cached-bytes gauge %d after unpersist, want 0", s.CachedBytes)
	}
	if used := ctx.mem.Stats().Used; used != 0 {
		t.Fatalf("budget ledger holds %d bytes after unpersist, want 0", used)
	}
	if peak := ctx.Metrics().MemoryPeak; peak > 2*int64(budget) {
		t.Fatalf("tracked peak %d exceeds budget %d + slack", peak, budget)
	}
}

// TestOutOfCoreMetricsSurface checks the operator-facing reporting:
// spill counters appear in the snapshot and the FormatStages report
// mentions both the spill line and the memory line.
func TestOutOfCoreMetricsSurface(t *testing.T) {
	const budget = 512 << 10
	ctx := oocContext(t, budget)
	src := Generate(ctx, 32, func(p int) []Pair[int64, float64] {
		out := make([]Pair[int64, float64], 8192)
		for i := range out {
			out[i] = KV(int64(p*8192+i), 1.0)
		}
		return out
	})
	_ = Collect(GroupByKey(src, 16))
	s := ctx.Metrics()
	if s.SpilledBytes == 0 || s.SpilledRecords == 0 || s.SpillFiles == 0 {
		t.Fatalf("spill counters not advancing: %+v", s)
	}
	if s.MergePasses == 0 {
		t.Fatalf("merge passes not counted: %+v", s)
	}
	if s.MemoryBudget != budget {
		t.Fatalf("budget gauge %d, want %d", s.MemoryBudget, budget)
	}
	report := s.FormatStages()
	for _, want := range []string{"spill:", "memory: budget"} {
		if !strings.Contains(report, want) {
			t.Fatalf("FormatStages missing %q:\n%s", want, report)
		}
	}
}
