package obs

import (
	"os"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// distinct fills a set with a different value in every field, by
// position, so a swapped or dropped field cannot cancel out.
func distinct(base, step int64) CounterSet {
	vals := make([]int64, len(Schema))
	for i := range vals {
		vals[i] = base + step*int64(i)
	}
	return CountersFrom(vals)
}

// bump adds d+i to the i-th counter of a live set.
func bump(l *LiveCounters, d int64) {
	for i := range Schema {
		reflect.ValueOf(&l.Counters).Elem().Field(i).Addr().Interface().(*atomic.Int64).Add(d + int64(i))
	}
}

// TestSchemaMatchesStruct: Schema[i] names the i-th field of both
// instantiations, CounterValues/CountersFrom follow that order, and no
// two counters share a series.
func TestSchemaMatchesStruct(t *testing.T) {
	s := distinct(100, 3)
	var live LiveCounters
	bump(&live, 100)
	bump(&live, 0)
	bump(&live, 0)
	rs, rl := reflect.ValueOf(s), reflect.TypeOf(&live.Counters).Elem()
	if rs.NumField() != len(Schema) || rl.NumField() != len(Schema) {
		t.Fatalf("schema has %d entries, the struct %d fields", len(Schema), rs.NumField())
	}
	proms := map[string]string{}
	for i, f := range Schema {
		if got := rs.FieldByName(f.Name).Int(); got != CounterValues(s)[i] || got != 100+3*int64(i) {
			t.Errorf("CounterValues[%d] = %d, but field %s holds %d", i, CounterValues(s)[i], f.Name, got)
		}
		if rl.Field(i).Name != f.Name {
			t.Errorf("live field %d is %s, the schema says %s", i, rl.Field(i).Name, f.Name)
		}
		if prev, dup := proms[f.Prom]; dup {
			t.Errorf("%s and %s share the series %s", prev, f.Name, f.Prom)
		}
		proms[f.Prom] = f.Name
		if want := f.Rule == Sum; strings.HasSuffix(f.Prom, "_total") != want {
			t.Errorf("%s: series %s, rule %s — only sum counters end in _total", f.Name, f.Prom, f.Rule)
		}
	}
	if live.Snapshot() != s {
		t.Fatalf("snapshot drifted from the live set:\n%+v\n%+v", live.Snapshot(), s)
	}
}

// TestSchemaFieldRejectsHalfDeclared: a counter without a series name,
// a help string and a merge rule is an error, which panics the Schema
// build and so fails every test binary.
func TestSchemaFieldRejectsHalfDeclared(t *testing.T) {
	type bad struct {
		OK      int64 `prom:"sac_test_ok_total" rule:"sum" help:"fine"`
		NoProm  int64 `rule:"sum" help:"x"`
		NoHelp  int64 `prom:"sac_test_b_total" rule:"sum"`
		NoRule  int64 `prom:"sac_test_c_total" help:"x"`
		BadRule int64 `prom:"sac_test_d_total" rule:"avg" help:"x"`
		BadName int64 `prom:"sac test" rule:"sum" help:"x"`
	}
	rt := reflect.TypeOf(bad{})
	for i := 0; i < rt.NumField(); i++ {
		_, err := schemaField(rt.Field(i))
		if ok := rt.Field(i).Name == "OK"; (err == nil) != ok {
			t.Errorf("field %s: err = %v", rt.Field(i).Name, err)
		}
	}
}

// TestSubAndMergeFollowTheRules: sums diff and add, high-water marks and
// levels keep the later snapshot in Sub (as MetricsSnapshot.Sub always
// did for CachedBytes and the memory gauges), a merge takes the larger
// high-water mark and adds levels up, and a.Merge(b).Sub(b) == a on the
// sum counters.
func TestSubAndMergeFollowTheRules(t *testing.T) {
	a, b := distinct(1000, 7), distinct(5, 11)
	sub, merged := SubCounters(a, b), MergeCounters(a, b)
	back := CounterValues(SubCounters(merged, b))
	for i, f := range Schema {
		av, bv := CounterValues(a)[i], CounterValues(b)[i]
		wantSub, wantMerged := av, av+bv
		switch f.Rule {
		case Sum:
			wantSub = av - bv
			if back[i] != av {
				t.Errorf("%s: merge then sub gives %d, want %d back", f.Name, back[i], av)
			}
		case Max:
			wantMerged = max(av, bv)
		}
		if gs, gm := CounterValues(sub)[i], CounterValues(merged)[i]; gs != wantSub || gm != wantMerged {
			t.Errorf("%s (%s): sub %d want %d, merged %d want %d", f.Name, f.Rule, gs, wantSub, gm, wantMerged)
		}
	}
	for _, gauge := range []struct {
		name string
		got  int64
		want int64
	}{
		{"CachedBytes", sub.CachedBytes, a.CachedBytes}, {"MemoryBudget", sub.MemoryBudget, a.MemoryBudget},
		{"MemoryUsed", sub.MemoryUsed, a.MemoryUsed}, {"MemoryPeak", sub.MemoryPeak, a.MemoryPeak},
	} {
		if gauge.got != gauge.want {
			t.Errorf("Sub diffed the gauge %s: %d, want the later snapshot's %d", gauge.name, gauge.got, gauge.want)
		}
	}
}

// series reads the schema's series back out of the Default registry.
func series() CounterSet {
	vals := make([]int64, len(Schema))
	for i, f := range Schema {
		if f.Rule == Sum {
			vals[i] = f.counter.Value()
		} else {
			vals[i] = f.gauge.Value()
		}
	}
	return CountersFrom(vals)
}

// TestPublishIsExactAcrossResets: every sum series advances by exactly
// what the set counted, whether a Reset is followed by less work or by
// more, and whether or not anything was published in between — Reset
// itself publishes, so counts made after the last Publish are not lost.
// Levels survive a Reset; the other series show the latest value.
func TestPublishIsExactAcrossResets(t *testing.T) {
	var live LiveCounters
	before := series()
	var counted CounterSet
	for _, round := range []struct {
		d       int64
		publish bool
	}{{10, true}, {3, true}, {50, true}, {7, false}, {90, false}, {1, true}} {
		bump(&live, round.d)
		counted = MergeCounters(counted, distinct(round.d, 1))
		if round.publish {
			live.Publish()
		}
		live.Reset(nil)
		for i, f := range Schema {
			if got := CounterValues(live.Snapshot())[i]; (got != 0) != (f.Rule == Level) {
				t.Fatalf("%s (%s) reads %d after Reset", f.Name, f.Rule, got)
			}
		}
	}
	bump(&live, 5)
	live.Publish()
	live.Publish() // publishing twice counts once
	counted = MergeCounters(counted, distinct(5, 1))
	after, last := series(), live.Snapshot()
	for i, f := range Schema {
		want := CounterValues(last)[i]
		if f.Rule == Sum {
			want = CounterValues(before)[i] + CounterValues(counted)[i]
		}
		if got := CounterValues(after)[i]; got != want {
			t.Errorf("series %s = %d, want %d", f.Prom, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, live.Publish); n != 0 {
		t.Errorf("Publish allocates %v times per call, and it runs at every stage end", n)
	}
}

// TestPublishIsExactUnderConcurrency: goroutines that count and publish
// at once — the engine's concurrent map-sides, the worker's telemetry
// pump beside its job-done report — cannot fold an older snapshot in
// after a newer one, and a Reset racing with them loses nothing: the
// series ends up at exactly what was counted.
func TestPublishIsExactUnderConcurrency(t *testing.T) {
	var live LiveCounters
	before := series().Tasks
	const workers, rounds = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				live.Tasks.Add(int64(r % 5))
				if live.Publish(); g == 0 && r%50 == 0 {
					live.Reset(nil)
				}
			}
		}()
	}
	wg.Wait()
	live.Publish()
	if got, want := series().Tasks-before, int64(workers*rounds/5*(0+1+2+3+4)); got != want {
		t.Fatalf("the tasks series advanced by %d, the set counted %d", got, want)
	}
}

// TestResetKeepsHeldCountersExact: counters another component keeps
// (Held) are published before that component is reset and rebased
// after, so a pool that is zeroed — or a wait count that is not — is
// counted once.
func TestResetKeepsHeldCountersExact(t *testing.T) {
	var hits, waits int64
	live := LiveCounters{Held: func(s CounterSet) CounterSet {
		s.PoolHits, s.BudgetWaits = hits, waits
		return s
	}}
	before := series()
	hits, waits = 100, 4
	live.Publish()
	hits, waits = 130, 5
	live.Reset(func() { hits = 0 })
	hits, waits = 20, 6
	live.Publish()
	if got := live.Snapshot(); got.PoolHits != 20 || got.BudgetWaits != 6 {
		t.Fatalf("snapshot does not carry the held counters: %+v", got)
	}
	after := series()
	if got := after.PoolHits - before.PoolHits; got != 150 {
		t.Errorf("pool hits series advanced by %d, want 130 before the reset + 20 after", got)
	}
	if got := after.BudgetWaits - before.BudgetWaits; got != 6 {
		t.Errorf("budget waits series advanced by %d, want 6", got)
	}
}

// TestDesignListsTheSchemaSeries: the series table in DESIGN.md §12 is
// the schema's, no more and no less, so the doc cannot drift from what a
// scrape returns.
func TestDesignListsTheSchemaSeries(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(doc), "<!-- counter-series:begin -->")
	table, _, ok2 := strings.Cut(table, "<!-- counter-series:end -->")
	if !ok || !ok2 {
		t.Fatal("DESIGN.md has no counter-series table markers")
	}
	listed := map[string]bool{}
	for _, name := range regexp.MustCompile(`sac_[a-z_]+`).FindAllString(table, -1) {
		listed[name] = true
	}
	for _, f := range Schema {
		if !listed[f.Prom] {
			t.Errorf("DESIGN.md does not list %s (%s)", f.Prom, f.Name)
		}
		delete(listed, f.Prom)
	}
	for name := range listed {
		t.Errorf("DESIGN.md lists %s, which is not a schema series", name)
	}
}

// byReflection is the reflection reference the array views are held to:
// the i-th field of a set, read through reflect.
func byReflection(s CounterSet) []int64 {
	rv := reflect.ValueOf(s)
	vals := make([]int64, rv.NumField())
	for i := range vals {
		vals[i] = rv.Field(i).Int()
	}
	return vals
}

// setByReflection writes vals into a set field by field through reflect.
func setByReflection(vals []int64) (s CounterSet) {
	rv := reflect.ValueOf(&s).Elem()
	for i, v := range vals {
		rv.Field(i).SetInt(v)
	}
	return s
}

// TestArrayViewMatchesReflection: every schema loop indexes the counter
// struct as an array, and that array's i-th element is the struct's i-th
// field — for a set and for a live set — in every loop: CounterValues,
// CountersFrom, SubCounters, MergeCounters, Snapshot and Reset. Values
// are written and read back by reflection, a different one per field, so
// a view that is off by a field or a word cannot agree by accident.
func TestArrayViewMatchesReflection(t *testing.T) {
	n := reflect.TypeOf(CounterSet{}).NumField()
	if n != len(Schema) || int(nCounters) != n {
		t.Fatalf("the struct has %d fields, the schema %d, the array view %d", n, len(Schema), nCounters)
	}
	av, bv := make([]int64, n), make([]int64, n)
	for i := range av {
		av[i], bv[i] = 1_000_003*int64(i+1), 7*int64(i+1)+int64(i*i)
	}
	a, b := setByReflection(av), setByReflection(bv)
	if got := CounterValues(a); !reflect.DeepEqual(got, av) {
		t.Errorf("CounterValues = %v, reflection reads %v", got, av)
	}
	if got := byReflection(CountersFrom(av)); !reflect.DeepEqual(got, av) {
		t.Errorf("CountersFrom wrote %v, want %v", got, av)
	}
	wantSub, wantMerge := make([]int64, n), make([]int64, n)
	for i, f := range Schema {
		wantSub[i], wantMerge[i] = av[i], av[i]+bv[i]
		switch f.Rule {
		case Sum:
			wantSub[i] = av[i] - bv[i]
		case Max:
			wantMerge[i] = max(av[i], bv[i])
		}
	}
	if got := byReflection(SubCounters(a, b)); !reflect.DeepEqual(got, wantSub) {
		t.Errorf("SubCounters = %v, want %v", got, wantSub)
	}
	if got := byReflection(MergeCounters(a, b)); !reflect.DeepEqual(got, wantMerge) {
		t.Errorf("MergeCounters = %v, want %v", got, wantMerge)
	}

	var live LiveCounters
	lv := reflect.ValueOf(&live.Counters).Elem()
	for i, v := range av {
		lv.Field(i).Addr().Interface().(*atomic.Int64).Store(v)
	}
	if got := byReflection(live.Snapshot()); !reflect.DeepEqual(got, av) {
		t.Errorf("Snapshot = %v, reflection wrote %v", got, av)
	}
	live.Reset(nil)
	for i, f := range Schema {
		want := int64(0)
		if f.Rule == Level {
			want = av[i]
		}
		if got := lv.Field(i).Addr().Interface().(*atomic.Int64).Load(); got != want {
			t.Errorf("%s (%s) holds %d after Reset, want %d", f.Name, f.Rule, got, want)
		}
	}
}

// TestCheckLayoutRejectsMisfits: a struct the array view would misread —
// one field too many, or a field of another type — panics.
func TestCheckLayoutRejectsMisfits(t *testing.T) {
	type longer struct {
		Counters[int64]
		Extra int32
	}
	for _, tc := range []struct {
		name     string
		typ, elm reflect.Type
	}{
		{"a field too many", reflect.TypeOf(longer{}), reflect.TypeOf(int64(0))},
		{"int64 fields for a live set", reflect.TypeOf(CounterSet{}), reflect.TypeOf(atomic.Int64{})},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: checkLayout did not panic", tc.name)
				}
			}()
			checkLayout(tc.typ, tc.elm)
		}()
	}
}

// The per-stage cost of the schema loops: every stage end publishes the
// engine's live set, and every Run resets it, snapshots it and diffs two
// snapshots.
func BenchmarkLiveCountersPublish(b *testing.B) {
	var live LiveCounters
	for i := 0; i < b.N; i++ {
		live.Tasks.Add(1)
		live.Publish()
	}
}

func BenchmarkLiveCountersSnapshot(b *testing.B) {
	var live LiveCounters
	var s CounterSet
	for i := 0; i < b.N; i++ {
		s = live.Snapshot()
	}
	_ = s
}

func BenchmarkLiveCountersReset(b *testing.B) {
	var live LiveCounters
	for i := 0; i < b.N; i++ {
		live.Tasks.Add(1)
		live.Reset(nil)
	}
}

func BenchmarkSubCounters(b *testing.B) {
	x, y := distinct(1000, 7), distinct(5, 11)
	for i := 0; i < b.N; i++ {
		x = SubCounters(x, y)
	}
	_ = x
}
