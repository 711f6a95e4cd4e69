// The counter schema: every scalar engine counter is declared exactly
// once, as a tagged field of Counters, and everything that used to be
// written out per counter — the live atomics, the snapshot, the diff,
// the cross-rank merge, the wire report, the per-worker row and the
// Prometheus series — is a loop over those fields. Adding a counter is
// one tagged field here plus its Add site.

package obs

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Counters is the schema. T is atomic.Int64 for a live set (so the hot
// path stays c.Tasks.Add(1): one atomic add, no lookup) and int64 for a
// snapshot, a diff or a merge (CounterSet). Each field's tags give its
// Prometheus series name, its merge rule and its help text; field
// order is the wire order.
type Counters[T any] struct {
	Tasks            T `prom:"sac_dataflow_tasks_total" rule:"sum" help:"tasks completed successfully"`
	Stages           T `prom:"sac_dataflow_stages_total" rule:"sum" help:"stages executed (shuffle map-sides and actions)"`
	Shuffles         T `prom:"sac_dataflow_shuffles_total" rule:"sum" help:"wide operations performed"`
	ShuffledRecords  T `prom:"sac_dataflow_shuffled_records_total" rule:"sum" help:"records that crossed a shuffle boundary"`
	ShuffledBytes    T `prom:"sac_dataflow_shuffled_bytes_total" rule:"sum" help:"estimated payload bytes written across shuffle boundaries"`
	RecordsIn        T `prom:"sac_dataflow_records_in_total" rule:"sum" help:"records that reached a stage sink after narrow-chain fusion"`
	CollectedRecords T `prom:"sac_dataflow_collected_records_total" rule:"sum" help:"records returned to the driver"`
	CachedBytes      T `prom:"sac_dataflow_cached_bytes" rule:"gauge" help:"estimated bytes pinned by Persist caches"`

	// The context tile pool. A miss-heavy multiply is allocating a fresh
	// tile per output coordinate.
	PoolHits    T `prom:"sac_linalg_pool_hits_total" rule:"sum" help:"tile-pool gets served from the pool"`
	PoolMisses  T `prom:"sac_linalg_pool_misses_total" rule:"sum" help:"tile-pool gets that allocated"`
	PoolReturns T `prom:"sac_linalg_pool_returns_total" rule:"sum" help:"tiles handed back to the tile pool"`

	// Out-of-core: all zero when no memory budget is set.
	SpilledBytes      T `prom:"sac_dataflow_spilled_bytes_total" rule:"sum" help:"bytes written to spill run files under memory pressure"`
	SpilledRecords    T `prom:"sac_dataflow_spilled_records_total" rule:"sum" help:"rows written to spill run files"`
	SpillFiles        T `prom:"sac_dataflow_spill_files_total" rule:"sum" help:"spill run files created"`
	MergePasses       T `prom:"sac_dataflow_merge_passes_total" rule:"sum" help:"read-back passes over spilled shuffle partitions"`
	BudgetWaits       T `prom:"sac_memory_budget_waits_total" rule:"sum" help:"Reserve calls that blocked for other holders to release"`
	MemoryOvercommits T `prom:"sac_memory_overcommits_total" rule:"sum" help:"grants issued over budget to preserve liveness"`
	MemoryBudget      T `prom:"sac_memory_budget_bytes" rule:"gauge" help:"memory manager budget (0 when unlimited)"`
	MemoryUsed        T `prom:"sac_memory_used_bytes" rule:"gauge" help:"bytes currently reserved from the memory manager"`
	MemoryPeak        T `prom:"sac_memory_peak_bytes" rule:"max" help:"high-water mark of reserved bytes"`

	// >= 2 proves independent shuffle map-sides overlapped;
	// MetricsSnapshot.Sub recomputes it over the diffed stages.
	MaxConcurrentStages T `prom:"sac_dataflow_max_concurrent_stages" rule:"max" help:"high-water mark of stages executing simultaneously"`

	// SPMD shuffle, as the engine sees it (zero on local contexts).
	RemoteFetches T `prom:"sac_dataflow_remote_fetches_total" rule:"sum" help:"shuffle blobs (one per map task and rank) and action partials pulled from peer workers"`
	FetchFailures T `prom:"sac_dataflow_fetch_failures_total" rule:"sum" help:"fetches that failed because the owning peer was dead or unreachable"`
	Resubmissions T `prom:"sac_dataflow_resubmissions_total" rule:"sum" help:"map tasks recomputed from lineage to cover for a lost peer"`

	// The data plane, as the cluster exchange sees it. A chunk crosses
	// as it was published, so the wire bytes are the raw bytes plus each
	// chunk frame's type byte and length.
	WireFetchedBytes T `prom:"sac_cluster_wire_fetched_bytes_total" rule:"sum" help:"shuffle bytes pulled over TCP from peer data servers, chunk frames whole"`
	FetchRetries     T `prom:"sac_cluster_fetch_retries_total" rule:"sum" help:"fetch attempts retried after a transient dial or stream error"`
	FetchGoneEvents  T `prom:"sac_cluster_fetch_gone_total" rule:"sum" help:"FetchGone replies received (peer lost the blob, forcing recompute)"`
	WireRawBytes     T `prom:"sac_cluster_wire_raw_bytes_total" rule:"sum" help:"shuffle bytes of the chunks pulled from peer data servers"`
	ChunksFetched    T `prom:"sac_cluster_chunks_fetched_total" rule:"sum" help:"shuffle chunks pulled from peer data servers"`
	ConnPoolHits     T `prom:"sac_cluster_conn_pool_hits_total" rule:"sum" help:"data-plane fetches that reused a pooled peer connection"`
	ConnPoolMisses   T `prom:"sac_cluster_conn_pool_misses_total" rule:"sum" help:"data-plane fetches that had to dial a fresh peer connection"`
	ResultBytes      T `prom:"sac_cluster_result_bytes_total" rule:"sum" help:"bytes of the result part of the job replies a rank sent the driver"`

	// A worker's resident input partitions (tiled.ResidentMatrix): a task
	// that reads one finds it generated (hit) or generates it (miss). Zero
	// on local contexts and on budgeted workers, which keep nothing. The
	// query server counts its registered matrices' reads into the same
	// fields and reports them on /status.
	ResidentBytes  T `prom:"sac_cluster_resident_bytes" rule:"gauge" help:"bytes of input partitions this worker keeps between jobs"`
	ResidentHits   T `prom:"sac_cluster_resident_hits_total" rule:"sum" help:"input partition reads served from the worker's resident store"`
	ResidentMisses T `prom:"sac_cluster_resident_misses_total" rule:"sum" help:"input partitions generated into the worker's resident store"`

	// Ranks run concurrently, so the merged wall is the slowest rank's.
	WallNanos T `prom:"sac_cluster_job_wall_nanoseconds" rule:"max" help:"wall time of the last job program run by a rank"`
}

// CounterSet is a set of counter values: a snapshot of a live set, a
// diff of two snapshots, one rank's report, or the merge of several.
type CounterSet = Counters[int64]

// Rule says how two values of one counter combine.
type Rule string

const (
	// Sum counters count work: a diff subtracts, a merge adds.
	Sum Rule = "sum"
	// Max counters are high-water marks: a diff keeps the later value,
	// a merge keeps the larger.
	Max Rule = "max"
	// Level counters ("gauge") read a current level: a diff keeps the
	// later value, a merge across ranks adds the levels up.
	Level Rule = "gauge"
)

// CounterField is one entry of the schema.
type CounterField struct {
	Name string // Go field name, which is also the JSON key
	Prom string // Prometheus series name
	Help string
	Rule Rule

	// The series in the Default registry, declared when the package
	// loads so a scrape lists it from the start: a counter for a Sum
	// field, a gauge otherwise.
	counter *Counter
	gauge   *Gauge
}

// Schema lists the counters in declaration (= wire) order. Building it
// panics on a half-declared counter, or on a field the array views
// (fields, liveFields) would misread, so no binary runs with either.
var Schema = func() []CounterField {
	checkLayout(reflect.TypeOf(CounterSet{}), reflect.TypeOf(int64(0)))
	checkLayout(reflect.TypeOf(Counters[atomic.Int64]{}), reflect.TypeOf(atomic.Int64{}))
	t := reflect.TypeOf(CounterSet{})
	s := make([]CounterField, t.NumField())
	for i := range s {
		f, err := schemaField(t.Field(i))
		if err != nil {
			panic(err)
		}
		if f.Rule == Sum {
			f.counter = Default.Counter(f.Prom, f.Help)
		} else {
			f.gauge = Default.Gauge(f.Prom, f.Help)
		}
		s[i] = f
	}
	return s
}()

// schemaField reads one field's tags. A field without a series name, a
// help string and a merge rule is an error.
func schemaField(f reflect.StructField) (CounterField, error) {
	cf := CounterField{Name: f.Name, Prom: f.Tag.Get("prom"), Help: f.Tag.Get("help"), Rule: Rule(f.Tag.Get("rule"))}
	switch {
	case !validMetricName(cf.Prom) || cf.Help == "":
		return cf, fmt.Errorf("obs: counter %s needs a prom name and a help string", f.Name)
	case cf.Rule != Sum && cf.Rule != Max && cf.Rule != Level:
		return cf, fmt.Errorf("obs: counter %s has merge rule %q, want sum, max or gauge", f.Name, cf.Rule)
	}
	return cf, nil
}

// nCounters is the schema's length as a constant, which the array views
// need: every field is one 8-byte word (checkLayout).
const nCounters = unsafe.Sizeof(CounterSet{}) / 8

// checkLayout panics unless t is nCounters fields of type elem, the i-th
// at byte offset 8·i — the layout of [nCounters]elem, which is what lets
// fields and liveFields view a counter struct as that array.
func checkLayout(t, elem reflect.Type) {
	if t.NumField() != int(nCounters) || t.Size() != 8*nCounters {
		panic(fmt.Sprintf("obs: %s has %d fields in %d bytes, want %d one-word fields", t, t.NumField(), t.Size(), nCounters))
	}
	for i := 0; i < t.NumField(); i++ {
		if f := t.Field(i); f.Type != elem || f.Offset != uintptr(8*i) {
			panic(fmt.Sprintf("obs: counter %s is a %s at offset %d, want a %s at %d", f.Name, f.Type, f.Offset, elem, 8*i))
		}
	}
}

// fields is s as the array whose i-th element is the counter Schema[i]
// describes, which every per-counter loop ranges over: a plain indexed
// load or store, with no reflection, since the loops run at every stage
// end (Publish) as well as per report and query.
func fields(s *CounterSet) *[nCounters]int64 { return (*[nCounters]int64)(unsafe.Pointer(s)) }

// liveFields is fields for a live set.
func liveFields(c *Counters[atomic.Int64]) *[nCounters]atomic.Int64 {
	return (*[nCounters]atomic.Int64)(unsafe.Pointer(c))
}

// CounterValues lists s's values in schema order.
func CounterValues(s CounterSet) []int64 { return slices.Clone(fields(&s)[:]) }

// CountersFrom is the inverse of CounterValues.
func CountersFrom(vals []int64) (s CounterSet) {
	copy(fields(&s)[:len(vals)], vals)
	return s
}

// SubCounters returns s - t: sum counters are diffed; high-water marks
// and levels cannot be, and keep s's (the later) value.
func SubCounters(s, t CounterSet) CounterSet {
	v, w := fields(&s), fields(&t)
	for i := range v {
		if Schema[i].Rule == Sum {
			v[i] -= w[i]
		}
	}
	return s
}

// MergeCounters folds two ranks' (or two sources') sets into one by
// each counter's rule.
func MergeCounters(a, b CounterSet) CounterSet {
	v, w := fields(&a), fields(&b)
	for i := range v {
		if Schema[i].Rule == Max {
			v[i] = max(v[i], w[i])
		} else {
			v[i] += w[i]
		}
	}
	return a
}

// LiveCounters is a counter set being counted into: the engine context
// and the cluster exchange each own one.
type LiveCounters struct {
	Counters[atomic.Int64]

	// Held, when set, completes a snapshot with the counters of this set
	// that another component keeps (the engine's tile pool and memory
	// manager); the set's own fields for those stay zero.
	Held func(CounterSet) CounterSet

	mu  sync.Mutex // serializes Publish and Reset
	pub CounterSet // the snapshot last folded into the registry
}

// Snapshot copies the current values.
func (l *LiveCounters) Snapshot() CounterSet { return l.read(false) }

// read is Snapshot; with reset it also zeroes the counters except the
// levels, which track live state rather than work done. Each counter is
// read and zeroed in one atomic swap, so an increment racing with a
// reset lands either in the returned set or in the live one afterwards.
func (l *LiveCounters) read(reset bool) (s CounterSet) {
	live, v := liveFields(&l.Counters), fields(&s)
	for i := range v {
		if reset && Schema[i].Rule != Level {
			v[i] = live[i].Swap(0)
		} else {
			v[i] = live[i].Load()
		}
	}
	if l.Held != nil {
		s = l.Held(s)
	}
	return s
}

// Publish folds the set into the Default registry: each sum series
// advances by what the set counted since it was last published, so the
// series totals every live set in the process; each other series is set
// when its value changed, so it shows the set that published last. The
// snapshot is taken under the lock, so concurrent publishers cannot
// fold an older one in after a newer one. Publish runs at stage and
// report granularity, never per record.
func (l *LiveCounters) Publish() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.publish(l.read(false))
}

func (l *LiveCounters) publish(s CounterSet) {
	cur, prev := fields(&s), fields(&l.pub)
	for i := range cur {
		switch f := &Schema[i]; {
		case f.Rule == Sum:
			f.counter.Add(cur[i] - prev[i])
		case cur[i] != prev[i]:
			f.gauge.Set(cur[i])
		}
	}
	l.pub = s
}

// Reset publishes what the set counted up to now and zeroes it (the
// levels excepted), so the registry's totals are exact across resets.
// resetHeld zeroes what Held reads; it runs under the same lock, so no
// Publish sees the two halves apart.
func (l *LiveCounters) Reset(resetHeld func()) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.publish(l.read(true))
	l.pub = SubCounters(l.pub, l.pub) // the sums restart from zero
	if l.Held != nil {
		resetHeld()
		l.pub = l.Held(l.pub)
	}
}
