package dataflow

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"sync"
	"testing"

	"repro/internal/linalg"
	"repro/internal/trace"
)

// memHub is an in-process cluster fabric: one blob store per rank with
// blocking fetches, peer-death simulation (a killed rank's store is
// dropped, like a SIGKILLed process), and a publish-count trigger that
// kills a rank mid-shuffle-write. A fetch from the fetching rank itself,
// or of a shuffle blob from the rank it is keyed for — one no rank
// publishes — panics the rank that asks: a regression fails its test
// instead of waiting forever for a blob that never comes.
type memHub struct {
	mu     sync.Mutex
	cond   *sync.Cond
	world  int
	blobs  []map[string][]byte
	dead   []bool
	killAt []int // kill rank r after this many publishes; -1 = never
	tearAt []int // tear streams FROM rank r after this many bytes; -1 = never
	pubs   []int
}

func newMemHub(world int) *memHub {
	h := &memHub{
		world:  world,
		blobs:  make([]map[string][]byte, world),
		dead:   make([]bool, world),
		killAt: make([]int, world),
		tearAt: make([]int, world),
		pubs:   make([]int, world),
	}
	h.cond = sync.NewCond(&h.mu)
	for r := range h.blobs {
		h.blobs[r] = make(map[string][]byte)
		h.killAt[r] = -1
		h.tearAt[r] = -1
	}
	return h
}

func (h *memHub) transport(rank int) *memTransport { return &memTransport{h: h, rank: rank} }

// kill drops rank r's store and fails every fetch from it, pending or
// later, as a SIGKILLed process's peers see it.
func (h *memHub) kill(r int) {
	h.mu.Lock()
	h.killLocked(r)
	h.mu.Unlock()
}

func (h *memHub) killLocked(r int) {
	h.dead[r] = true
	h.blobs[r] = make(map[string][]byte)
	h.cond.Broadcast()
}

// killAfter arranges for rank r's next publish past n to fail and drop
// its whole store, modeling a worker killed mid-map-stage.
func (h *memHub) killAfter(r, n int) {
	h.mu.Lock()
	h.killAt[r] = n
	h.mu.Unlock()
}

// tearStreams makes every stream read from rank r fail with a transport
// error once n bytes have been delivered, modeling a connection torn
// down mid-transfer (the peer itself stays alive).
func (h *memHub) tearStreams(r, n int) {
	h.mu.Lock()
	h.tearAt[r] = n
	h.mu.Unlock()
}

type memTransport struct {
	h    *memHub
	rank int
}

func (t *memTransport) Rank() int  { return t.rank }
func (t *memTransport) World() int { return t.h.world }

func (t *memTransport) Publish(key string, blob []byte) error {
	h := t.h
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.dead[t.rank] {
		return errors.New("memtransport: this rank is dead")
	}
	if h.killAt[t.rank] >= 0 && h.pubs[t.rank] >= h.killAt[t.rank] {
		h.killLocked(t.rank)
		return errors.New("memtransport: killed mid-publish")
	}
	h.pubs[t.rank]++
	h.blobs[t.rank][key] = blob
	h.cond.Broadcast()
	return nil
}

// selfBound reports whether key names a shuffle blob,
// x<exchange>.<map task>.<rank>, keyed for rank.
func selfBound(key string, rank int) bool {
	var exch, m, to int
	n, _ := fmt.Sscanf(key, "x%d.%d.%d", &exch, &m, &to)
	return n == 3 && to == rank
}

// FetchReader blocks until rank has published key (or died), then hands
// the blob back in small reads, forcing incremental decode; a peer death
// mid-stream surfaces as a transport error, and tearStreams injects torn
// connections.
func (t *memTransport) FetchReader(rank int, key string) (io.ReadCloser, error) {
	if rank == t.rank || selfBound(key, rank) {
		panic(fmt.Sprintf("memtransport: rank %d asked rank %d for %s, which it never publishes", t.rank, rank, key))
	}
	h := t.h
	h.mu.Lock()
	defer h.mu.Unlock()
	for {
		if h.dead[rank] {
			return nil, fmt.Errorf("memtransport: rank %d is dead", rank)
		}
		if blob, ok := h.blobs[rank][key]; ok {
			return &memStreamReader{t: t, from: rank, blob: blob, tear: h.tearAt[rank]}, nil
		}
		h.cond.Wait()
	}
}

type memStreamReader struct {
	t    *memTransport
	from int
	blob []byte
	off  int
	tear int // error after this many delivered bytes; -1 = never
	terr error
}

func (r *memStreamReader) Read(p []byte) (int, error) {
	if r.terr != nil {
		return 0, r.terr
	}
	h := r.t.h
	h.mu.Lock()
	dead := h.dead[r.from]
	h.mu.Unlock()
	if dead {
		r.terr = fmt.Errorf("memtransport: rank %d died mid-stream", r.from)
		return 0, r.terr
	}
	if r.tear >= 0 && r.off >= r.tear {
		r.terr = errors.New("memtransport: stream torn mid-transfer")
		return 0, r.terr
	}
	if r.off >= len(r.blob) {
		return 0, io.EOF
	}
	n := 64 // small reads force chunk-at-a-time decoding
	if n > len(p) {
		n = len(p)
	}
	if rem := len(r.blob) - r.off; n > rem {
		n = rem
	}
	if r.tear >= 0 && r.off+n > r.tear {
		n = r.tear - r.off
	}
	copy(p, r.blob[r.off:r.off+n])
	r.off += n
	return n, nil
}

func (r *memStreamReader) Close() error        { return nil }
func (r *memStreamReader) TransportErr() error { return r.terr }

// spmdResult is everything the exercise program computes: every wide
// and narrow operator plus every action, so one comparison covers the
// whole distributed surface.
type spmdResult struct {
	sums       []Pair[int64, float64]
	grouped    []Pair[int64, int64]
	joined     []Pair[int64, float64]
	wideJoined []Pair[int64, float64]
	reparted   []int64
	count      int64
	reduced    float64
	agg        float64
}

// runSPMDProgram is the deterministic job every rank (and the local
// reference) executes: reduceByKey, groupByKey, a co-partitioned
// (narrow) join, a re-partitioning (wide) join, repartition, and all
// driver actions.
func runSPMDProgram(ctx *Context) spmdResult {
	base := Generate(ctx, 6, func(p int) []Pair[int64, float64] {
		rows := make([]Pair[int64, float64], 0, 40)
		for i := 0; i < 40; i++ {
			k := int64((p*40 + i) % 17)
			rows = append(rows, KV(k, float64(p*40+i)*0.5))
		}
		return rows
	})
	sums := ReduceByKey(base, func(a, b float64) float64 { return a + b }, 4)
	counts := ReduceByKey(Map(base, func(p Pair[int64, float64]) Pair[int64, int64] { return KV(p.Key, int64(1)) }),
		func(a, b int64) int64 { return a + b }, 4)
	narrow := Join(sums, counts, 4) // both sides hash-partitioned by key into 4
	wide := Join(sums, counts, 3)   // forces both exchanges
	grouped := GroupByKey(base, 5)
	weigh := func(j Pair[int64, JoinedPair[float64, int64]]) Pair[int64, float64] {
		return KV(j.Key, j.Value.Left*float64(j.Value.Right))
	}
	vals := Map(base, func(p Pair[int64, float64]) float64 { return p.Value })
	return spmdResult{
		sums: Collect(sums),
		grouped: Collect(Map(grouped, func(g Pair[int64, []float64]) Pair[int64, int64] {
			return KV(g.Key, int64(len(g.Value)))
		})),
		joined:     Collect(Map(narrow, weigh)),
		wideJoined: Collect(Map(wide, weigh)),
		reparted:   Collect(Repartition(Map(base, func(p Pair[int64, float64]) int64 { return p.Key }), 5)),
		count:      Count(base),
		reduced:    Reduce(vals, func(a, b float64) float64 { return a + b }),
		agg:        Aggregate(vals, 0.0, func(a float64, v float64) float64 { return a + v }, func(a, b float64) float64 { return a + b }),
	}
}

// onRanks executes program on world in-process ranks over hub, each
// rank's Config passed through tweak, returning each rank's result and
// panic value (nil when the rank completed).
func onRanks[R any](hub *memHub, world int, tweak func(*Config), program func(*Context) R) ([]R, []any) {
	results := make([]R, world)
	panics := make([]any, world)
	var wg sync.WaitGroup
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer func() {
				// A rank that panicked is a dead process to its peers.
				if panics[r] = recover(); panics[r] != nil {
					hub.kill(r)
				}
			}()
			conf := Config{
				Parallelism: 2,
				Transport:   hub.transport(r),
				WorkerTag:   fmt.Sprintf("worker-%d", r),
			}
			tweak(&conf)
			ctx := NewContext(conf)
			defer ctx.Close()
			results[r] = program(ctx)
		}(r)
	}
	wg.Wait()
	return results, panics
}

// RunOnRanks runs program on world in-process ranks and returns each
// rank's result, failing t if one panicked. It is the SPMD fabric for the
// external tests of the packages built on dataflow.
func RunOnRanks[R any](t *testing.T, world int, program func(*Context) R) []R {
	t.Helper()
	results, panics := onRanks(newMemHub(world), world, func(*Config) {}, program)
	for r, p := range panics {
		if p != nil {
			t.Fatalf("world %d: rank %d panicked: %v", world, r, p)
		}
	}
	return results
}

// runRanks executes the exercise program on world in-process ranks over
// hub, returning each rank's result, metrics and panic value.
func runRanks(hub *memHub, world int, tweak func(*Config)) ([]spmdResult, []MetricsSnapshot, []any) {
	type run struct {
		res spmdResult
		m   MetricsSnapshot
	}
	runs, panics := onRanks(hub, world, tweak, func(ctx *Context) run { return run{runSPMDProgram(ctx), ctx.Metrics()} })
	results := make([]spmdResult, world)
	metrics := make([]MetricsSnapshot, world)
	for r, x := range runs {
		results[r], metrics[r] = x.res, x.m
	}
	return results, metrics, panics
}

// spmdBudgets are the memory budgets the SPMD suite runs under: none,
// and one below any map task's output, so every segment of every
// shuffle spills on the rank that wrote it.
var spmdBudgets = []int64{0, 64}

// localUnderBudget runs the exercise program on the local backend.
func localUnderBudget(budget int64) spmdResult {
	local := NewContext(Config{Parallelism: 2, MemoryBudget: budget})
	defer local.Close()
	return runSPMDProgram(local)
}

// TestSPMDMatchesLocal proves the distributed backend's core parity
// claim: 1, 3 and 8 ranks running the same program produce results
// exactly equal to the local backend's, on every rank — and a memory
// budget on every rank changes nothing but where the segments rest.
func TestSPMDMatchesLocal(t *testing.T) {
	for _, world := range []int{1, 3, 8} {
		for _, budget := range spmdBudgets {
			want := localUnderBudget(budget)
			results, metrics, panics := runRanks(newMemHub(world), world,
				func(c *Config) { c.MemoryBudget = budget })
			var remote, spilled int64
			for r := 0; r < world; r++ {
				if panics[r] != nil {
					t.Fatalf("world %d budget %d: rank %d panicked: %v", world, budget, r, panics[r])
				}
				if !reflect.DeepEqual(results[r], want) {
					t.Errorf("world %d budget %d: rank %d result differs from local\n got: %+v\nwant: %+v",
						world, budget, r, results[r], want)
				}
				if metrics[r].FetchFailures != 0 || metrics[r].Resubmissions != 0 {
					t.Errorf("rank %d: unexpected failures: fetchFailures=%d resubmissions=%d",
						r, metrics[r].FetchFailures, metrics[r].Resubmissions)
				}
				remote += metrics[r].RemoteFetches
				spilled += metrics[r].SpilledBytes
			}
			// The wide stages must actually have crossed the fabric.
			if world > 1 && remote == 0 {
				t.Fatalf("world %d: no remote fetches recorded — the ranks did not exchange data", world)
			}
			if (spilled > 0) != (budget > 0) {
				t.Fatalf("world %d budget %d: the ranks spilled %d bytes", world, budget, spilled)
			}
		}
	}
}

// TestSPMDWorkerDeathRecomputes kills one rank mid-shuffle-write (its
// published buckets vanish with it, like a SIGKILLed worker) and
// checks the partial-failure contract: the surviving ranks finish with
// results exactly equal to the local backend, resubmitting the lost
// map tasks via lineage recompute and counting the fetch failures —
// with the recomputed segments spilling like any other under a budget.
func TestSPMDWorkerDeathRecomputes(t *testing.T) {
	for _, budget := range spmdBudgets {
		want := localUnderBudget(budget)
		const world, victim = 3, 2
		hub := newMemHub(world)
		hub.killAfter(victim, 3) // dies after 3 published buckets, mid map stage
		results, metrics, panics := runRanks(hub, world, func(c *Config) { c.MemoryBudget = budget })

		if panics[victim] == nil {
			t.Fatal("victim rank should have died mid-publish")
		}
		var resub, fails int64
		for r := 0; r < world; r++ {
			if r == victim {
				continue
			}
			if panics[r] != nil {
				t.Fatalf("budget %d: surviving rank %d panicked: %v", budget, r, panics[r])
			}
			if !reflect.DeepEqual(results[r], want) {
				t.Errorf("budget %d: surviving rank %d result differs from local after worker loss", budget, r)
			}
			if (metrics[r].SpilledBytes > 0) != (budget > 0) {
				t.Errorf("budget %d: surviving rank %d spilled %d bytes", budget, r, metrics[r].SpilledBytes)
			}
			resub += metrics[r].Resubmissions
			fails += metrics[r].FetchFailures
		}
		if resub == 0 {
			t.Error("expected resubmissions > 0 after worker death")
		}
		if fails == 0 {
			t.Error("expected fetch failures > 0 after worker death")
		}
	}
}

// TestSPMDNarrowJoinStaysLocal checks that co-partitioned reads move
// nothing: a program that only narrow-joins two co-partitioned shuffles
// must fetch remotely only for the wide map-side exchanges and the
// final gather, never for the narrow read itself — measured here as
// the narrow program performing strictly fewer remote fetches than the
// same join forced wide.
func TestSPMDNarrowJoinStaysLocal(t *testing.T) {
	run := func(joinParts int) int64 {
		const world = 3
		hub := newMemHub(world)
		var wg sync.WaitGroup
		fetches := make([]int64, world)
		for r := 0; r < world; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				ctx := NewContext(Config{Parallelism: 2, Transport: hub.transport(r)})
				defer ctx.Close()
				base := Generate(ctx, 6, func(p int) []Pair[int64, int64] {
					rows := make([]Pair[int64, int64], 30)
					for i := range rows {
						rows[i] = KV(int64((p+i)%11), int64(i))
					}
					return rows
				})
				a := ReduceByKey(base, func(x, y int64) int64 { return x + y }, 4)
				b := ReduceByKey(Map(base, func(p Pair[int64, int64]) Pair[int64, int64] { return KV(p.Key, int64(1)) }),
					func(x, y int64) int64 { return x + y }, 4)
				Count(Join(a, b, joinParts))
				fetches[r] = ctx.Metrics().RemoteFetches
			}(r)
		}
		wg.Wait()
		var total int64
		for _, f := range fetches {
			total += f
		}
		return total
	}
	narrow, wide := run(4), run(3)
	if narrow >= wide {
		t.Errorf("narrow join fetched %d blobs remotely, wide join %d; narrow should be cheaper", narrow, wide)
	}
}

// TestWorkerTagOnSpans: a tagged context must stamp every recorded
// span with the worker identity so merged multi-process traces stay
// attributable.
func TestWorkerTagOnSpans(t *testing.T) {
	ctx := NewContext(Config{Parallelism: 2, WorkerTag: "w7"})
	defer ctx.Close()
	tr := trace.New()
	ctx.SetTracer(tr)
	data := Generate(ctx, 3, func(p int) []Pair[int64, int64] {
		return []Pair[int64, int64]{KV(int64(p), int64(p))}
	})
	Count(ReduceByKey(data, func(a, b int64) int64 { return a + b }, 2))
	spans := tr.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	for _, s := range spans {
		tagged := false
		for _, a := range s.Attrs() {
			if a.Key == "worker" && a.Value == "w7" {
				tagged = true
			}
		}
		if !tagged {
			t.Fatalf("span %q missing worker tag: %v", s.Name, s.Attrs())
		}
	}
}

// TestMetricsIsolationAcrossContexts is the regression test for gauge
// scoping: tile-pool, memory, spill, and counter state all live on the
// Context, so heavy work (including forced spills) in one session must
// leave a concurrently-alive sibling's snapshot untouched.
func TestMetricsIsolationAcrossContexts(t *testing.T) {
	busy := NewContext(Config{Parallelism: 2, MemoryBudget: 1 << 16})
	defer busy.Close()
	idle := NewContext(Config{Parallelism: 2, MemoryBudget: 1 << 30})
	defer idle.Close()

	data := Generate(busy, 4, func(p int) []Pair[int64, float64] {
		rows := make([]Pair[int64, float64], 4096)
		for i := range rows {
			rows[i] = KV(int64(p*4096+i), float64(i))
		}
		return rows
	})
	got := Collect(ReduceByKey(data, func(a, b float64) float64 { return a + b }, 4))
	if len(got) != 4*4096 {
		t.Fatalf("got %d keys, want %d", len(got), 4*4096)
	}

	bm := busy.Metrics()
	if bm.Tasks == 0 || bm.ShuffledRecords == 0 {
		t.Fatalf("busy context recorded no work: %+v", bm)
	}
	if bm.SpilledBytes == 0 {
		t.Fatalf("busy context should have spilled under a 64KiB budget")
	}
	im := idle.Metrics()
	if im.Tasks != 0 || im.Stages != 0 || im.ShuffledRecords != 0 || im.ShuffledBytes != 0 ||
		im.SpilledBytes != 0 || im.SpillFiles != 0 || im.MergePasses != 0 ||
		im.PoolHits != 0 || im.PoolMisses != 0 || im.MemoryUsed != 0 || im.MemoryPeak != 0 ||
		im.BudgetWaits != 0 || im.RemoteFetches != 0 || im.Resubmissions != 0 {
		t.Errorf("idle context contaminated by sibling's work: %+v", im)
	}
	if im.MemoryBudget != 1<<30 {
		t.Errorf("idle context budget gauge = %d, want its own 1GiB", im.MemoryBudget)
	}
}

// TestSPMDStreamTearRecomputes tears every remote stream from rank 1
// mid-transfer (the rank stays alive — only connections break). The
// readers surface a transport error, so consumers must fall back to
// lineage recompute, never panic, and still match the local reference
// byte for byte.
func TestSPMDStreamTearRecomputes(t *testing.T) {
	local := NewContext(Config{Parallelism: 2})
	defer local.Close()
	want := runSPMDProgram(local)

	const world = 3
	hub := newMemHub(world)
	hub.tearStreams(1, 10) // every remote stream from rank 1 tears after 10 bytes
	results, metrics, panics := runRanks(hub, world, func(*Config) {})
	var fails int64
	for r := 0; r < world; r++ {
		if panics[r] != nil {
			t.Fatalf("rank %d panicked on torn stream (should recompute): %v", r, panics[r])
		}
		if !reflect.DeepEqual(results[r], want) {
			t.Errorf("rank %d result differs from local after torn streams", r)
		}
		fails += metrics[r].FetchFailures
	}
	if fails == 0 {
		t.Fatal("no fetch failures counted — the tear never happened")
	}
}

// TestNoSelfBoundBlob: a rank publishes only what a peer reads. No rank
// publishes a shuffle blob keyed for itself, a world of one publishes
// nothing at all, and a rank lost mid-shuffle leaves the survivors the
// answer the local backend gives: a partition they take over recomputes
// the lost rank's own map tasks, whose segments for it were never
// published (the hub panics a rank that asks for one).
func TestNoSelfBoundBlob(t *testing.T) {
	for _, world := range []int{1, 3, 8} {
		for _, budget := range spmdBudgets {
			hub := newMemHub(world)
			_, _, panics := runRanks(hub, world, func(c *Config) { c.MemoryBudget = budget })
			for r, p := range panics {
				if p != nil {
					t.Fatalf("world %d budget %d: rank %d panicked: %v", world, budget, r, p)
				}
			}
			if world == 1 && hub.pubs[0] != 0 {
				t.Errorf("budget %d: a world of one published %d blobs", budget, hub.pubs[0])
			}
			shuffled := 0
			for r, blobs := range hub.blobs {
				for key := range blobs {
					if selfBound(key, r) {
						t.Errorf("world %d budget %d: rank %d published %s, its own", world, budget, r, key)
					}
					if key[0] == 'x' {
						shuffled++
					}
				}
			}
			if world > 1 && shuffled == 0 {
				t.Errorf("world %d budget %d: no shuffle blob published", world, budget)
			}
		}
	}

	for _, budget := range spmdBudgets {
		want := localUnderBudget(budget)
		const world, victim = 3, 1
		hub := newMemHub(world)
		hub.killAfter(victim, 2)
		results, metrics, panics := runRanks(hub, world, func(c *Config) { c.MemoryBudget = budget })
		if panics[victim] == nil {
			t.Fatal("victim rank should have died mid-publish")
		}
		var resub int64
		for r := 0; r < world; r++ {
			if r == victim {
				continue
			}
			if panics[r] != nil {
				t.Fatalf("budget %d: surviving rank %d panicked: %v", budget, r, panics[r])
			}
			if !reflect.DeepEqual(results[r], want) {
				t.Errorf("budget %d: surviving rank %d differs from local after losing a rank mid-shuffle", budget, r)
			}
			resub += metrics[r].Resubmissions
		}
		if resub == 0 {
			t.Errorf("budget %d: no map task of the lost rank was resubmitted", budget)
		}
	}
}

// TestCollectOwnedCrossesNothing: under a transport CollectOwned returns
// each rank the partitions it owns and only those, their union in
// partition order is what Collect returns locally, and the action itself
// publishes and fetches nothing — the only keys on the fabric are the
// shuffle's, and a rank whose peers finished first does not wait for them.
// A world with more ranks than partitions leaves the extra ranks empty.
func TestCollectOwnedCrossesNothing(t *testing.T) {
	program := func(ctx *Context) *Dataset[Pair[int64, float64]] {
		base := Generate(ctx, 6, func(p int) []Pair[int64, float64] {
			rows := make([]Pair[int64, float64], 0, 40)
			for i := 0; i < 40; i++ {
				rows = append(rows, KV(int64((p*40+i)%17), float64(p*40+i)*0.5))
			}
			return rows
		})
		return ReduceByKey(base, func(a, b float64) float64 { return a + b }, 4)
	}
	local := NewContext(Config{Parallelism: 2})
	defer local.Close()
	want := Collect(program(local))
	whole := CollectOwned(program(local))
	if len(whole) != 4 {
		t.Fatalf("a local context owns %d of 4 partitions", len(whole))
	}
	for _, world := range []int{1, 2, 3, 8} {
		hub := newMemHub(world)
		owned := make([][]OwnedPartition[Pair[int64, float64]], world)
		collected := make([]int64, world)
		var wg sync.WaitGroup
		for r := 0; r < world; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				ctx := NewContext(Config{Parallelism: 2, Transport: hub.transport(r)})
				defer ctx.Close()
				owned[r] = CollectOwned(program(ctx))
				collected[r] = ctx.Metrics().CollectedRecords
			}(r)
		}
		wg.Wait()
		parts := make([][]Pair[int64, float64], 4)
		var records int64
		for r, ops := range owned {
			for _, op := range ops {
				if op.Part%world != r || parts[op.Part] != nil {
					t.Fatalf("world %d: rank %d returned partition %d", world, r, op.Part)
				}
				parts[op.Part] = append([]Pair[int64, float64]{}, op.Rows...)
			}
			records += collected[r]
		}
		var got []Pair[int64, float64]
		for p, rows := range parts {
			if rows == nil {
				t.Fatalf("world %d: no rank returned partition %d", world, p)
			}
			got = append(got, rows...)
		}
		if !reflect.DeepEqual(got, want) || records != int64(len(want)) {
			t.Fatalf("world %d: the owned partitions in order (%d records counted) are not the local result (%d)\n got: %v\nwant: %v",
				world, records, len(want), got, want)
		}
		for r := range hub.blobs {
			for key := range hub.blobs[r] {
				if key[0] != 'x' {
					t.Fatalf("world %d: rank %d published %q", world, r, key)
				}
			}
		}
	}
}

// TestSPMDReplicatedTileFoldedInPlace pins the aliasing contract of a
// grouped blob: replicas of a tile that reach a rank in one blob share
// one tile there, as they share one on the local backend, so a
// ReduceByKey combine that adds into its first argument sees what it sees
// locally. Every map task emits its tile under two keys that hash to two
// partitions of one rank, rank 1 (rank 0 at world 1); the fold of the
// first partition grows map task 0's tile, which the second partition's
// fold then starts from — and at worlds 2 and 3 that tile reached rank 1
// from rank 0. One task slot per rank reads a rank's partitions in
// partition order, as the local backend reads them. Under a budget every
// segment rests in a run file, locally and on every rank, and no replica
// is shared anywhere.
func TestSPMDReplicatedTileFoldedInPlace(t *testing.T) {
	const parts, srcParts = 6, 4
	keyIn := func(p int) Coord {
		for i := int64(0); ; i++ {
			if k := (Coord{I: i}); partitionOf(k, parts) == p {
				return k
			}
		}
	}
	for _, world := range []int{1, 2, 3} {
		k1, k2 := keyIn(1%world), keyIn(1%world+world)
		program := func(ctx *Context) []OwnedPartition[Pair[Coord, *linalg.Dense]] {
			tiles := Generate(ctx, srcParts, func(m int) []Pair[Coord, *linalg.Dense] {
				tile := linalg.NewDenseFrom(1, 2, []float64{float64(m + 1), float64(10 * (m + 1))})
				return []Pair[Coord, *linalg.Dense]{KV(k1, tile), KV(k2, tile)}
			})
			return CollectOwned(ReduceByKey(tiles, func(a, b *linalg.Dense) *linalg.Dense {
				return linalg.AddInPlace(a, b)
			}, parts))
		}
		flatten := func(owned ...[]OwnedPartition[Pair[Coord, *linalg.Dense]]) [][]float64 {
			byPart := make([][]float64, parts)
			for _, ops := range owned {
				for _, op := range ops {
					for _, kv := range op.Rows {
						byPart[op.Part] = append(byPart[op.Part], kv.Value.Data...)
					}
				}
			}
			return byPart
		}
		for _, budget := range spmdBudgets {
			local := NewContext(Config{Parallelism: 1, MemoryBudget: budget})
			want := flatten(program(local))
			local.Close()
			hub := newMemHub(world)
			owned := make([][]OwnedPartition[Pair[Coord, *linalg.Dense]], world)
			var wg sync.WaitGroup
			for r := 0; r < world; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					ctx := NewContext(Config{Parallelism: 1, MemoryBudget: budget, Transport: hub.transport(r)})
					defer ctx.Close()
					owned[r] = program(ctx)
				}(r)
			}
			wg.Wait()
			if got := flatten(owned...); !reflect.DeepEqual(got, want) {
				t.Errorf("world %d budget %d: folded in place on the cluster %v, locally %v", world, budget, got, want)
			}
		}
	}
}
