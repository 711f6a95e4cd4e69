package dataflow

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"sync"
	"testing"

	"repro/internal/linalg"
	"repro/internal/spill"
	"repro/internal/trace"
)

// memHub is an in-process cluster fabric: one blob store per rank with
// blocking fetches, peer-death simulation (a killed rank's store is
// dropped, like a SIGKILLed process), and a publish-count trigger that
// kills a rank mid-shuffle-write. Like cluster.Exchange it takes offers:
// blobs encoded by the first fetch that asks for them.
type memHub struct {
	mu      sync.Mutex
	cond    *sync.Cond
	world   int
	blobs   []map[string][]byte
	offers  []map[string]*memOffer
	dead    []bool
	killAt  []int // kill rank r after this many publishes; -1 = never
	tearAt  []int // tear remote streams FROM rank r after this many bytes; -1 = never
	pubs    []int
	offered int // offers registered, on all ranks
	encoded int // offers a fetch made good
}

func newMemHub(world int) *memHub {
	h := &memHub{
		world:  world,
		blobs:  make([]map[string][]byte, world),
		offers: make([]map[string]*memOffer, world),
		dead:   make([]bool, world),
		killAt: make([]int, world),
		tearAt: make([]int, world),
		pubs:   make([]int, world),
	}
	h.cond = sync.NewCond(&h.mu)
	for r := range h.blobs {
		h.blobs[r] = make(map[string][]byte)
		h.offers[r] = make(map[string]*memOffer)
		h.killAt[r] = -1
		h.tearAt[r] = -1
	}
	return h
}

func (h *memHub) transport(rank int) *memTransport { return &memTransport{h: h, rank: rank} }

// killAfter arranges for rank r's next publish past n to fail and drop
// its whole store, modeling a worker killed mid-map-stage.
func (h *memHub) killAfter(r, n int) {
	h.mu.Lock()
	h.killAt[r] = n
	h.mu.Unlock()
}

// tearStreams makes every REMOTE stream read from rank r fail with a
// transport error once n bytes have been delivered, modeling a
// connection torn down mid-transfer (the peer itself stays alive).
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
		h.dead[t.rank] = true
		h.blobs[t.rank] = make(map[string][]byte)
		h.offers[t.rank] = make(map[string]*memOffer)
		h.cond.Broadcast()
		return errors.New("memtransport: killed mid-publish")
	}
	h.pubs[t.rank]++
	h.blobs[t.rank][key] = blob
	h.cond.Broadcast()
	return nil
}

// memOffer is a blob the first fetch encodes; every fetch of it sees
// that one outcome.
type memOffer struct {
	once   sync.Once
	encode func() ([]byte, error)
	blob   []byte
	err    error
}

// Offer registers a blob to be encoded by the first fetch of key.
func (t *memTransport) Offer(key string, encode func() ([]byte, error)) {
	h := t.h
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.dead[t.rank] {
		h.offers[t.rank][key] = &memOffer{encode: encode}
		h.offered++
		h.cond.Broadcast()
	}
}

// FetchReader blocks until rank has published key (or died), then hands
// the blob back in small reads, forcing incremental decode; a peer death
// mid-stream surfaces as a transport error, and tearStreams injects torn
// connections.
func (t *memTransport) FetchReader(rank int, key string) (io.ReadCloser, error) {
	h := t.h
	h.mu.Lock()
	defer h.mu.Unlock()
	for {
		if h.dead[rank] {
			return nil, fmt.Errorf("memtransport: rank %d is dead", rank)
		}
		if blob, ok := h.blobs[rank][key]; ok {
			tear := -1
			if rank != t.rank {
				tear = h.tearAt[rank]
			}
			return &memStreamReader{t: t, from: rank, blob: blob, tear: tear}, nil
		}
		if o, ok := h.offers[rank][key]; ok {
			// The encoder takes the offering shuffle's partition lock, which a
			// reader waiting on this hub may hold: run it with the hub open.
			h.mu.Unlock()
			o.once.Do(func() { o.blob, o.err = o.encode() })
			h.mu.Lock()
			if o.err != nil {
				return nil, fmt.Errorf("memtransport: rank %d withdrew %s: %w", rank, key, o.err)
			}
			if _, ok := h.blobs[rank][key]; !ok && !h.dead[rank] {
				h.encoded++
				h.blobs[rank][key] = o.blob
			}
			continue
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
	if r.from != r.t.rank {
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
	if r.from != r.t.rank && r.tear >= 0 && r.off+n > r.tear {
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
	take       []int64
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
	counts := ReduceByKey(MapValues(base, func(float64) int64 { return 1 }),
		func(a, b int64) int64 { return a + b }, 4)
	narrow := Join(sums, counts, 4) // both sides hash-partitioned by key into 4
	wide := Join(sums, counts, 3)   // forces both exchanges
	grouped := GroupByKey(base, 5)
	weigh := func(j JoinedPair[float64, int64]) float64 { return j.Left * float64(j.Right) }
	vals := Values(base)
	return spmdResult{
		sums:       Collect(sums),
		grouped:    Collect(MapValues(grouped, func(vs []float64) int64 { return int64(len(vs)) })),
		joined:     Collect(MapValues(narrow, weigh)),
		wideJoined: Collect(MapValues(wide, weigh)),
		reparted:   Collect(Repartition(Keys(base), 5)),
		count:      Count(base),
		reduced:    Reduce(vals, func(a, b float64) float64 { return a + b }),
		agg:        Aggregate(vals, 0.0, func(a float64, v float64) float64 { return a + v }, func(a, b float64) float64 { return a + b }),
		take:       Take(Keys(base), 7),
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
			defer func() { panics[r] = recover() }()
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
				b := ReduceByKey(MapValues(base, func(int64) int64 { return 1 }),
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

// TestSPMDSelfBoundSegmentOnDemand covers the blob a rank writes for its
// own reduce partitions, which it offers to the transport and does not
// encode: a run without failures encodes none of them; a rank lost
// mid-shuffle leaves the survivors the answer the local backend gives;
// and a peer that does ask gets the blob an eager publish would have
// stored — every one of the rank's partitions, as a group — for as long
// as the owner can still produce it: until it has assembled one of those
// partitions in memory, indefinitely once the segments rest in run
// files, and a withdrawal, never other bytes, after.
func TestSPMDSelfBoundSegmentOnDemand(t *testing.T) {
	for _, world := range []int{1, 3, 8} {
		for _, budget := range spmdBudgets {
			hub := newMemHub(world)
			_, _, panics := runRanks(hub, world, func(c *Config) { c.MemoryBudget = budget })
			for r, p := range panics {
				if p != nil {
					t.Fatalf("world %d budget %d: rank %d panicked: %v", world, budget, r, p)
				}
			}
			if hub.offered == 0 || hub.encoded != 0 {
				t.Errorf("world %d budget %d: %d segments offered, %d of them encoded; want some and none",
					world, budget, hub.offered, hub.encoded)
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
				t.Errorf("budget %d: surviving rank %d differs from local after losing a rank that had offered segments", budget, r)
			}
			resub += metrics[r].Resubmissions
		}
		if resub == 0 {
			t.Errorf("budget %d: no map task of the lost rank was resubmitted", budget)
		}
	}

	for _, budget := range spmdBudgets {
		// Rank 0 of two runs a shuffle's map side alone; rank 1 never
		// comes up, and asks only through fetch below.
		const parts, srcParts = 4, 4
		hub := newMemHub(2)
		ctx := NewContext(Config{Parallelism: 2, Transport: hub.transport(0), MemoryBudget: budget})
		rowsOf := func(m int) []Pair[int64, float64] {
			rows := make([]Pair[int64, float64], 50)
			for i := range rows {
				rows[i] = KV(int64(m*50+i), float64(i)+0.25)
			}
			return rows
		}
		route := pairRoute[int64, float64](parts)
		lb := exchange(Generate(ctx, srcParts, rowsOf), parts, route, false)
		lb.stage.ensure()
		// Map tasks 0 and 2 are rank 0's, and so are partitions 0 and 2:
		// its blob of either map task holds those two groups.
		fetch := func(m int) ([][]Pair[int64, float64], error) {
			rc, err := hub.transport(1).FetchReader(0, blobKey(lb.stage.id, m, 0))
			if err != nil {
				return nil, err
			}
			defer rc.Close()
			return spill.DecodeGroupsFrom(rc, spill.For[Pair[int64, float64]](), 2, nil)
		}
		segment := func(m, b int) (seg []Pair[int64, float64]) {
			for _, kv := range rowsOf(m) {
				if route(kv) == b {
					seg = append(seg, kv)
				}
			}
			return seg
		}
		blob := func(m int) [][]Pair[int64, float64] { return [][]Pair[int64, float64]{segment(m, 0), segment(m, 2)} }
		before := hub.encoded
		if got, err := fetch(0); err != nil || !reflect.DeepEqual(got, blob(0)) {
			t.Fatalf("budget %d: offered blob of map task 0 fetched as %v (%v), want %v", budget, got, err, blob(0))
		}
		if _, err := fetch(0); err != nil || hub.encoded != before+1 {
			t.Fatalf("budget %d: second fetch of one offer: %v, %d encodes", budget, err, hub.encoded-before)
		}
		// Rank 0 now assembles partition 2 (recomputing absent rank 1's map
		// tasks). In memory the segments' rows pass to the partition and
		// the offer of map task 2's blob lapses; spilled, they stay in
		// their run files.
		hub.mu.Lock()
		hub.dead[1] = true
		hub.cond.Broadcast()
		hub.mu.Unlock()
		var all []Pair[int64, float64]
		for m := 0; m < srcParts; m++ {
			all = append(all, segment(m, 2)...)
		}
		if got := lb.get(2); !reflect.DeepEqual(got, all) {
			t.Fatalf("budget %d: partition 2 assembled as %d rows, want %d", budget, len(got), len(all))
		}
		hub.mu.Lock()
		hub.dead[1] = false
		hub.mu.Unlock()
		got, err := fetch(2)
		switch {
		case budget == 0 && err == nil:
			t.Fatalf("an offer outlived its partition's assembly: fetched %v", got)
		case budget > 0 && (err != nil || !reflect.DeepEqual(got, blob(2))):
			t.Fatalf("budget %d: spilled blob fetched after its partition was read: %v, %v", budget, got, err)
		}
		ctx.Close()
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
