package jobs

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/comp"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/memory"
	"repro/internal/sacparser"
)

// fig4Queries is the paper's evaluation query set the distributed
// runtime must reproduce byte-for-byte: tiled matrix multiply via the
// group-by-join plan, the same multiply with GBJ disabled (explicit
// join + group-by), and a row-sum aggregation; a row avg and a diagonal
// total, tile aggregations whose sum and count (the avg) and whose
// per-partition partial (the total, which shuffles nothing) cross the
// wire; the Section 4 coordinate fallback on the same seam — a Rule 14
// join, an rdd with nothing to spill because it never shuffles, a
// reduceByKey over (sum, count) tuples and a total over a join; and two
// oriented products, whose transposed operands are read in place: Aᵀ·B
// through GEMM, and Aᵀ·Bᵀ with a combine the compiled kernel contracts.
var fig4Queries = []struct {
	name      string
	src       string
	gbj       bool // disable the Section 5.4 group-by-join
	noShuffle bool // no shuffle, so no spill under any budget
}{
	{name: "matmul-gbj", src: "tiled(n,n)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B, kk == k, let v = a*b, group by (i,j) ]"},
	{name: "matmul-join-groupby", src: "tiled(n,n)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B, kk == k, let v = a*b, group by (i,j) ]", gbj: true},
	{name: "row-sums", src: "tiledvec(n)[ (i, +/m) | ((i,j),m) <- A, group by i ]"},
	{name: "row-avg", src: "tiledvec(n)[ (i, avg/m) | ((i,j),m) <- A, group by i ]"},
	{name: "min-plus", src: "tiled(n,n)[ ((i,j), min/v) | ((i,k),a) <- A, ((kk,j),b) <- B, kk == k, let v = a+b, group by (i,j) ]"},
	{name: "trace-total", src: "+/[ m | ((i,j),m) <- A, i == j ]", noShuffle: true},
	{name: "diagonal-rdd", src: "rdd[ ((i,j),m) | ((i,j),m) <- A, i == j ]", noShuffle: true},
	{name: "matmul-gbj-tn", src: "tiled(n,n)[ ((i,j), +/v) | ((k,i),a) <- A, ((kk,j),b) <- B, kk == k, let v = a*b, group by (i,j) ]"},
	{name: "kernel-combine-tt", src: "tiled(n,n)[ ((i,j), +/v) | ((k,i),a) <- A, ((j,kk),b) <- B, kk == k, let v = a*b+1.0, group by (i,j) ]"},
	{name: "rdd-avg", src: "rdd[ (i, avg/m) | ((i,j),m) <- A, group by i ]"},
	{name: "join-total", src: "+/[ m*b | ((i,j),m) <- A, ((ii,jj),b) <- B, ii == i, jj == j, i == j ]"},
}

func baseParams() QueryParams {
	return QueryParams{N: 64, Tile: 16, SeedA: 1, SeedB: 2, Partitions: 6}
}

// spillingBudget is a memory budget below one map task's output even
// for the row-sums query, so every shuffle spills.
const spillingBudget = 256

// localUnderBudget is RunQueryLocal under a memory budget: the reference
// a budgeted cluster must reproduce byte for byte.
func localUnderBudget(t *testing.T, p QueryParams, budget int64, noShuffle bool) []byte {
	t.Helper()
	reply, snap, err := runQuery(p, 1, func(c *core.Config) { c.MemoryBudget = budget }, nil, nil)
	if err != nil {
		t.Fatalf("local: %v", err)
	}
	if (snap.SpilledBytes > 0) != (budget > 0 && !noShuffle) {
		t.Fatalf("local under budget %d spilled %d bytes", budget, snap.SpilledBytes)
	}
	return reply.blob
}

func twoSlots(workers int) []int {
	pars := make([]int, workers)
	for i := range pars {
		pars[i] = 2
	}
	return pars
}

// startTestClusterPar starts one in-process worker per entry of pars,
// rank i with pars[i] task slots and the given memory budget.
func startTestClusterPar(t *testing.T, pars []int, budget int64) *cluster.Driver {
	t.Helper()
	d, err := cluster.NewDriver(cluster.DriverConfig{})
	if err != nil {
		t.Fatalf("driver: %v", err)
	}
	t.Cleanup(d.Close)
	for i, par := range pars {
		w, err := cluster.StartWorker(cluster.WorkerConfig{
			ID:           fmt.Sprintf("w%d", i),
			DriverAddr:   d.Addr(),
			Parallelism:  par,
			MemoryBudget: budget,
		})
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
		t.Cleanup(w.Close)
	}
	if err := d.WaitForWorkers(len(pars), 5*time.Second); err != nil {
		t.Fatalf("wait: %v", err)
	}
	return d
}

// TestQueryParamsRoundTrip: every field survives Encode/Decode, and
// nothing but a whole encoding decodes — each strict prefix, trailing
// bytes and a flag bit Encode never sets are errors, not zeros.
func TestQueryParamsRoundTrip(t *testing.T) {
	want := QueryParams{Src: "tiledvec(n)[ (i, +/m) | ((i,j),m) <- A, group by i ]", N: 300, Tile: 17,
		SeedA: -5, SeedB: 1 << 40, Partitions: 12, DisableGBJ: true, DisableRBK: true, Trace: true}
	for v, i := reflect.ValueOf(want), 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Fatalf("field %s is zero in the round-trip value", v.Type().Field(i).Name)
		}
	}
	enc := want.Encode()
	got, err := DecodeQueryParams(enc)
	if err != nil || got != want {
		t.Fatalf("round trip: %+v (err %v), want %+v", got, err, want)
	}
	for n := 0; n < len(enc); n++ {
		if _, err := DecodeQueryParams(enc[:n]); err == nil {
			t.Fatalf("%d-byte prefix of a %d-byte encoding decoded", n, len(enc))
		}
	}
	if _, err := DecodeQueryParams(append(append([]byte(nil), enc...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	// The flags are the last field: one zigzag varint byte.
	last := len(enc) - 1
	if enc[last] != 7<<1 {
		t.Fatalf("flags byte not last: %#x", enc[last])
	}
	for _, bit := range []byte{8, 16} {
		bad := append([]byte(nil), enc...)
		bad[last] |= bit << 1
		if _, err := DecodeQueryParams(bad); err == nil {
			t.Fatalf("unknown flag bit %d accepted", bit)
		}
	}
}

// FuzzQueryParams: decoding arbitrary bytes never panics, and whatever
// decodes re-encodes to exactly the bytes it came from — the job message
// has one encoding per value.
func FuzzQueryParams(f *testing.F) {
	p := baseParams()
	p.Src = fig4Queries[0].src
	f.Add(p.Encode())
	p.DisableGBJ, p.DisableRBK, p.Trace = true, true, true
	f.Add(p.Encode())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := DecodeQueryParams(b)
		if err != nil {
			return
		}
		if enc := p.Encode(); !bytes.Equal(enc, b) {
			t.Fatalf("%x decoded to %+v, which encodes as %x", b, p, enc)
		}
	})
}

// TestClusterQueryMatchesLocal is the acceptance-criteria parity test
// in-process: clusters of 1, 3 and 8 workers must return byte-identical
// results to the local backend on the Fig-4 query set — with no memory
// budget, and with one so small that every rank spills its shuffle
// segments, against the local backend under the same budget. Every
// buffer and tile a worker's pool takes back is poisoned — NaN cells,
// 0xA5 bytes — so a reader that used one after its release would change
// an answer. (A budgeted worker pools nothing: its half runs the unpooled
// path.)
func TestClusterQueryMatchesLocal(t *testing.T) {
	memory.PoisonReleased(true)
	defer memory.PoisonReleased(false)
	for _, c := range []struct {
		world  int
		budget int64
	}{{1, 0}, {3, 0}, {8, 0}, {1, spillingBudget}, {3, spillingBudget}, {8, spillingBudget}} {
		t.Run(fmt.Sprintf("world=%d/budget=%d", c.world, c.budget), func(t *testing.T) {
			d := startTestClusterPar(t, twoSlots(c.world), c.budget)
			for _, q := range fig4Queries {
				t.Run(q.name, func(t *testing.T) {
					p := baseParams()
					p.Src = q.src
					p.DisableGBJ = q.gbj
					want := localUnderBudget(t, p, c.budget, q.noShuffle)
					csq := NewClusterSession(d, p, time.Minute)
					got, run, err := csq.Query(q.src)
					if err != nil {
						t.Fatalf("cluster: %v", err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("cluster result (%d bytes) differs from local (%d bytes): %s vs %s",
							len(got), len(want), SummarizeBlob(got), SummarizeBlob(want))
					}
					if len(run.Workers) != c.world {
						t.Fatalf("want %d worker rows, got %d", c.world, len(run.Workers))
					}
					m := csq.Metrics()
					if len(m.PerWorker) != c.world || m.Tasks == 0 {
						t.Fatalf("bad aggregated snapshot: %+v", m)
					}
					if (m.SpilledBytes > 0) != (c.budget > 0 && !q.noShuffle) {
						t.Fatalf("budget %d: the ranks spilled %d bytes", c.budget, m.SpilledBytes)
					}
				})
			}
		})
	}
}

// canonText re-renders the rendered value at the head of s with every
// list in it — the rows, and the groups inside them — sorted, and numbers
// to nine digits so the order a sum was taken in does not show. It returns
// the rest of s.
func canonText(s string) (string, string) {
	if s[0] != '(' && s[0] != '[' {
		end := strings.IndexAny(s, ",)]")
		if end < 0 {
			end = len(s)
		}
		if f, err := strconv.ParseFloat(s[:end], 64); err == nil {
			return strconv.FormatFloat(f, 'g', 9, 64), s[end:]
		}
		return s[:end], s[end:]
	}
	open, closing := s[:1], map[byte]string{'(': ")", '[': "]"}[s[0]]
	var parts []string
	for s = s[1:]; !strings.HasPrefix(s, closing); {
		var part string
		part, s = canonText(strings.TrimPrefix(s, ", "))
		parts = append(parts, part)
	}
	if open == "[" {
		sort.Strings(parts)
	}
	return open + strings.Join(parts, ", ") + closing, s[1:]
}

// TestClusterNonCommutativeGroupBy: a group-by whose aggregation does not
// commute (++) runs as groupByKey on a 3-rank cluster too, and its groups
// are the reference evaluator's as multisets.
func TestClusterNonCommutativeGroupBy(t *testing.T) {
	d := startTestClusterPar(t, twoSlots(3), 0)
	p := baseParams()
	p.N, p.Tile = 12, 4
	s := core.NewSession(core.Config{TileSize: int(p.Tile)})
	defer s.Close()
	env := (*comp.Env)(nil).Bind("A", comp.MatrixStorage{M: s.RegisterRandMatrix("A", p.N, p.N, 0, 10, p.SeedA).ToDense()})
	for _, src := range []string{
		"rdd[ (i, ++/w) | ((i,j),a) <- A, let w = [a], group by i ]",
		"rdd[ (i, (+/a, ++/w)) | ((i,j),a) <- A, let w = [a], group by i ]",
	} {
		p.Src = src
		blob, _, err := NewClusterSession(d, p, time.Minute).Query(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		got, _ := canonText("[" + strings.ReplaceAll(strings.TrimSpace(string(blob[1:])), "\n", ", ") + "]")
		want, _ := canonText(comp.Render(comp.MustEval(comp.Desugar(sacparser.MustParse(src)), env)))
		if got != want {
			t.Fatalf("%s\n got %s\nwant %s", src, got, want)
		}
	}
}

// gateQueryName is sac.query with one rank held mid-shuffle: on the rank
// run by the installed killGate's victim, every Publish goes through and
// then blocks until the gate is released, the first one announcing that it
// has.
const gateQueryName = "test.sac.query-gate"

type killGate struct {
	victim    string
	published chan struct{} // closed by the victim's first Publish
	once      sync.Once
	release   chan struct{}
}

var installedGate atomic.Pointer[killGate]

func init() {
	cluster.RegisterProgram(gateQueryName, func(env *cluster.JobEnv) ([]byte, cluster.Report, error) {
		p, err := DecodeQueryParams(env.Params)
		if err != nil {
			return nil, cluster.Report{}, err
		}
		var tr dataflow.Transport = env.Exchange
		if g := installedGate.Load(); g != nil && env.WorkerTag == g.victim {
			tr = gatedTransport{env.Exchange, g}
		}
		reply, snap, err := runQuery(p, env.World, func(c *core.Config) {
			c.Parallelism = env.Parallelism
			c.Transport = tr
			c.WorkerTag = env.WorkerTag
		}, env.Resident, nil)
		return replyWith(env, reply), snap.CounterSet, err
	})
	cluster.RegisterMerge(gateQueryName, newResultMerger)
}

type gatedTransport struct {
	*cluster.Exchange
	gate *killGate
}

func (g gatedTransport) Publish(key string, blob []byte) error {
	err := g.Exchange.Publish(key, blob)
	g.gate.once.Do(func() { close(g.gate.published) })
	<-g.gate.release
	return err
}

// TestClusterQueryWorkerKill closes one worker mid-shuffle — after it has
// published one segment and before it can publish the rest — so its peers
// must recompute its map tasks from lineage, and it takes its partitions
// of the result with it, so the job runs again on the survivors. The
// result is still local's byte for byte, and the resubmissions the first
// attempt's survivors made are in the run and in the session snapshot.
func TestClusterQueryWorkerKill(t *testing.T) {
	p := baseParams()
	p.Src = fig4Queries[0].src
	want, err := RunQueryLocal(p)
	if err != nil {
		t.Fatalf("local: %v", err)
	}
	d, err := cluster.NewDriver(cluster.DriverConfig{})
	if err != nil {
		t.Fatalf("driver: %v", err)
	}
	defer d.Close()
	var victim *cluster.Worker
	for i := 0; i < 3; i++ {
		w, err := cluster.StartWorker(cluster.WorkerConfig{ID: fmt.Sprintf("w%d", i), DriverAddr: d.Addr(), Parallelism: 2})
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
		defer w.Close()
		victim = w
	}
	if err := d.WaitForWorkers(3, 5*time.Second); err != nil {
		t.Fatalf("wait: %v", err)
	}
	gate := &killGate{victim: "w2", published: make(chan struct{}), release: make(chan struct{})}
	installedGate.Store(gate)
	defer installedGate.Store(nil)
	defer close(gate.release)

	type outcome struct {
		run *cluster.RunResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		run, err := d.Run(gateQueryName, p.Encode(), time.Minute)
		done <- outcome{run, err}
	}()
	select {
	case <-gate.published:
	case out := <-done:
		t.Fatalf("the query returned before the victim published: %v", out.err)
	}
	victim.Close()
	out := <-done
	if out.err != nil {
		t.Fatalf("cluster with a worker lost mid-shuffle: %v", out.err)
	}
	run := out.run
	if !bytes.Equal(run.Result, want) {
		t.Fatalf("post-kill result differs from local: %s vs %s", SummarizeBlob(run.Result), SummarizeBlob(want))
	}
	if run.LostWorkers != 1 || run.Resubmissions == 0 {
		t.Fatalf("%d lost, %d resubmissions; want 1 and some", run.LostWorkers, run.Resubmissions)
	}
	if snap := snapshotFrom(run, d.Workers()); snap.Resubmissions != run.Resubmissions {
		t.Fatalf("snapshot counts %d resubmissions, the run %d", snap.Resubmissions, run.Resubmissions)
	}
}
