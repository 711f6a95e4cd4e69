package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/jobs"
	"repro/internal/plan"
)

// sacloadShapes are the five query shapes cmd/sacload and the benchmark's
// serve-mixed workload send.
var sacloadShapes = []string{
	"tiled(n,n)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B, kk == k, let v = a*b, group by (i,j) ]",
	"tiledvec(n)[ (i, +/a) | ((i,j),a) <- A, group by i ]",
	"+/[ a | ((i,j),a) <- A ]",
	"tiled(n,n)[ ((j,i), a) | ((i,j),a) <- A ]",
	"tiled(n,n)[ ((i,j), a+b) | ((i,j),a) <- A, ((ii,jj),b) <- B, ii == i, jj == j ]",
}

// startClusterBackend brings up a driver and three in-process workers on
// loopback, the way the benchmark adapter starts them, and wraps them in
// the cluster session sacserver -cluster serves from.
func startClusterBackend(t *testing.T, p jobs.QueryParams) *jobs.ClusterSession {
	t.Helper()
	d, err := cluster.NewDriver(cluster.DriverConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("driver: %v", err)
	}
	for i := 0; i < 3; i++ {
		w, err := cluster.StartWorker(cluster.WorkerConfig{ID: fmt.Sprintf("srv-w%d", i),
			DriverAddr: d.Addr(), DataAddr: "127.0.0.1:0", Parallelism: 1})
		if err != nil {
			d.Close()
			t.Fatalf("worker %d: %v", i, err)
		}
		t.Cleanup(w.Close)
	}
	if err := d.WaitForWorkers(3, 30*time.Second); err != nil {
		d.Close()
		t.Fatal(err)
	}
	cs := jobs.NewClusterSession(d, p, time.Minute)
	t.Cleanup(func() { cs.Close() })
	return cs
}

// rankSession plans p the way a rank of a 3-worker cluster does
// (jobs.runQuery): the params' tile, DefaultPartitions(3), the seeded
// inputs, and a world of 3, which sizes the group-by-join's grid.
func rankSession(t *testing.T, p jobs.QueryParams) *core.Session {
	t.Helper()
	s := core.NewSession(core.Config{TileSize: int(p.Tile), Partitions: jobs.DefaultPartitions(3)})
	t.Cleanup(func() { s.Close() })
	s.PlanFor(3)
	s.RegisterRandMatrix("A", p.N, p.N, 0, 10, p.SeedA)
	s.RegisterRandMatrix("B", p.N, p.N, 0, 10, p.SeedB)
	s.RegisterScalar("n", p.N)
	return s
}

// TestClusterBackedPlansWhatTheRanksRun: a cluster-backed server's plan
// preview and admission estimate come from the cluster session's own
// planner, so they name the grid a rank's Explain names — one cell per
// rank, 1x3 — and the footprint at DefaultPartitions(world). Planned by
// the pool's local sessions instead, the Fig-4 product at n = 200, tile
// 16 previewed a grid of the local partition count (2x2 on a 2-core
// host) that no rank runs.
func TestClusterBackedPlansWhatTheRanksRun(t *testing.T) {
	p := jobs.QueryParams{N: 200, Tile: 16, SeedA: 1, SeedB: 2}
	_, ts := newTestServer(t, Config{Sessions: 1, Cluster: startClusterBackend(t, p)})
	want, err := rankSession(t, p).Compile(sacloadShapes[0])
	if err != nil {
		t.Fatal(err)
	}
	got, code, e := postQuery(t, ts.URL, sacloadShapes[0])
	if code != 200 {
		t.Fatalf("HTTP %d: %+v", code, e)
	}
	if got.Plan != want.Explain() || !strings.Contains(got.Plan, "grid 1x3") {
		t.Errorf("server previews\n  %s\na rank explains\n  %s", got.Plan, want.Explain())
	}
	if got.EstimateBytes != want.EstimateFootprintBytes() {
		t.Errorf("estimate_bytes = %d, the planner's at DefaultPartitions(3) is %d", got.EstimateBytes, want.EstimateFootprintBytes())
	}
}

// TestClusterBackedInputsAreFixed: the ranks regenerate A, B and n from
// their QueryParams on every query, so a registration on a cluster-backed
// server could only change what the planner believes. It is refused (409
// over HTTP) and changes nothing: the next query's answer and plan are
// the ones from before.
func TestClusterBackedInputsAreFixed(t *testing.T) {
	p := jobs.QueryParams{N: 64, Tile: 16, SeedA: 1, SeedB: 2}
	s, ts := newTestServer(t, Config{Sessions: 1, Cluster: startClusterBackend(t, p)})
	src := sacloadShapes[1]
	before, code, e := postQuery(t, ts.URL, src)
	if code != 200 {
		t.Fatalf("HTTP %d: %+v", code, e)
	}
	if err := s.RegisterRandMatrix("A", 32, 32, 0, 1, 9); !errors.Is(err, ErrInputsFixed) {
		t.Errorf("RegisterRandMatrix: %v, want ErrInputsFixed", err)
	}
	if err := s.RegisterScalar("n", int64(32)); !errors.Is(err, ErrInputsFixed) {
		t.Errorf("RegisterScalar: %v, want ErrInputsFixed", err)
	}
	for _, body := range []string{`{"name":"A","rows":32,"cols":32,"seed":9}`, `{"name":"n","scalar":32}`} {
		resp, err := http.Post(ts.URL+"/data", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var ej errorJSON
		json.NewDecoder(resp.Body).Decode(&ej)
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict || ej.Reason != "cluster-inputs-fixed" {
			t.Errorf("POST /data %s: HTTP %d %+v, want 409 cluster-inputs-fixed", body, resp.StatusCode, ej)
		}
	}
	after, code, e := postQuery(t, ts.URL, src)
	if code != 200 {
		t.Fatalf("HTTP %d: %+v", code, e)
	}
	if !after.Cached {
		t.Error("a refused registration cleared the plan cache")
	}
	// The rerun's plan differs from the first only by the observation the
	// first run recorded.
	if !reflect.DeepEqual(after.Result, before.Result) || !strings.HasPrefix(after.Plan, strings.TrimSuffix(before.Plan, "]")) {
		t.Errorf("after the refused registrations:\n  %s -> %+v\nbefore:\n  %s -> %+v", after.Plan, after.Result, before.Plan, before.Result)
	}
}

// TestClusterBackedResultsAreTyped: the five sacload shapes (and a list)
// answered by a 3-worker cluster-backed server carry the same result
// object, field for field and bit for bit, as a local server planning at
// the same partition count — kind, shape, sum, inlined values — not
// {"kind":"cluster","text":...}.
func TestClusterBackedResultsAreTyped(t *testing.T) {
	for _, n := range []int64{64, 8} { // 8: matrices and vectors small enough to inline
		p := jobs.QueryParams{N: n, Tile: 4, SeedA: 3, SeedB: 4}
		_, remote := newTestServer(t, Config{Sessions: 1, Cluster: startClusterBackend(t, p)})
		local, lts := newTestServer(t, Config{Sessions: 1, TileSize: 4, Partitions: jobs.DefaultPartitions(3)})
		for name, seed := range map[string]int64{"A": p.SeedA, "B": p.SeedB} {
			if err := local.RegisterRandMatrix(name, n, n, 0, 10, seed); err != nil {
				t.Fatal(err)
			}
		}
		if err := local.RegisterScalar("n", n); err != nil {
			t.Fatal(err)
		}
		kinds := map[string]bool{}
		for _, src := range append([]string{"rdd[ ((i,j),a) | ((i,j),a) <- A, i == j ]"}, sacloadShapes...) {
			got, code, e := postQuery(t, remote.URL, src)
			if code != 200 {
				t.Fatalf("cluster: %s: HTTP %d %+v", src, code, e)
			}
			want, code, e := postQuery(t, lts.URL, src)
			if code != 200 {
				t.Fatalf("local: %s: HTTP %d %+v", src, code, e)
			}
			if !reflect.DeepEqual(got.Result, want.Result) {
				t.Errorf("n=%d %s:\n cluster %+v\n local   %+v", n, src, got.Result, want.Result)
			}
			if inlined := want.Result.Values != nil; inlined != (n == 8 && want.Result.Kind != "scalar" && want.Result.Kind != "list") {
				t.Errorf("n=%d %s: values inlined = %v", n, src, inlined)
			}
			kinds[got.Result.Kind] = true
		}
		if !reflect.DeepEqual(kinds, map[string]bool{"matrix": true, "vector": true, "scalar": true, "list": true}) {
			t.Errorf("result kinds seen: %v", kinds)
		}
	}
}

// stubBackend is the fake the core.Backend seam exists for: it compiles
// on a real session and runs whatever the test says.
type stubBackend struct {
	*core.Session
	run func(q *plan.Compiled) (*core.Outcome, error)
}

func (b stubBackend) Run(q *plan.Compiled, _ string, _ bool) (*core.Outcome, error) { return b.run(q) }

func newStubServer(t *testing.T, run func(q *plan.Compiled) (*core.Outcome, error)) (*Server, string) {
	t.Helper()
	sess := core.NewSession(core.Config{TileSize: 4})
	t.Cleanup(func() { sess.Close() })
	sess.RegisterRandMatrix("A", 6, 6, 0, 1, 4)
	s, ts := newTestServer(t, Config{Sessions: 1, Cluster: stubBackend{sess, run}})
	return s, ts.URL
}

// TestStubBackendExecuteError: a backend whose Run fails is a 500 with
// reason "execute" and a bump of the error counter, whatever the backend.
func TestStubBackendExecuteError(t *testing.T) {
	_, url := newStubServer(t, func(q *plan.Compiled) (*core.Outcome, error) {
		return &core.Outcome{Plan: q}, errors.New("rank 2 fell over")
	})
	errs0 := obsQueryErrors.Value()
	_, code, e := postQuery(t, url, "+/[ m | ((i,j),m) <- A ]")
	if code != http.StatusInternalServerError || e.Reason != "execute" || !strings.Contains(e.Error, "rank 2 fell over") {
		t.Fatalf("HTTP %d %+v, want 500 execute", code, e)
	}
	if got := obsQueryErrors.Value(); got != errs0+1 {
		t.Fatalf("error counter went %d -> %d", errs0, got)
	}
}

// TestStubBackendStream: /query/stream over a shared backend emits the
// plan, then the stage rows of the Outcome (a shared backend's live
// metrics are not polled), then the Outcome's summary.
func TestStubBackendStream(t *testing.T) {
	_, url := newStubServer(t, func(q *plan.Compiled) (*core.Outcome, error) {
		return &core.Outcome{Plan: q, Summary: core.Summary{Kind: "scalar", Text: "42"}, Wall: time.Millisecond,
			Metrics: dataflow.MetricsSnapshot{PerStage: []dataflow.StageMetric{{ID: 1, Name: "one"}, {ID: 2, Name: "two"}}}}, nil
	})
	body, _ := json.Marshal(map[string]string{"query": "+/[ m | ((i,j),m) <- A ]"})
	resp, err := http.Post(url+"/query/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var events []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev struct {
			Event, Name string
			Result      core.Summary
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, strings.TrimSpace(ev.Event+" "+ev.Name+ev.Result.Text))
	}
	if want := []string{"plan", "stage one", "stage two", "result 42"}; !reflect.DeepEqual(events, want) {
		t.Fatalf("events %q, want %q", events, want)
	}
}

// TestStubBackendShutdownWaits: Shutdown does not return while a
// backend's Run is still going, and the query it waited for gets its
// reply.
func TestStubBackendShutdownWaits(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var seq, ranAt, downAt atomic.Int64
	s, url := newStubServer(t, func(q *plan.Compiled) (*core.Outcome, error) {
		close(entered)
		<-release
		ranAt.Store(seq.Add(1))
		return &core.Outcome{Plan: q, Summary: core.Summary{Kind: "scalar", Text: "1"}}, nil
	})
	code := make(chan int, 1)
	go func() {
		_, c, _ := postQuery(t, url, "+/[ m | ((i,j),m) <- A ]")
		code <- c
	}()
	<-entered
	down := make(chan error, 1)
	go func() {
		err := s.Shutdown(30 * time.Second)
		downAt.Store(seq.Add(1))
		down <- err
	}()
	for !s.draining.Load() {
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := <-down; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if c := <-code; c != 200 {
		t.Fatalf("the query Shutdown waited for got HTTP %d", c)
	}
	if ranAt.Load() > downAt.Load() {
		t.Fatal("Shutdown returned before the backend's Run did")
	}
}
