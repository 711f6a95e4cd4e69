package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/comp"
	"repro/internal/core"
	"repro/internal/linalg"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Sessions == 0 {
		cfg.Sessions = 2
	}
	if cfg.TileSize == 0 {
		cfg.TileSize = 4
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// postQuery never fails the test itself (it is called from worker
// goroutines); transport errors come back as code 0.
func postQuery(t *testing.T, url, src string) (*queryResponse, int, errorJSON) {
	t.Helper()
	body, _ := json.Marshal(map[string]string{"query": src})
	resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Error(err)
		return nil, 0, errorJSON{}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e errorJSON
		json.NewDecoder(resp.Body).Decode(&e)
		return nil, resp.StatusCode, e
	}
	var out queryResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Error(err)
		return nil, 0, errorJSON{}
	}
	return &out, resp.StatusCode, errorJSON{}
}

const matmul66 = `tiled(6,6)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B,
  kk == k, let v = a*b, group by (i,j) ]`

func registerAB(t *testing.T, s *Server) {
	t.Helper()
	if err := s.RegisterRandMatrix("A", 6, 6, 0, 1, 4); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterRandMatrix("B", 6, 6, 0, 1, 5); err != nil {
		t.Fatal(err)
	}
}

// TestPlanCacheAmortization is the tentpole assertion: a repeated query
// (even reformatted) must skip the compilation pipeline, visible both
// in the response's cached flag and in the process-wide plan-cache
// counters.
func TestPlanCacheAmortization(t *testing.T) {
	s, ts := newTestServer(t, Config{Sessions: 1})
	registerAB(t, s)
	hits0, alias0, miss0 := obsPlanHits.Value(), obsPlanAliasHits.Value(), obsPlanMisses.Value()

	first, code, _ := postQuery(t, ts.URL, matmul66)
	if code != 200 {
		t.Fatalf("first query: HTTP %d", code)
	}
	if first.Cached {
		t.Fatal("first run cannot be a cache hit")
	}
	if obsPlanMisses.Value() != miss0+1 {
		t.Fatal("first run did not count a plan-cache miss")
	}

	// Same text → alias hit (no parse at all).
	second, code, _ := postQuery(t, ts.URL, matmul66)
	if code != 200 || !second.Cached {
		t.Fatalf("identical rerun not cached (HTTP %d cached=%v)", code, second.Cached)
	}
	if obsPlanAliasHits.Value() != alias0+1 {
		t.Fatal("identical rerun did not take the alias fast path")
	}

	// Reformatted text → canonical hit (parse+desugar, no planning).
	variant := strings.ReplaceAll(matmul66, " ", "  ") + "\n"
	third, code, _ := postQuery(t, ts.URL, variant)
	if code != 200 || !third.Cached {
		t.Fatalf("whitespace variant not cached (HTTP %d cached=%v)", code, third.Cached)
	}
	if obsPlanHits.Value() != hits0+2 {
		t.Fatalf("hit counter = %d, want %d", obsPlanHits.Value(), hits0+2)
	}
	if obsPlanMisses.Value() != miss0+1 {
		t.Fatal("variant recompiled instead of hitting the cache")
	}

	// The cached plan must produce the same answer.
	if first.Result.Sum != second.Result.Sum || first.Result.Sum != third.Result.Sum {
		t.Fatalf("cached reruns changed the result: %v %v %v",
			first.Result.Sum, second.Result.Sum, third.Result.Sum)
	}
	if first.Result.Kind != "matrix" || first.Result.Rows != 6 || first.Result.Cols != 6 {
		t.Fatalf("unexpected result shape: %+v", first.Result)
	}
}

// TestAdmissionEndToEnd: with a tiny budget, the big query is rejected
// with a 429 carrying its estimate while concurrent small queries all
// complete with exact results.
func TestAdmissionEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, Config{Sessions: 2, AdmissionBudget: 64 << 10})
	registerAB(t, s)
	if err := s.RegisterRandMatrix("BIG", 256, 256, 0, 1, 9); err != nil {
		t.Fatal(err)
	}

	// Expected exact answer for the small query, computed directly
	// against an identical deterministic registration.
	ref := core.NewSession(core.Config{TileSize: 4})
	defer ref.Close()
	ref.RegisterRandMatrix("A", 6, 6, 0, 1, 4)
	wantRes, err := ref.Query("+/[ m | ((i,j),m) <- A ]")
	if err != nil {
		t.Fatal(err)
	}
	wantVal := wantRes.Scalar
	want, ok := wantVal.(float64)
	if !ok {
		t.Fatalf("reference sum is %T", wantVal)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	wg.Add(1)
	go func() {
		defer wg.Done()
		big := `tiled(256,256)[ ((i,j), +/v) | ((i,k),a) <- BIG, ((kk,j),b) <- BIG,
		  kk == k, let v = a*b, group by (i,j) ]`
		_, code, e := postQuery(t, ts.URL, big)
		if code != http.StatusTooManyRequests {
			errs <- fmt.Errorf("big query: HTTP %d, want 429", code)
			return
		}
		if e.Reason != ReasonOverBudget {
			errs <- fmt.Errorf("big query reason = %q, want %q", e.Reason, ReasonOverBudget)
		}
		if e.EstimateBytes <= e.BudgetBytes || e.BudgetBytes != 64<<10 {
			errs <- fmt.Errorf("429 numbers wrong: estimate=%d budget=%d", e.EstimateBytes, e.BudgetBytes)
		}
	}()
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, code, e := postQuery(t, ts.URL, "+/[ m | ((i,j),m) <- A ]")
			if code != 200 {
				errs <- fmt.Errorf("small query: HTTP %d (%s)", code, e.Error)
				return
			}
			if resp.Result.Kind != "scalar" {
				errs <- fmt.Errorf("small query kind = %s", resp.Result.Kind)
				return
			}
			got, perr := strconv.ParseFloat(strings.TrimSpace(resp.Result.Text), 64)
			if perr != nil {
				errs <- fmt.Errorf("unparseable scalar %q: %v", resp.Result.Text, perr)
				return
			}
			if math.Abs(got-want) > 1e-9 {
				errs <- fmt.Errorf("small query = %v, want %v", got, want)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestStreamEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{Sessions: 1})
	registerAB(t, s)
	body, _ := json.Marshal(map[string]string{"query": matmul66})
	resp, err := http.Post(ts.URL+"/query/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var events []map[string]any
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if len(events) < 3 {
		t.Fatalf("want plan + >=1 stage + result, got %d events", len(events))
	}
	if events[0]["event"] != "plan" {
		t.Fatalf("first event = %v", events[0]["event"])
	}
	last := events[len(events)-1]
	if last["event"] != "result" {
		t.Fatalf("last event = %v", last["event"])
	}
	stages := 0
	for _, ev := range events[1 : len(events)-1] {
		if ev["event"] == "stage" {
			stages++
		}
	}
	if stages == 0 {
		t.Fatal("no stage telemetry events streamed")
	}
}

func TestStreamRejectionIsPlainError(t *testing.T) {
	s, ts := newTestServer(t, Config{Sessions: 1, AdmissionBudget: 1 << 10})
	if err := s.RegisterRandMatrix("BIG", 128, 128, 0, 1, 9); err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(map[string]string{"query": "+/[ m | ((i,j),m) <- BIG ]"})
	resp, err := http.Post(ts.URL+"/query/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("HTTP %d, want 429", resp.StatusCode)
	}
	var e errorJSON
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Reason != ReasonOverBudget {
		t.Fatalf("reason = %q", e.Reason)
	}
}

// TestDataReregistration: same-name same-shape data keeps compiled
// plans (the parameterized re-run path) but flows the NEW data through
// them — the answer a fresh session gives over it — and drops the old
// data's resident tiles; a shape change clears the caches.
func TestDataReregistration(t *testing.T) {
	s, ts := newTestServer(t, Config{Sessions: 1})
	if err := s.RegisterRandMatrix("M", 8, 8, 0, 1, 1); err != nil {
		t.Fatal(err)
	}
	src := "+/[ m | ((i,j),m) <- M ]"
	first, code, _ := postQuery(t, ts.URL, src)
	if code != 200 || first.Cached {
		t.Fatalf("first: HTTP %d cached=%v", code, first.Cached)
	}
	const oneM = 8 * 8 * 8 // 4x4 tiles of float64
	if b := s.Status().Resident.Bytes; b != oneM {
		t.Fatalf("%d resident bytes after the first query, want %d", b, oneM)
	}
	// Same shape, new seed: plan cache survives, data is new.
	if err := s.RegisterRandMatrix("M", 8, 8, 0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if b := s.Status().Resident.Bytes; b != 0 {
		t.Fatalf("%d resident bytes after re-registration, want the old data's dropped", b)
	}
	second, code, _ := postQuery(t, ts.URL, src)
	if code != 200 {
		t.Fatalf("second: HTTP %d", code)
	}
	if !second.Cached {
		t.Fatal("same-shape re-registration dropped the plan cache")
	}
	if second.Result.Text == first.Result.Text {
		t.Fatal("cached plan returned stale data after re-registration")
	}
	fresh := core.NewSession(core.Config{TileSize: 4})
	defer fresh.Close()
	fresh.RegisterRandMatrix("M", 8, 8, 0, 1, 2)
	want, err := fresh.Query(src)
	if err != nil || second.Result.Text != comp.Render(want.Scalar) {
		t.Fatalf("served %q after re-registration, a fresh session %v (%v)", second.Result.Text, want, err)
	}
	if b := s.Status().Resident.Bytes; b != oneM {
		t.Fatalf("%d resident bytes after the second query, want %d", b, oneM)
	}
	// Shape change: plans must be invalidated.
	if err := s.RegisterRandMatrix("M", 4, 4, 0, 1, 3); err != nil {
		t.Fatal(err)
	}
	third, code, _ := postQuery(t, ts.URL, src)
	if code != 200 {
		t.Fatalf("third: HTTP %d", code)
	}
	if third.Cached {
		t.Fatal("shape change did not clear the plan cache")
	}
}

func TestScalarReregistrationClearsPlans(t *testing.T) {
	s, ts := newTestServer(t, Config{Sessions: 1})
	if err := s.RegisterRandMatrix("M", 6, 6, 0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterScalar("c", int64(2)); err != nil {
		t.Fatal(err)
	}
	src := "+/[ m*c | ((i,j),m) <- M ]"
	first, code, _ := postQuery(t, ts.URL, src)
	if code != 200 {
		t.Fatalf("HTTP %d", code)
	}
	sum2, err := strconv.ParseFloat(strings.TrimSpace(first.Result.Text), 64)
	if err != nil {
		t.Fatalf("unparseable scalar %q", first.Result.Text)
	}
	if err := s.RegisterScalar("c", int64(4)); err != nil {
		t.Fatal(err)
	}
	second, code, _ := postQuery(t, ts.URL, src)
	if code != 200 {
		t.Fatalf("HTTP %d", code)
	}
	if second.Cached {
		t.Fatal("scalar re-registration did not clear the plan cache")
	}
	sum4, err := strconv.ParseFloat(strings.TrimSpace(second.Result.Text), 64)
	if err != nil {
		t.Fatalf("unparseable scalar %q", second.Result.Text)
	}
	if math.Abs(sum4-2*sum2) > 1e-6 {
		t.Fatalf("doubling c did not double the sum: %v -> %v", sum2, sum4)
	}
}

func TestGracefulShutdownDrains(t *testing.T) {
	s, ts := newTestServer(t, Config{Sessions: 1})
	if err := s.RegisterRandMatrix("L", 96, 96, 0, 1, 7); err != nil {
		t.Fatal(err)
	}
	slow := `tiled(96,96)[ ((i,j), +/v) | ((i,k),a) <- L, ((kk,j),b) <- L,
	  kk == k, let v = a*b, group by (i,j) ]`
	type outcome struct {
		code int
		resp *queryResponse
	}
	done := make(chan outcome, 1)
	go func() {
		resp, code, _ := postQuery(t, ts.URL, slow)
		done <- outcome{code, resp}
	}()
	// Wait until the query is actually executing.
	deadline := time.Now().Add(5 * time.Second)
	for s.Status().Sessions.Busy == 0 {
		if time.Now().After(deadline) {
			t.Fatal("query never started")
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Shutdown(30 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	out := <-done
	if out.code != 200 {
		t.Fatalf("in-flight query was not drained: HTTP %d", out.code)
	}
	if out.resp.Result.Kind != "matrix" {
		t.Fatalf("drained query returned %+v", out.resp.Result)
	}
	// New submissions after drain must be refused.
	if _, code, e := postQuery(t, ts.URL, "+/[ m | ((i,j),m) <- L ]"); code == 200 {
		t.Fatal("post-drain query was accepted")
	} else if code == http.StatusServiceUnavailable && e.Reason != "draining" {
		t.Fatalf("post-drain reason = %q", e.Reason)
	}
}

func TestStatusAndMetricsEndpoints(t *testing.T) {
	s, ts := newTestServer(t, Config{Sessions: 2, AdmissionBudget: 1 << 30})
	registerAB(t, s)
	if _, code, _ := postQuery(t, ts.URL, "+/[ m | ((i,j),m) <- A ]"); code != 200 {
		t.Fatalf("HTTP %d", code)
	}
	resp, err := http.Get(ts.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	var doc StatusDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if doc.Backend != "local" || doc.Kernel != linalg.KernelName() || doc.Sessions.Total != 2 || doc.Queries.Done != 1 {
		t.Fatalf("status: %+v", doc)
	}
	if doc.Admission.BudgetBytes != 1<<30 {
		t.Fatalf("admission budget = %d", doc.Admission.BudgetBytes)
	}
	// The total read A's four 4x4 tiles, each generated once; B was never read.
	if doc.Resident.Bytes != 4*4*4*8 || doc.Resident.Misses == 0 {
		t.Fatalf("resident: %+v", doc.Resident)
	}
	mresp, err := http.Get(ts.URL + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(mresp.Body)
	text := buf.String()
	for _, metric := range []string{
		"sac_server_queries_total",
		"sac_server_plancache_hits_total",
		"sac_server_plancache_misses_total",
		"sac_server_admitted_total",
		"sac_server_admission_queue_depth",
	} {
		if !strings.Contains(text, metric) {
			t.Fatalf("/debug/metrics missing %s:\n%s", metric, text)
		}
	}
}

func TestDataEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Sessions: 1})
	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/data", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(`{"name":"X","rows":6,"cols":6,"seed":3}`); code != 200 {
		t.Fatalf("matrix register: HTTP %d", code)
	}
	if code := post(`{"name":"k","scalar":6}`); code != 200 {
		t.Fatalf("scalar register: HTTP %d", code)
	}
	if code := post(`{"rows":6,"cols":6}`); code != http.StatusBadRequest {
		t.Fatalf("nameless register: HTTP %d", code)
	}
	if resp, code, _ := postQuery(t, ts.URL, "+/[ m | ((i,j),m) <- X ]"); code != 200 || resp.Result.Kind != "scalar" {
		t.Fatalf("query over posted data: HTTP %d", code)
	}
}

// TestConcurrentMixedQueries hammers the pool from many goroutines —
// under -race this exercises the pooled sessions, their plan caches and
// the plans' own run profiles concurrently.
func TestConcurrentMixedQueries(t *testing.T) {
	s, ts := newTestServer(t, Config{Sessions: 4})
	registerAB(t, s)
	queries := []string{
		matmul66,
		"+/[ m | ((i,j),m) <- A ]",
		"+/[ m | ((i,j),m) <- B ]",
		"tiled(6,6)[ ((j,i), v) | ((i,j),v) <- A ]",
		"tiledvec(6)[ (i, +/m) | ((i,j),m) <- A, group by i ]",
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 48; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, code, e := postQuery(t, ts.URL, queries[i%len(queries)])
			if code != 200 {
				errs <- fmt.Errorf("query %d: HTTP %d (%s)", i, code, e.Error)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if done := s.Status().Queries.Done; done != 48 {
		t.Fatalf("queries done = %d, want 48", done)
	}
}

// A query that only fails when its strategy is planned — a head lowered
// to a tile kernel, the coordinate plan built — is rejected on the
// plan-cache miss path with a 400 naming the cause — it used to compile,
// get cached, explain a plan that could not run and fail in Execute or
// panic in a task — and nothing is cached for it; the valid neighbour
// runs and its plan, kernels included, is reused.
func TestKernelErrorsRejectedAtPlanCacheMiss(t *testing.T) {
	s, ts := newTestServer(t, Config{Sessions: 1})
	registerAB(t, s)
	for _, c := range []struct{ bad, wantErr, good string }{
		{"tiled(6,6)[ ((i,j), a*zz) | ((i,j),a) <- A ]", `unbound variable "zz"`,
			"tiled(6,6)[ ((i,j), a*2.0) | ((i,j),a) <- A ]"},
		{"tiled(6,6)[ ((i,j), a > 1.0) | ((i,j),a) <- A ]", "expected float, got bool",
			"tiled(6,6)[ ((i,j), if(a > 1.0, 1.0, 0.0)) | ((i,j),a) <- A ]"},
		{"tiled(6,6)[ ((i,j), x) | ((i,j),a) <- A, let (x,y) = a ]", "cannot inline tuple let",
			"tiled(6,6)[ ((i,j), x+y) | ((i,j),a) <- A, let (x,y) = (a, 2.0) ]"},
		{"+/[ a*b | ((i,j),a) <- A, ((ii,jj),b) <- B ]", "no equi-join condition linking B",
			"+/[ a*b | ((i,j),a) <- A, ((ii,jj),b) <- B, ii == j, jj == i ]"},
		{"rdd[ (i, avg/a + zz) | ((i,j),a) <- A, group by i ]", `unbound variable "zz"`,
			"rdd[ (i, avg/a + 1.0) | ((i,j),a) <- A, group by i ]"},
		{"tiledvec(6)[ (i, avg/a) | ((i,j),a) <- A, ((ii,jj),c) <- C, ii == i, jj == j, group by i ]", `unbound variable "C"`,
			"tiledvec(6)[ (i, avg/a) | ((i,j),a) <- A, ((ii,jj),c) <- B, ii == i, jj == j, group by i ]"},
		{"tiledvec(6)[ ((i,0), avg/a) | ((i,j),a) <- A, group by i ]", "tiledvec key must have 1 component",
			"tiledvec(6)[ (i, avg/a) | ((i,j),a) <- A, group by i ]"},
		{"rdd[ (i, x) | let l = [ (k, 1.0) | k <- 0 until 3 ], (i,x) <- l ]", "cannot infer tile size",
			"rdd[ (i, x) | ((i,j),x) <- A, j == 0 ]"},
	} {
		cached := s.pool.all[0].plans.len()
		for attempt := 0; attempt < 2; attempt++ {
			_, code, e := postQuery(t, ts.URL, c.bad)
			if code != http.StatusBadRequest || e.Reason != "compile" || !strings.Contains(e.Error, c.wantErr) {
				t.Errorf("%s: attempt %d: status %d %+v, want 400 compile naming %q", c.bad, attempt, code, e, c.wantErr)
			}
		}
		if got := s.pool.all[0].plans.len(); got != cached {
			t.Errorf("%s: plan cache grew from %d to %d entries", c.bad, cached, got)
		}
		for attempt := 0; attempt < 2; attempt++ {
			out, code, e := postQuery(t, ts.URL, c.good)
			if code != http.StatusOK {
				t.Fatalf("%s: status %d %+v", c.good, code, e)
			}
			if out.Cached != (attempt == 1) {
				t.Errorf("%s: attempt %d cached=%v", c.good, attempt, out.Cached)
			}
		}
	}
}
