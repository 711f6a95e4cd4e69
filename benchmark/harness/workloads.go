package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The query shapes, as cmd/sacload sends them. n is a registered scalar.
const (
	qMatmul    = "tiled(n,n)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B, kk == k, let v = a*b, group by (i,j) ]"
	qRowsum    = "tiledvec(n)[ (i, +/a) | ((i,j),a) <- A, group by i ]"
	qTotal     = "+/[ a | ((i,j),a) <- A ]"
	qTranspose = "tiled(n,n)[ ((j,i), a) | ((i,j),a) <- A ]"
	qAdd       = "tiled(n,n)[ ((i,j), a+b) | ((i,j),a) <- A, ((ii,jj),b) <- B, ii == i, jj == j ]"
	qRowavg    = "tiledvec(n)[ (i, avg/a) | ((i,j),a) <- A, group by i ]"
)

type query struct{ name, src string }

var serveShapes = []query{{"matmul", qMatmul}, {"rowsum", qRowsum}, {"total", qTotal},
	{"transpose", qTranspose}, {"add", qAdd}}

// reformat returns one of three whitespace variants of src, so requests
// reach both plan-cache levels (alias and canonical).
func reformat(src string, choice int) string {
	switch choice {
	case 1:
		return strings.ReplaceAll(src, " ", "  ")
	case 2:
		return "\n " + strings.ReplaceAll(src, ", ", " ,  ") + " \n"
	}
	return src
}

// sizes fixes every input size. Full is the benchmark; smoke is the
// same code on inputs small enough for a test.
type sizes struct {
	tile                               int
	matmulN, coordN, spillN, clusterN  int64
	spillBudget                        int64
	serveN                             int64
	serveTile                          int
	warmMatmul, warmElem, warmCoord    int
	warmSpill, warmClusterMM, warmRows int
	warmServe                          int
	setups                             int // set-ups per untraced run; setup_s is their median
	// spillSettle is how long spill-matmul runs untimed ops on its last
	// instance before the timed section. The session keeps every spill
	// file until it is closed, so its page cache grows by the spilled
	// bytes of each op; pages the guest freed in the last few seconds are
	// cheap to take, pages the host has reclaimed since cost about six
	// times as much. Ops run in the first mode until the pool of recent
	// frees is gone, a few seconds after the last set-up, and in the
	// second from then on. Timing starts in the second, the steady one.
	spillSettle   float64
	microRows     int // rows of a dataflow micro-benchmark
	exchangeBytes int // encoded tiles each rank publishes in the exchange micro
}

var (
	fullSizes = sizes{tile: 100, matmulN: 2000, coordN: 1000, spillN: 1000, clusterN: 1000,
		spillBudget: 64 << 20, serveN: 64, serveTile: 16,
		warmMatmul: 2, warmElem: 5, warmCoord: 1, warmSpill: 1, warmClusterMM: 2, warmRows: 10,
		warmServe: 500, setups: 3, spillSettle: 6, microRows: 2_000_000, exchangeBytes: 32 << 20}
	smokeSizes = sizes{tile: 32, matmulN: 128, coordN: 64, spillN: 128, clusterN: 128,
		spillBudget: 256 << 10, serveN: 32, serveTile: 16,
		warmMatmul: 1, warmElem: 1, warmCoord: 1, warmSpill: 1, warmClusterMM: 1, warmRows: 1,
		warmServe: 10, setups: 1, microRows: 20_000, exchangeBytes: 1 << 20}
)

const (
	partitions     = 8
	clusterWorkers = 2
	serveSessions  = 2
)

type runEnv struct {
	seed int64
	sz   sizes
	tmp  string
}

// opRef names one recorded op: the index-th timed op of a client.
type opRef struct{ client, index int }

// instance is one set-up of a workload, ready to run ops.
type instance interface {
	// op runs one operation for client and remembers what came back.
	op(client int, sp *Scope) error
	// verify checks everything op remembered against a reference
	// computed independently of the engine path that produced it, and
	// names the ops that were wrong. With corrupt set the reference is
	// damaged first, so every op must come back wrong.
	verify(corrupt bool) ([]opRef, error)
	// layers adds the per-layer numbers only this kind of workload has,
	// from the traced ops in rec.
	layers(rec *Recorder, opMs float64, out map[string]float64)
	close()
}

type workloadDef struct {
	name    string
	clients int
	// tail: a run times 200 ops or more, enough for a 95th percentile.
	// On the other workloads op_ms_p95 reads the median (see the README).
	tail bool
	// matmulN is the size of the product an op computes, 0 when the op is
	// not a product: for the computed kernel share.
	matmulN int64
	// settle is how many seconds of untimed ops the last instance runs
	// before the timed section.
	settle float64
	setup  func(e runEnv) (instance, error)
}

func workloadDefs(sz sizes) []workloadDef {
	return []workloadDef{
		{name: "local-matmul", clients: 1, matmulN: sz.matmulN, setup: func(e runEnv) (instance, error) {
			return newLocal(e, sz.matmulN, 0, sz.warmMatmul, []query{{"matmul", qMatmul}})
		}},
		{name: "local-elementwise", clients: 1, setup: func(e runEnv) (instance, error) {
			return newLocal(e, sz.matmulN, 0, sz.warmElem,
				[]query{{"add", qAdd}, {"transpose", qTranspose}, {"rowsum", qRowsum}})
		}},
		{name: "local-coord", clients: 1, setup: func(e runEnv) (instance, error) {
			return newLocal(e, sz.coordN, 0, sz.warmCoord, []query{{"total", qTotal}, {"rowavg", qRowavg}})
		}},
		{name: "spill-matmul", clients: 1, matmulN: sz.spillN, settle: sz.spillSettle, setup: func(e runEnv) (instance, error) {
			return newLocal(e, sz.spillN, sz.spillBudget, sz.warmSpill, []query{{"matmul", qMatmul}})
		}},
		{name: "cluster-matmul", clients: 1, matmulN: sz.clusterN, setup: func(e runEnv) (instance, error) {
			return newClusterInst(e, sz.warmClusterMM, query{"matmul", qMatmul})
		}},
		{name: "cluster-rowsum", clients: 1, tail: true, setup: func(e runEnv) (instance, error) {
			return newClusterInst(e, sz.warmRows, query{"rowsum", qRowsum})
		}},
		{name: "serve-mixed", clients: 2, tail: true, setup: newServe},
	}
}

// Workloads names every workload the harness can run. BENCHMARK.json
// lists the ones whose end-to-end metrics are gated; spill-matmul is not
// among them (see the README).
func Workloads() []string {
	var names []string
	for _, w := range workloadDefs(fullSizes) {
		names = append(names, w.name)
	}
	return names
}

func findWorkload(name string, sz sizes) (workloadDef, bool) {
	for _, w := range workloadDefs(sz) {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// ---- local and spill workloads --------------------------------------

// localInst runs rounds of queries on one core.Session. An op is one
// round: every query of the round, each forced.
type localInst struct {
	s     *Session
	n     int64
	round []query
	exact bool      // answers repeat bit for bit; not so under a memory budget
	first []Answer  // the first timed op's answers, kept to re-materialize
	sums  [][]Check // per op, per query: the digest the forcing pass took
}

func newLocal(e runEnv, n, budget int64, warm int, round []query) (instance, error) {
	cfg := SessionConfig{Tile: e.sz.tile, Partitions: partitions, MemoryBudget: budget}
	if budget > 0 {
		cfg.SpillDir = filepath.Join(e.tmp, "spill")
	}
	l := &localInst{s: OpenSession(cfg), n: n, round: round, exact: budget == 0}
	l.s.AddMatrix("A", n, e.seed)
	l.s.AddMatrix("B", n, e.seed+1)
	l.s.AddScalar("n", n)
	for i := 0; i < warm; i++ {
		if _, err := l.runRound(nil); err != nil {
			l.close()
			return nil, err
		}
	}
	return l, nil
}

func (l *localInst) runRound(sp *Scope) ([]Answer, error) {
	out := make([]Answer, len(l.round))
	for i, q := range l.round {
		qs := sp
		if len(l.round) > 1 {
			qs = sp.Start("query." + q.name)
		}
		a, err := l.s.Run(q.src, qs)
		if len(l.round) > 1 {
			qs.End()
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.name, err)
		}
		out[i] = a
	}
	return out, nil
}

func (l *localInst) op(_ int, sp *Scope) error {
	var mark Mark
	if sp != nil {
		mark = l.s.Mark()
	}
	as, err := l.runRound(sp)
	if sp != nil {
		c := l.s.Since(mark)
		sp.Count("dataflow.shuffled_bytes", float64(c.ShuffledBytes))
		sp.Count("dataflow.stages", float64(c.Stages))
		sp.Count("dataflow.tasks", float64(c.Tasks))
		sp.Count("dataflow.stage_wall_ns", float64(c.StageWallNs))
		sp.Count("linalg.pool_hits", float64(c.PoolHits))
		sp.Count("linalg.pool_misses", float64(c.PoolMisses))
		sp.Count("spill.spilled_bytes", float64(c.SpilledBytes))
		sp.Count("spill.merge_passes", float64(c.MergePasses))
		sp.Count("memory.budget_waits", float64(c.BudgetWaits))
		sp.Count("memory.overcommits", float64(c.Overcommits))
		sp.Count("memory.peak_bytes", float64(c.MemoryPeak))
		for _, a := range as {
			sp.Count("harness.digest_ns", float64(a.DigestNs))
		}
	}
	sums := make([]Check, len(l.round))
	if err == nil {
		if l.first == nil {
			l.first = as
		}
		for i, a := range as {
			sums[i] = a.Check
		}
	}
	l.sums = append(l.sums, sums)
	return err
}

// reference computes a query's answer with plain loops over the dense
// inputs (the local GEMM kernel for the product).
func reference(name string, a, b []float64, n int) []float64 {
	switch name {
	case "matmul":
		return RefGemm(a, b, n)
	case "add":
		out := make([]float64, n*n)
		for i := range out {
			out[i] = a[i] + b[i]
		}
		return out
	case "transpose":
		out := make([]float64, n*n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				out[j*n+i] = a[i*n+j]
			}
		}
		return out
	case "rowsum", "rowavg":
		out := make([]float64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				out[i] += a[i*n+j]
			}
			if name == "rowavg" {
				out[i] /= float64(n)
			}
		}
		return out
	case "total":
		var t float64
		for _, v := range a {
			t += v
		}
		return []float64{t}
	}
	return nil
}

func (l *localInst) verify(corrupt bool) ([]opRef, error) {
	if l.first == nil {
		return nil, fmt.Errorf("no op completed")
	}
	n := int(l.n)
	a, b := l.s.Input("A"), l.s.Input("B")
	good, refOK := make([]Check, len(l.round)), make([]bool, len(l.round))
	for i, q := range l.round {
		want := reference(q.name, a, b, n)
		if corrupt {
			want[0]++
		}
		got, sum := l.first[i].Materialize()
		if len(got) != len(want) {
			return nil, fmt.Errorf("%s: %d values, reference has %d", q.name, len(got), len(want))
		}
		good[i], refOK[i] = sum, true
		for k := range want {
			if !relClose(got[k], want[k], 1e-9) {
				refOK[i] = false
				break
			}
		}
	}
	var wrong []opRef
	for k, sums := range l.sums {
		for i := range sums {
			if !refOK[i] || l.exact && sums[i].Bits != good[i].Bits || !sums[i].Close(good[i]) {
				wrong = append(wrong, opRef{0, k})
				break
			}
		}
	}
	return wrong, nil
}

func (l *localInst) layers(rec *Recorder, _ float64, out map[string]float64) {
	self := rec.selfTimes()
	rootNs, ops := rec.rootNs()
	if ops == 0 {
		return
	}
	var covered float64
	for _, name := range []string{"sacparser.parse", "plan.compile", "plan.execute", "dataflow.force"} {
		out[name+"_ms"] = self[name] / float64(ops) / 1e6
		covered += self[name]
	}
	out["trace.coverage_share"] = covered / rootNs
	out["harness.digest_ms"] = rec.counterMean("harness.digest_ns") / 1e6
	out["dataflow.shuffled_bytes_op"] = rec.counterMean("dataflow.shuffled_bytes")
	out["dataflow.stages_op"] = rec.counterMean("dataflow.stages")
	out["dataflow.tasks_op"] = rec.counterMean("dataflow.tasks")
	out["dataflow.stage_wall_ms"] = rec.counterMean("dataflow.stage_wall_ns") / 1e6
	if hits, misses := rec.counterMean("linalg.pool_hits"), rec.counterMean("linalg.pool_misses"); hits+misses > 0 {
		out["linalg.pool_hit_share"] = hits / (hits + misses)
	}
	out["spill.spilled_bytes_op"] = rec.counterMean("spill.spilled_bytes")
	out["spill.merge_passes_op"] = rec.counterMean("spill.merge_passes")
	out["memory.budget_waits_op"] = rec.counterMean("memory.budget_waits")
	out["memory.overcommits_op"] = rec.counterMean("memory.overcommits")
	out["memory.peak_mb"] = percentile(rec.counterValues("memory.peak_bytes"), 1) / 1e6
}

func (l *localInst) close() { l.s.Close() }

// ---- cluster workloads ----------------------------------------------

// clusterInst runs one query per op on a driver and two workers, all in
// this process, over loopback TCP.
type clusterInst struct {
	c     *Cluster
	q     query
	first []byte
	same  []bool // per op: result byte-equal to the first op's
}

func newClusterInst(e runEnv, warm int, q query) (instance, error) {
	c, err := StartCluster(ClusterConfig{Workers: clusterWorkers, N: e.sz.clusterN, Tile: int64(e.sz.tile),
		Partitions: partitions, SeedA: e.seed, SeedB: e.seed + 1})
	if err != nil {
		return nil, err
	}
	ci := &clusterInst{c: c, q: q}
	for i := 0; i < warm; i++ {
		if _, _, err := c.Query(q.src); err != nil {
			c.Close()
			return nil, err
		}
	}
	return ci, nil
}

func (ci *clusterInst) op(_ int, sp *Scope) error {
	call := sp.Start("jobs.cluster_query")
	blob, info, err := ci.c.Query(ci.q.src)
	call.End()
	if err == nil && info.Lost > 0 {
		err = fmt.Errorf("%d worker(s) lost", info.Lost)
	}
	if err != nil {
		ci.same = append(ci.same, false)
		return err
	}
	if ci.first == nil {
		ci.first = blob
	}
	ci.same = append(ci.same, bytes.Equal(blob, ci.first))
	if sp != nil {
		sp.Count("cluster.rank_wall_max_ns", float64(slices.Max(info.RankWallNs)))
		sp.Count("cluster.rank_wall_min_ns", float64(slices.Min(info.RankWallNs)))
		sp.Count("cluster.wire_bytes", float64(info.WireBytes))
		sp.Count("cluster.wire_raw_bytes", float64(info.WireRawBytes))
		sp.Count("cluster.chunks", float64(info.Chunks))
		sp.Count("cluster.conn_pool_hits", float64(info.PoolHits))
		sp.Count("cluster.conn_pool_misses", float64(info.PoolMisses))
		sp.Count("cluster.fetch_retries", float64(info.FetchRetries))
		sp.Count("cluster.result_bytes", float64(info.ResultBytes))
		sp.Count("dataflow.shuffled_bytes", float64(info.ShuffledBytes))
		sp.Count("dataflow.stages", float64(info.Stages))
		sp.Count("dataflow.tasks", float64(info.Tasks))
		sp.Count("spill.spilled_bytes", float64(info.SpilledBytes))
	}
	return nil
}

func (ci *clusterInst) verify(corrupt bool) ([]opRef, error) {
	if ci.first == nil {
		return nil, fmt.Errorf("no op completed")
	}
	want, err := ci.c.Reference(ci.q.src)
	if err != nil {
		return nil, fmt.Errorf("local reference: %w", err)
	}
	if corrupt {
		want[len(want)-1] ^= 1
	}
	firstOK := bytes.Equal(ci.first, want)
	var wrong []opRef
	for k, same := range ci.same {
		if !same || !firstOK {
			wrong = append(wrong, opRef{0, k})
		}
	}
	return wrong, nil
}

func (ci *clusterInst) layers(rec *Recorder, opMs float64, out map[string]float64) {
	rootNs, ops := rec.rootNs()
	if ops == 0 {
		return
	}
	maxNs, minNs := rec.counterMean("cluster.rank_wall_max_ns"), rec.counterMean("cluster.rank_wall_min_ns")
	out["cluster.rank_wall_ms_max"] = maxNs / 1e6
	if maxNs > 0 {
		out["cluster.rank_wall_skew"] = (maxNs - minNs) / maxNs
	}
	out["jobs.driver_overhead_ms"] = (rootNs/float64(ops) - maxNs) / 1e6
	out["cluster.wire_bytes_op"] = rec.counterMean("cluster.wire_bytes")
	out["cluster.wire_raw_bytes_op"] = rec.counterMean("cluster.wire_raw_bytes")
	out["cluster.chunks_op"] = rec.counterMean("cluster.chunks")
	if hits, misses := rec.counterMean("cluster.conn_pool_hits"), rec.counterMean("cluster.conn_pool_misses"); hits+misses > 0 {
		out["cluster.conn_pool_hit_share"] = hits / (hits + misses)
	}
	out["cluster.fetch_retries_op"] = rec.counterMean("cluster.fetch_retries")
	out["cluster.result_bytes_op"] = rec.counterMean("cluster.result_bytes")
	out["dataflow.shuffled_bytes_op"] = rec.counterMean("dataflow.shuffled_bytes")
	out["dataflow.stages_op"] = rec.counterMean("dataflow.stages")
	out["dataflow.tasks_op"] = rec.counterMean("dataflow.tasks")
	out["spill.spilled_bytes_op"] = rec.counterMean("spill.spilled_bytes")
	// The same program on the plain local backend, timed here: what one
	// rank does alone.
	var local []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		if _, err := ci.c.Reference(ci.q.src); err != nil {
			return
		}
		local = append(local, float64(time.Since(t).Nanoseconds())/1e6)
	}
	if m := median(local); m > 0 {
		out["cluster.vs_local_ratio"] = opMs / m
	}
}

func (ci *clusterInst) close() { ci.c.Close() }

// ---- serve-mixed ----------------------------------------------------

// reply is the part of the /query response the benchmark reads.
type reply struct {
	Cached   bool    `json:"cached"`
	QueuedMs float64 `json:"queued_ms"`
	WallMs   float64 `json:"wall_ms"`
	Result   struct {
		Kind string  `json:"kind"`
		Rows int64   `json:"rows"`
		Cols int64   `json:"cols"`
		Size int64   `json:"size"`
		Sum  float64 `json:"sum"`
		Text string  `json:"text"`
	} `json:"result"`
}

type served struct {
	shape int
	reply reply
}

type serveClient struct {
	rng  *rand.Rand
	http *http.Client
	log  []served
}

// serveInst is the query server with two closed-loop keep-alive
// clients: each sends its next request when the previous reply has been
// read to the end, as callers that wait for an answer do.
type serveInst struct {
	e       runEnv
	srv     *Server
	clients []*serveClient
	before  ServerStatus // taken before warm-up: the misses happen there
}

func newServe(e runEnv) (instance, error) {
	srv, err := StartServer(ServerConfig{Sessions: serveSessions, Tile: e.sz.serveTile, N: e.sz.serveN,
		SeedA: e.seed, SeedB: e.seed + 1})
	if err != nil {
		return nil, err
	}
	si := &serveInst{e: e, srv: srv, before: srv.Status()}
	for c := 0; c < 2; c++ {
		si.clients = append(si.clients, &serveClient{
			rng:  rand.New(rand.NewSource(e.seed*1000 + int64(c))),
			http: &http.Client{Timeout: time.Minute, Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
		})
	}
	var wg sync.WaitGroup
	errs := make([]error, len(si.clients))
	for c := range si.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < e.sz.warmServe/len(si.clients); i++ {
				if _, _, err := si.request(c); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			si.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return si, nil
}

// request sends one query drawn from the client's generator and reads
// the whole reply.
func (si *serveInst) request(c int) (int, reply, error) {
	cl := si.clients[c]
	shape := cl.rng.Intn(len(serveShapes))
	src := reformat(serveShapes[shape].src, cl.rng.Intn(3))
	body, _ := json.Marshal(map[string]string{"query": src}) // a map of strings always marshals
	var r reply
	resp, err := cl.http.Post(si.srv.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return shape, r, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return shape, r, err
	}
	if resp.StatusCode != http.StatusOK {
		return shape, r, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	return shape, r, json.Unmarshal(raw, &r)
}

func (si *serveInst) op(c int, sp *Scope) error {
	call := sp.Start("server.query")
	t := time.Now()
	shape, r, err := si.request(c)
	lat := time.Since(t)
	call.End()
	cl := si.clients[c]
	if err != nil {
		cl.log = append(cl.log, served{shape: -1})
		return err
	}
	cl.log = append(cl.log, served{shape, r})
	if sp != nil {
		ms := float64(lat.Nanoseconds()) / 1e6
		sp.Count("server.lat_ms", ms)
		sp.Count("server.wall_ms", r.WallMs)
		sp.Count("server.queued_ms", r.QueuedMs)
		sp.Count("server.http_overhead_ms", ms-r.WallMs-r.QueuedMs)
		sp.Count("server.lat_ms."+serveShapes[shape].name, ms)
	}
	return nil
}

func (si *serveInst) verify(corrupt bool) ([]opRef, error) {
	// The same inputs in a plain session, asked directly.
	s := OpenSession(SessionConfig{Tile: si.e.sz.serveTile})
	defer s.Close()
	s.AddMatrix("A", si.e.sz.serveN, si.e.seed)
	s.AddMatrix("B", si.e.sz.serveN, si.e.seed+1)
	s.AddScalar("n", si.e.sz.serveN)
	want := make([]Summary, len(serveShapes))
	for i, q := range serveShapes {
		a, err := s.Run(q.src, nil)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", q.name, err)
		}
		want[i] = a.Summarize()
		if corrupt {
			want[i].Rows++
			want[i].Size++
			want[i].Text += "0"
		}
	}
	var wrong []opRef
	for c, cl := range si.clients {
		for k, got := range cl.log {
			if got.shape < 0 || !sameSummary(want[got.shape], got.reply) {
				wrong = append(wrong, opRef{c, k})
			}
		}
	}
	return wrong, nil
}

func sameSummary(w Summary, r reply) bool {
	g := r.Result
	if g.Kind != w.Kind || g.Rows != w.Rows || g.Cols != w.Cols || g.Size != w.Size {
		return false
	}
	if w.Kind == "scalar" {
		wf, err1 := strconv.ParseFloat(w.Text, 64)
		gf, err2 := strconv.ParseFloat(g.Text, 64)
		if err1 == nil && err2 == nil {
			return relClose(wf, gf, 1e-9)
		}
		return w.Text == g.Text
	}
	return relClose(w.Sum, g.Sum, 1e-9)
}

func (si *serveInst) layers(rec *Recorder, _ float64, out map[string]float64) {
	out["server.wall_ms_p50"] = median(rec.counterValues("server.wall_ms"))
	out["server.queued_ms_p50"] = median(rec.counterValues("server.queued_ms"))
	out["server.http_overhead_ms_p50"] = median(rec.counterValues("server.http_overhead_ms"))
	out["server.lat_ms_p99"] = percentile(rec.counterValues("server.lat_ms"), 0.99)
	for _, q := range serveShapes {
		out["server.lat_ms_p50."+q.name] = median(rec.counterValues("server.lat_ms." + q.name))
	}
	now := si.srv.Status()
	hits, misses := float64(now.Hits-si.before.Hits), float64(now.Misses-si.before.Misses)
	if hits+misses > 0 {
		out["server.plan_cache_hit_share"] = hits / (hits + misses)
		out["server.alias_hit_share"] = float64(now.AliasHits-si.before.AliasHits) / (hits + misses)
	}
	if rejected := float64(now.Rejected - si.before.Rejected); rejected > 0 {
		out["server.rejected_share"] = rejected / (rejected + float64(now.Admitted-si.before.Admitted))
	}
	out["server.plan_cache_misses"] = misses
}

func (si *serveInst) close() {
	for _, cl := range si.clients {
		cl.http.CloseIdleConnections()
	}
	si.srv.Close()
}
