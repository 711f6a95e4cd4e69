// Package server turns the one-shot SAC engine into a long-running
// multi-tenant query service: an HTTP/JSON front end over a pool of
// core.Backends (one core.Session per slot, or every slot sharing a
// cluster backend), a compiled-plan cache that amortizes
// parsing/normalization/planning across parameterized re-runs, and
// admission control that queues or rejects queries whose estimated
// memory footprint would breach the budget instead of letting one
// tenant stall everyone.
//
// Endpoints:
//
//	POST /query        run one query, reply with result + metrics JSON
//	POST /query/stream run one query, reply as NDJSON events (plan,
//	                   per-stage progress, result) as they happen
//	POST /data         (re)register a dataset or scalar on every
//	                   pooled session (409 when the backend's inputs
//	                   are fixed)
//	GET  /status       pool, plan-cache, admission, and resident-data state
//	GET  /healthz      liveness (503 while draining)
//	GET  /debug/metrics process-wide instrument registry (Prometheus)
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/comp"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/tiled"
)

// Config shapes the service. The zero value serves: 2 sessions per
// core pair, unlimited admission, 64-entry plan caches.
type Config struct {
	// Sessions is the pool size — the maximum concurrently executing
	// queries (default: half the cores, at least 2).
	Sessions int
	// TileSize, Partitions and MemoryBudget configure each pooled
	// core.Session. Under a MemoryBudget the server also keeps no
	// registered matrix resident (see RegisterRandMatrix).
	TileSize     int
	Partitions   int
	MemoryBudget int64
	// AdmissionBudget bounds the summed footprint estimates of
	// concurrently admitted queries; 0 disables admission control.
	AdmissionBudget int64
	// MaxQueue bounds how many queries may wait for admission; beyond
	// it submissions are rejected immediately (default 32).
	MaxQueue int
	// QueueTimeout bounds how long one query waits in the admission
	// queue (default 10s); it also bounds the wait for a free session.
	QueueTimeout time.Duration
	// PlanCacheSize caps compiled plans per pooled session (default 64).
	PlanCacheSize int
	// Cluster, when non-nil, is the one backend every slot compiles and
	// runs on (a jobs.ClusterSession, which plans against the catalog its
	// ranks rebuild) instead of a core.Session of its own; the slots then
	// only bound concurrency and hold the plan caches. The server closes
	// it as it closes its own sessions. Its inputs are fixed: registration
	// is refused.
	Cluster core.Backend
}

// Server is the running service. Create with New, attach to a listener
// with Serve/ListenAndServe (or mount Handler on your own), and stop
// with Shutdown (graceful) or Close (immediate).
type Server struct {
	cfg  Config
	pool *pool
	adm  *admission
	// local are the sessions this server built, one per slot: what
	// registration writes to. Empty when every slot shares cfg.Cluster.
	local   []*core.Session
	backend string // StatusDoc.Backend
	start   time.Time

	mu sync.Mutex
	// datasets are the registered matrices, by name: the one copy of
	// their tiles every pooled session reads (none is generated under a
	// memory budget, where the sessions regenerate them instead).
	datasets map[string]*tiled.ResidentMatrix
	httpSrv  *http.Server
	ln       net.Listener
	// reads counts the sessions' reads of registered partitions: a
	// ResidentMiss generated one, a ResidentHit found it.
	reads obs.LiveCounters

	// dmu orders a query's admission against Shutdown: a query joins
	// inflight only while draining is false, under dmu, and Shutdown sets
	// draining under dmu before it waits, so no Add can race the Wait.
	dmu      sync.Mutex
	draining atomic.Bool
	inflight sync.WaitGroup

	queriesDone atomic.Int64 // served by THIS server (obs counters are process-wide)
}

// New builds the session pool: one local session per slot, or every
// slot sharing cfg.Cluster.
func New(cfg Config) (*Server, error) {
	if cfg.Sessions <= 0 {
		cfg.Sessions = runtime.GOMAXPROCS(0) / 2
		if cfg.Sessions < 2 {
			cfg.Sessions = 2
		}
	}
	if cfg.QueueTimeout <= 0 {
		cfg.QueueTimeout = 10 * time.Second
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 32
	}
	s := &Server{
		cfg:      cfg,
		adm:      newAdmission(cfg.AdmissionBudget, cfg.MaxQueue, cfg.QueueTimeout),
		backend:  "local",
		start:    time.Now(),
		datasets: map[string]*tiled.ResidentMatrix{},
	}
	backends := make([]core.Backend, cfg.Sessions)
	for i := range backends {
		if cfg.Cluster != nil {
			backends[i], s.backend = cfg.Cluster, "cluster"
			continue
		}
		sess := core.NewSession(core.Config{
			TileSize:     cfg.TileSize,
			Partitions:   cfg.Partitions,
			MemoryBudget: cfg.MemoryBudget,
		})
		backends[i], s.local = sess, append(s.local, sess)
	}
	s.pool = newPool(backends, cfg.PlanCacheSize)
	return s, nil
}

// RegisterRandMatrix registers (or replaces) a deterministically
// generated rows x cols matrix on every pooled session. The server holds
// one copy of its tiles (tiled.ResidentMatrix, the type a cluster worker
// keeps its inputs in), split as the sessions' default partition count
// splits it: each partition is generated by the first query that reads
// it, on any session, and every later query on every session reads the
// same tiles, which no kernel writes. A server with a MemoryBudget keeps
// nothing outside its budget, so there each session regenerates a
// partition whenever a task reads it. Replacing a name drops its old
// tiles. Re-registering an existing name with the same shape keeps the
// compiled-plan caches — plans resolve arrays by name at execution,
// which is exactly the parameterized re-run the cache amortizes; a new
// name or a changed shape clears them (shapes are baked into plans).
func (s *Server) RegisterRandMatrix(name string, rows, cols int64, lo, hi float64, seed int64) error {
	if len(s.local) == 0 {
		return ErrInputsFixed
	}
	one := s.local[0]
	kept := tiled.NewResident(tiled.RandSpec{Rows: rows, Cols: cols, N: one.TileSize(),
		Parts: one.Engine().DefaultPartitions(), Lo: lo, Hi: hi, Seed: seed})
	bind := func(sess *core.Session) { sess.RegisterMatrix(name, kept.Bind(sess.Engine(), &s.reads)) }
	if s.cfg.MemoryBudget > 0 {
		bind = func(sess *core.Session) { sess.RegisterRandMatrix(name, rows, cols, lo, hi, seed) }
	}
	s.mu.Lock()
	prev := s.datasets[name]
	s.mu.Unlock()
	err := s.register(prev != nil && prev.Spec.Rows == rows && prev.Spec.Cols == cols, bind)
	if err == nil {
		s.mu.Lock()
		s.datasets[name] = kept
		s.mu.Unlock()
	}
	return err
}

// RegisterScalar registers a scalar constant on every pooled session.
// Scalars are folded into compiled plans, so this always clears the
// plan caches.
func (s *Server) RegisterScalar(name string, v comp.Value) error {
	return s.register(false, func(sess *core.Session) { sess.RegisterScalar(name, v) })
}

// ErrInputsFixed refuses a registration on a server whose backend
// generates its own inputs: the cluster's ranks rebuild A, B and n from
// their QueryParams on every query, so a catalog changed here would
// plan against data they never see.
var ErrInputsFixed = errors.New("server: the cluster backend's inputs are fixed; nothing was registered")

// register applies one registration to every session the server owns,
// with each slot held (waiting out the query it is running: the queue
// timeout plus slack) so the pooled catalogs stay identical.
func (s *Server) register(keepPlans bool, fn func(*core.Session)) error {
	if len(s.local) == 0 {
		return ErrInputsFixed
	}
	return s.pool.withAll(s.cfg.QueueTimeout+2*time.Minute, func(sl *slot) error {
		fn(s.local[sl.id])
		if !keepPlans {
			sl.plans.clear()
		}
		return nil
	})
}

// errorJSON is the body of every non-200 reply.
type errorJSON struct {
	Error         string `json:"error"`
	Reason        string `json:"reason,omitempty"`
	EstimateBytes int64  `json:"estimate_bytes,omitempty"`
	BudgetBytes   int64  `json:"budget_bytes,omitempty"`
}

type httpErr struct {
	status int
	body   errorJSON
}

type metricsJSON struct {
	Stages          int64 `json:"stages"`
	Tasks           int64 `json:"tasks"`
	ShuffledRecords int64 `json:"shuffled_records"`
	ShuffledBytes   int64 `json:"shuffled_bytes"`
	SpilledBytes    int64 `json:"spilled_bytes,omitempty"`
}

type queryResponse struct {
	Plan          string       `json:"plan"`
	Cached        bool         `json:"cached"`
	Session       int          `json:"session"`
	EstimateBytes int64        `json:"estimate_bytes,omitempty"`
	QueuedMs      float64      `json:"queued_ms"`
	WallMs        float64      `json:"wall_ms"`
	Result        core.Summary `json:"result"`
	Metrics       metricsJSON  `json:"metrics"`
}

func metricsOf(m dataflow.MetricsSnapshot) metricsJSON {
	return metricsJSON{
		Stages:          m.Stages,
		Tasks:           m.Tasks,
		ShuffledRecords: m.ShuffledRecords,
		ShuffledBytes:   m.ShuffledBytes,
		SpilledBytes:    m.SpilledBytes,
	}
}

// eventSink serializes NDJSON events onto one streaming response.
type eventSink struct {
	mu sync.Mutex
	w  io.Writer
	f  http.Flusher
}

func (s *eventSink) emit(v any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b, err := json.Marshal(v)
	if err != nil {
		return
	}
	s.w.Write(append(b, '\n'))
	if s.f != nil {
		s.f.Flush()
	}
}

type stageEvent struct {
	Event         string  `json:"event"`
	ID            int64   `json:"id"`
	Name          string  `json:"name"`
	WallMs        float64 `json:"wall_ms"`
	Tasks         int64   `json:"tasks"`
	RecordsIn     int64   `json:"records_in"`
	RecordsOut    int64   `json:"records_out"`
	ShuffledBytes int64   `json:"shuffled_bytes"`
}

func stageEventOf(st dataflow.StageMetric) stageEvent {
	return stageEvent{
		Event: "stage", ID: st.ID, Name: st.Name,
		WallMs: float64(st.Wall) / float64(time.Millisecond),
		Tasks:  st.Tasks, RecordsIn: st.RecordsIn, RecordsOut: st.RecordsOut,
		ShuffledBytes: st.ShuffledBytes,
	}
}

// runQuery is the shared submit path of /query and /query/stream.
// sink is nil for the non-streaming endpoint.
func (s *Server) runQuery(src string, sink *eventSink, admitted func()) (*queryResponse, *httpErr) {
	s.dmu.Lock()
	if s.draining.Load() {
		s.dmu.Unlock()
		return nil, &httpErr{http.StatusServiceUnavailable, errorJSON{Error: "server draining", Reason: "draining"}}
	}
	s.inflight.Add(1)
	s.dmu.Unlock()
	defer s.inflight.Done()

	sl, err := s.pool.acquire(s.cfg.QueueTimeout)
	if err != nil {
		return nil, &httpErr{http.StatusServiceUnavailable, errorJSON{Error: err.Error(), Reason: "pool-busy"}}
	}
	defer s.pool.release(sl)

	q, cached, err := sl.compile(src)
	if err != nil {
		return nil, &httpErr{http.StatusBadRequest, errorJSON{Error: err.Error(), Reason: "compile"}}
	}
	est := q.EstimateFootprintBytes()

	qStart := time.Now()
	release, aerr := s.adm.Acquire(est)
	if aerr != nil {
		return nil, &httpErr{http.StatusTooManyRequests, errorJSON{
			Error: aerr.Error(), Reason: aerr.Reason,
			EstimateBytes: aerr.EstimateBytes, BudgetBytes: aerr.BudgetBytes,
		}}
	}
	defer release()
	queued := time.Since(qStart)
	if admitted != nil {
		admitted()
	}

	obsQueries.Inc()
	obsInflight.Add(1)
	defer obsInflight.Add(-1)
	defer s.queriesDone.Add(1)
	defer func() { obsQuerySeconds.Observe(time.Since(qStart).Seconds()) }()

	resp := &queryResponse{
		Plan: q.Explain(), Cached: cached, Session: sl.id,
		EstimateBytes: est, QueuedMs: float64(queued) / float64(time.Millisecond),
	}
	sink.emit(map[string]any{
		"event": "plan", "plan": resp.Plan, "cached": cached,
		"session": sl.id, "estimate_bytes": est,
		"queued_ms": resp.QueuedMs,
	})

	// Run forces the result, so its metrics window and the admission
	// reservation held around it cover every stage the query runs, and
	// records the run on q, so a repeat that hits this slot's plan cache
	// is admitted on what the plan last moved.
	stop := s.streamStages(sl, sink)
	out, err := sl.backend.Run(q, src, false)
	seen := stop()
	if err != nil {
		obsQueryErrors.Inc()
		return nil, &httpErr{http.StatusInternalServerError, errorJSON{Error: err.Error(), Reason: "execute"}}
	}
	// Flush stage rows the poller had not seen when execution finished.
	if sink != nil {
		for _, st := range out.Metrics.PerStage[seen:] {
			sink.emit(stageEventOf(st))
		}
	}
	resp.WallMs = float64(out.Wall) / float64(time.Millisecond)
	resp.Result = out.Summary
	resp.Metrics = metricsOf(out.Metrics)
	return resp, nil
}

// streamInterval is the stage-telemetry poll period of the NDJSON
// endpoint: a row reaches the client at most this late, and rows still
// unseen at the end go out in the final flush.
const streamInterval = 100 * time.Millisecond

// streamStages polls the executing session's metrics and emits a stage
// event for each newly completed stage. Only a session this server owns
// is polled: the slot holds it exclusively, so its live counters are
// this query's, while a backend every slot shares reports whichever run
// settled last and streams its rows in the final flush alone. The
// returned stop function ends the poller and reports how many rows were
// emitted.
func (s *Server) streamStages(sl *slot, sink *eventSink) (stop func() int) {
	if sink == nil || len(s.local) == 0 {
		return func() int { return 0 }
	}
	sess, began := s.local[sl.id], time.Now()
	done := make(chan struct{})
	result := make(chan int, 1)
	go func() {
		seen := 0
		t := time.NewTicker(streamInterval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				rows := sess.Metrics().PerStage
				// Run starts the session's metrics over; a tick that beats
				// it to that still reads the previous query's rows.
				if len(rows) > 0 && rows[0].Start.Before(began) {
					continue
				}
				for ; seen < len(rows); seen++ {
					sink.emit(stageEventOf(rows[seen]))
				}
			case <-done:
				result <- seen
				return
			}
		}
	}()
	return func() int {
		close(done)
		return <-result
	}
}

// Handler returns the service mux; mount it on any listener.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", func(w http.ResponseWriter, r *http.Request) {
		src, herr := readQuery(r)
		if herr != nil {
			writeErr(w, herr)
			return
		}
		resp, herr := s.runQuery(src, nil, nil)
		if herr != nil {
			writeErr(w, herr)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("/query/stream", func(w http.ResponseWriter, r *http.Request) {
		src, herr := readQuery(r)
		if herr != nil {
			writeErr(w, herr)
			return
		}
		// The header is committed on admission: rejections stay plain
		// HTTP errors, grants switch to NDJSON.
		var sink *eventSink
		commit := func() {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			sink.w = w
			sink.f, _ = w.(http.Flusher)
		}
		sink = &eventSink{}
		resp, herr := s.runQuery(src, sink, commit)
		if herr != nil {
			writeErr(w, herr)
			return
		}
		final := map[string]any{
			"event": "result", "result": resp.Result, "wall_ms": resp.WallMs,
			"metrics": resp.Metrics,
		}
		sink.emit(final)
	})
	mux.HandleFunc("/data", s.handleData)
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Status())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.Handle("/debug/metrics", obs.Default)
	return mux
}

// readQuery accepts {"query": "..."} JSON or a raw query body (curl
// without -H is the raw path).
func readQuery(r *http.Request) (string, *httpErr) {
	if r.Method != http.MethodPost {
		return "", &httpErr{http.StatusMethodNotAllowed, errorJSON{Error: "POST a query"}}
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		return "", &httpErr{http.StatusBadRequest, errorJSON{Error: err.Error()}}
	}
	text := strings.TrimSpace(string(body))
	if strings.HasPrefix(text, "{") {
		var req struct {
			Query string `json:"query"`
		}
		if err := json.Unmarshal(body, &req); err != nil {
			return "", &httpErr{http.StatusBadRequest, errorJSON{Error: "bad JSON: " + err.Error()}}
		}
		text = strings.TrimSpace(req.Query)
	}
	if text == "" {
		return "", &httpErr{http.StatusBadRequest, errorJSON{Error: "empty query"}}
	}
	return text, nil
}

func (s *Server) handleData(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, &httpErr{http.StatusMethodNotAllowed, errorJSON{Error: "POST a dataset"}})
		return
	}
	var req struct {
		Name   string       `json:"name"`
		Rows   int64        `json:"rows"`
		Cols   int64        `json:"cols"`
		Lo     float64      `json:"lo"`
		Hi     float64      `json:"hi"`
		Seed   int64        `json:"seed"`
		Scalar *json.Number `json:"scalar"`
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeErr(w, &httpErr{http.StatusBadRequest, errorJSON{Error: "bad JSON: " + err.Error()}})
		return
	}
	if req.Name == "" {
		writeErr(w, &httpErr{http.StatusBadRequest, errorJSON{Error: "dataset needs a name"}})
		return
	}
	var err error
	switch {
	case req.Scalar != nil:
		var v comp.Value
		if i, ierr := req.Scalar.Int64(); ierr == nil {
			v = i
		} else if f, ferr := req.Scalar.Float64(); ferr == nil {
			v = f
		} else {
			writeErr(w, &httpErr{http.StatusBadRequest, errorJSON{Error: "bad scalar: " + req.Scalar.String()}})
			return
		}
		err = s.RegisterScalar(req.Name, v)
	case req.Rows > 0 && req.Cols > 0:
		if req.Hi == 0 && req.Lo == 0 {
			req.Hi = 10
		}
		err = s.RegisterRandMatrix(req.Name, req.Rows, req.Cols, req.Lo, req.Hi, req.Seed)
	default:
		writeErr(w, &httpErr{http.StatusBadRequest, errorJSON{Error: "need rows+cols (matrix) or scalar"}})
		return
	}
	switch {
	case errors.Is(err, ErrInputsFixed):
		writeErr(w, &httpErr{http.StatusConflict, errorJSON{Error: err.Error(), Reason: "cluster-inputs-fixed"}})
		return
	case err != nil:
		writeErr(w, &httpErr{http.StatusServiceUnavailable, errorJSON{Error: err.Error()}})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"registered": req.Name, "sessions": len(s.pool.all)})
}

// StatusDoc is the /status document.
type StatusDoc struct {
	Backend string `json:"backend"`
	// Kernel is this process's GEMM micro-kernel (linalg.KernelName):
	// which kernel a local backend's tile products ran on.
	Kernel   string `json:"kernel"`
	UptimeMs int64  `json:"uptime_ms"`
	Draining bool   `json:"draining"`
	Sessions struct {
		Total int `json:"total"`
		Busy  int `json:"busy"`
	} `json:"sessions"`
	Queries struct {
		Done     int64 `json:"done"`
		Inflight int64 `json:"inflight"`
	} `json:"queries"`
	PlanCache struct {
		Entries   int64 `json:"entries"`
		Hits      int64 `json:"hits"`
		AliasHits int64 `json:"alias_hits"`
		Misses    int64 `json:"misses"`
		Evictions int64 `json:"evictions"`
	} `json:"plan_cache"`
	Admission struct {
		BudgetBytes   int64 `json:"budget_bytes"`
		InflightBytes int64 `json:"inflight_bytes"`
		QueueDepth    int   `json:"queue_depth"`
		Admitted      int64 `json:"admitted"`
		Rejected      int64 `json:"rejected"`
		QueueTimeouts int64 `json:"queue_timeouts"`
	} `json:"admission"`
	// Resident is this server's registered matrices: the bytes of the
	// partitions generated so far, and the sessions' reads that found a
	// partition generated (hits) or generated it (misses). All zero on a
	// cluster backend and under a memory budget.
	Resident struct {
		Bytes  int64 `json:"bytes"`
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"resident"`
}

// Status assembles the live service state. The counter fields read the
// process-wide instrument registry, so with several servers in one
// process they aggregate across them; Queries.Done is this server's
// own.
func (s *Server) Status() StatusDoc {
	var doc StatusDoc
	doc.Backend = s.backend
	doc.Kernel = linalg.KernelName()
	doc.UptimeMs = time.Since(s.start).Milliseconds()
	doc.Draining = s.draining.Load()
	doc.Sessions.Total = len(s.pool.all)
	doc.Sessions.Busy = len(s.pool.all) - len(s.pool.slots)
	doc.Queries.Done = s.queriesDone.Load()
	doc.Queries.Inflight = obsInflight.Value()
	doc.PlanCache.Entries = obsPlanEntries.Value()
	doc.PlanCache.Hits = obsPlanHits.Value()
	doc.PlanCache.AliasHits = obsPlanAliasHits.Value()
	doc.PlanCache.Misses = obsPlanMisses.Value()
	doc.PlanCache.Evictions = obsPlanEvictions.Value()
	inflight, depth, budget := s.adm.Snapshot()
	doc.Admission.BudgetBytes = budget
	doc.Admission.InflightBytes = inflight
	doc.Admission.QueueDepth = depth
	doc.Admission.Admitted = obsAdmitted.Value()
	doc.Admission.Rejected = obsRejected.Value()
	doc.Admission.QueueTimeouts = obsQueueTimeouts.Value()
	rc := s.residentCounters()
	doc.Resident.Bytes, doc.Resident.Hits, doc.Resident.Misses = rc.ResidentBytes, rc.ResidentHits, rc.ResidentMisses
	return doc
}

// residentCounters is the reads of the registered matrices, with their
// bytes as ResidentBytes.
func (s *Server) residentCounters() obs.CounterSet {
	var n int64
	s.mu.Lock()
	for _, m := range s.datasets {
		n += m.Bytes()
	}
	s.mu.Unlock()
	s.reads.ResidentBytes.Store(n)
	return s.reads.Snapshot()
}

// Serve starts the HTTP service on ln and blocks until the listener
// closes (Shutdown/Close).
func (s *Server) Serve(ln net.Listener) error {
	srv := &http.Server{Handler: s.Handler()}
	s.mu.Lock()
	s.httpSrv = srv
	s.ln = ln
	s.mu.Unlock()
	err := srv.Serve(ln)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// Listen binds addr (":0" picks a free port — read it back with Addr).
func (s *Server) Listen(addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return ln, nil
}

// Addr reports the bound listener address, if serving.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Shutdown drains gracefully: new submissions get 503 immediately,
// in-flight queries run to completion (bounded by timeout), then the
// listener and every slot's backend close. Safe to call without a
// listener (Handler-only use). Returns an error when the deadline
// passed with queries still running — the sessions are closed anyway.
func (s *Server) Shutdown(timeout time.Duration) error {
	s.dmu.Lock()
	first := s.draining.CompareAndSwap(false, true)
	s.dmu.Unlock()
	if !first {
		return nil
	}
	obsDrains.Inc()
	deadline := time.Now().Add(timeout)
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	var drainErr error
	select {
	case <-done:
	case <-time.After(timeout):
		drainErr = fmt.Errorf("server: drain deadline (%v) passed with queries in flight", timeout)
	}
	s.mu.Lock()
	srv := s.httpSrv
	s.mu.Unlock()
	if srv != nil {
		// The queries are done (or abandoned past the deadline), but their
		// handlers may still be writing the replies: Shutdown waits for
		// them within the deadline, Close tears down what is left.
		ctx, cancel := context.WithDeadline(context.TODO(), deadline)
		_ = srv.Shutdown(ctx)
		cancel()
		srv.Close()
	}
	if err := s.closeBackends(); err != nil && drainErr == nil {
		drainErr = err
	}
	return drainErr
}

// Close shuts down immediately (no drain).
func (s *Server) Close() error {
	s.draining.Store(true)
	s.mu.Lock()
	srv := s.httpSrv
	s.mu.Unlock()
	if srv != nil {
		srv.Close()
	}
	return s.closeBackends()
}

// closeBackends shuts every slot's backend down (sessions remove their
// spill directories, a cluster session disconnects its workers).
func (s *Server) closeBackends() error {
	slots := s.pool.all
	if len(s.local) == 0 {
		slots = slots[:1] // every slot shares the one backend
	}
	var first error
	for _, sl := range slots {
		if err := sl.backend.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, e *httpErr) {
	writeJSON(w, e.status, e.body)
}
