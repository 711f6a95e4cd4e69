package harness

// adapter.go is the only file of the benchmark that imports the
// program under test. Everything the workloads, the layer suite and the
// verifier need from repro/internal/... is wrapped here in terms of plain
// Go values, so an API refactor of the program has this one file to touch.
// The benchmark uses default configuration only: no LegacyBlob, NoCompress,
// DisableStreamFetch, DisableGBJ or AdaptiveShuffle.

import (
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/comp"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/jobs"
	"repro/internal/linalg"
	"repro/internal/memory"
	"repro/internal/mllib"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/plan"
	"repro/internal/sacparser"
	"repro/internal/server"
	"repro/internal/spill"
	"repro/internal/tiled"
	"repro/internal/trace"
)

// ---- local sessions -------------------------------------------------

// SessionConfig is the part of core.Config the benchmark sets.
type SessionConfig struct {
	Tile, Partitions int
	MemoryBudget     int64  // 0 = unlimited
	SpillDir         string // used only with a budget
}

// Session is a core.Session plus handles on its registered inputs.
type Session struct {
	s    *core.Session
	mats map[string]*tiled.Matrix
}

func OpenSession(c SessionConfig) *Session {
	return &Session{
		s: core.NewSession(core.Config{TileSize: c.Tile, Partitions: c.Partitions,
			MemoryBudget: c.MemoryBudget, SpillDir: c.SpillDir}),
		mats: map[string]*tiled.Matrix{},
	}
}

func (s *Session) Close() error { return s.s.Close() }

// AddMatrix registers an n x n matrix of uniform values in [0,10),
// persists it and forces it, so no timed op pays for generation.
func (s *Session) AddMatrix(name string, n, seed int64) {
	m := s.s.RegisterRandMatrix(name, n, n, 0, 10, seed)
	m.Persist()
	dataflow.Count(m.Tiles)
	s.mats[name] = m
}

func (s *Session) AddScalar(name string, v int64) { s.s.RegisterScalar(name, v) }

// Input returns a registered matrix as row-major values.
func (s *Session) Input(name string) []float64 { return s.mats[name].ToDense().Data }

// Answer is one query result forced to completion. Check digests every
// tile (or block, or the scalar) and is computed by the same pass that
// forces the result: results are lazy, so any later look at the values
// recomputes them. DigestNs is what that digest cost, summed over the
// cores that ran it; only a traced op measures it.
type Answer struct {
	Kind       string // matrix, vector, scalar or list
	Rows, Cols int64  // Cols is 0 for a vector
	Check      Check
	DigestNs   int64
	Text       string // rendering of a scalar
	res        *plan.Result
}

// Check is an order-independent digest of a result's tiles. Bits folds
// the exact float bits: equal answers have equal Bits. Total and
// Weighted are the plain sum of all values and the sum with a weight per
// tile position; they compare within a tolerance, for runs whose
// floating-point fold order may legitimately differ (under a memory
// budget the map-side combiner flushes early).
type Check struct {
	Bits            uint64
	Total, Weighted float64
}

func (c Check) add(o Check) Check {
	return Check{c.Bits + o.Bits, c.Total + o.Total, c.Weighted + o.Weighted}
}

// Close reports whether two digests agree to a relative 1e-9.
func (c Check) Close(o Check) bool {
	return relClose(c.Total, o.Total, 1e-9) && relClose(c.Weighted, o.Weighted, 1e-9)
}

// tileCheck digests one tile at i, j. Four independent lanes keep the
// pass at memory speed: it runs inside every timed op.
func tileCheck(i, j int64, data []float64) Check {
	const prime = 1099511628211
	seed := uint64(i+1)*0x9E3779B97F4A7C15 ^ uint64(j+1)*0xC2B2AE3D27D4EB4F
	h0, h1, h2, h3 := seed, seed+1, seed+2, seed+3
	var t0, t1, t2, t3 float64
	k := 0
	for ; k+4 <= len(data); k += 4 {
		d := data[k : k+4 : k+4]
		h0 = (h0 ^ math.Float64bits(d[0])) * prime
		h1 = (h1 ^ math.Float64bits(d[1])) * prime
		h2 = (h2 ^ math.Float64bits(d[2])) * prime
		h3 = (h3 ^ math.Float64bits(d[3])) * prime
		t0 += d[0]
		t1 += d[1]
		t2 += d[2]
		t3 += d[3]
	}
	for ; k < len(data); k++ {
		h0 = (h0 ^ math.Float64bits(data[k])) * prime
		t0 += data[k]
	}
	t := (t0 + t1) + (t2 + t3)
	return Check{h0 ^ h1*3 ^ h2*5 ^ h3*7, t, t * (1 + float64(seed%1024)/1024)}
}

// force drives the lazy result to completion with one action, as
// dataflow.Count would, folding the checksum in the same pass: every op's
// answer is checked, and a lazy result cannot be looked at again after
// the timed op without computing it again. With timeDigest the digest
// calls are timed, so a traced run reports what the harness adds to an op.
func force(res *plan.Result, timeDigest bool) Answer {
	a := Answer{Kind: res.Kind(), res: res}
	check := tileCheck
	var digestNs atomic.Int64
	if timeDigest {
		check = func(i, j int64, data []float64) Check {
			t := time.Now()
			c := tileCheck(i, j, data)
			digestNs.Add(int64(time.Since(t)))
			return c
		}
	}
	switch a.Kind {
	case "matrix":
		a.Rows, a.Cols = res.Matrix.Rows, res.Matrix.Cols
		a.Check = dataflow.Aggregate(res.Matrix.Tiles, Check{}, func(acc Check, b tiled.Block) Check {
			return acc.add(check(b.Key.I, b.Key.J, b.Value.Data))
		}, Check.add)
	case "vector":
		a.Rows = res.Vector.Size
		a.Check = dataflow.Aggregate(res.Vector.Blocks, Check{}, func(acc Check, b tiled.VBlock) Check {
			return acc.add(check(b.Key, -1, b.Value.Data))
		}, Check.add)
	case "scalar":
		a.Text = comp.Render(res.Scalar)
		if f, ok := comp.AsFloat(res.Scalar); ok {
			a.Check = Check{math.Float64bits(f), f, f}
		}
	default:
		a.Rows = int64(len(res.List))
	}
	a.DigestNs = digestNs.Load()
	return a
}

// Materialize recomputes the result once and returns its row-major
// values with the digest of exactly those values, so a reference check
// on the values also vouches for every op that reported the same digest.
func (a Answer) Materialize() (vals []float64, sum Check) {
	switch a.Kind {
	case "matrix":
		m := a.res.Matrix
		vals = make([]float64, m.Rows*m.Cols)
		n := int64(m.N)
		for _, b := range dataflow.Collect(m.Tiles) {
			sum = sum.add(tileCheck(b.Key.I, b.Key.J, b.Value.Data))
			for i := int64(0); i < n && b.Key.I*n+i < m.Rows; i++ {
				for j := int64(0); j < n && b.Key.J*n+j < m.Cols; j++ {
					vals[(b.Key.I*n+i)*m.Cols+b.Key.J*n+j] = b.Value.Data[i*n+j]
				}
			}
		}
	case "vector":
		v := a.res.Vector
		vals = make([]float64, v.Size)
		n := int64(v.N)
		for _, b := range dataflow.Collect(v.Blocks) {
			sum = sum.add(tileCheck(b.Key, -1, b.Value.Data))
			for i := int64(0); i < n && b.Key*n+i < v.Size; i++ {
				vals[b.Key*n+i] = b.Value.Data[i]
			}
		}
	case "scalar":
		if f, ok := comp.AsFloat(a.res.Scalar); ok {
			vals, sum = []float64{f}, Check{math.Float64bits(f), f, f}
		}
	}
	return vals, sum
}

// guard turns a panic that escaped the engine into a failed op.
func guard(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("panic: %v", r)
	}
}

// Run executes one query and forces it. Untraced, it is the one call a
// user makes (Session.Query). Traced, the same steps are made one by one
// with a span around each layer call; Session.Compile parses again, so
// the parse is paid twice there (microseconds).
func (s *Session) Run(src string, sp *Scope) (a Answer, err error) {
	defer guard(&err)
	if sp == nil {
		res, err := s.s.Query(src)
		if err != nil {
			return Answer{}, err
		}
		return force(res, false), nil
	}
	c := sp.Start("sacparser.parse")
	_, err = sacparser.Parse(src)
	c.End()
	if err != nil {
		return Answer{}, err
	}
	c = sp.Start("plan.compile")
	q, err := s.s.Compile(src)
	c.End()
	if err != nil {
		return Answer{}, err
	}
	c = sp.Start("plan.execute")
	res, err := q.Execute()
	c.End()
	if err != nil {
		return Answer{}, err
	}
	c = sp.Start("dataflow.force")
	a = force(res, true)
	c.End()
	return a, nil
}

// Counters is the slice of dataflow.MetricsSnapshot the benchmark reads.
type Counters struct {
	Stages, Tasks, ShuffledBytes         int64
	StageWallNs                          int64
	PoolHits, PoolMisses                 int64
	SpilledBytes, MergePasses            int64
	BudgetWaits, Overcommits, MemoryPeak int64
}

// Mark is a point in a session's counters to measure from.
type Mark struct{ snap dataflow.MetricsSnapshot }

func (s *Session) Mark() Mark { return Mark{s.s.Metrics()} }

// Since returns what the engine counted after m.
func (s *Session) Since(m Mark) Counters {
	now := s.s.Metrics()
	d := now.Sub(m.snap)
	c := Counters{Stages: d.Stages, Tasks: d.Tasks, ShuffledBytes: d.ShuffledBytes,
		PoolHits: d.PoolHits, PoolMisses: d.PoolMisses,
		SpilledBytes: d.SpilledBytes, MergePasses: d.MergePasses,
		BudgetWaits: d.BudgetWaits, Overcommits: d.MemoryOvercommits, MemoryPeak: now.MemoryPeak}
	for _, st := range d.PerStage {
		c.StageWallNs += int64(st.Wall)
	}
	return c
}

// RefGemm is the independent matmul reference: the local kernel on the
// dense inputs, no tiling, no engine.
func RefGemm(a, b []float64, n int) []float64 {
	c := linalg.NewDense(n, n)
	linalg.ParGemm(c, linalg.NewDenseFrom(n, n, a), linalg.NewDenseFrom(n, n, b))
	return c.Data
}

// ---- in-process cluster ---------------------------------------------

type ClusterConfig struct {
	Workers             int
	N, Tile, Partitions int64
	SeedA, SeedB        int64
}

// Cluster is a driver plus workers on loopback TCP inside this process.
type Cluster struct {
	d    *cluster.Driver
	ws   []*cluster.Worker
	cs   *jobs.ClusterSession
	base jobs.QueryParams
}

func StartCluster(c ClusterConfig) (*Cluster, error) {
	d, err := cluster.NewDriver(cluster.DriverConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		return nil, fmt.Errorf("driver: %w", err)
	}
	cl := &Cluster{d: d}
	for i := 0; i < c.Workers; i++ {
		w, err := cluster.StartWorker(cluster.WorkerConfig{ID: fmt.Sprintf("bench-w%d", i),
			DriverAddr: d.Addr(), DataAddr: "127.0.0.1:0", Parallelism: 1})
		if err != nil {
			cl.Close()
			return nil, fmt.Errorf("worker %d: %w", i, err)
		}
		cl.ws = append(cl.ws, w)
	}
	if err := d.WaitForWorkers(c.Workers, 30*time.Second); err != nil {
		cl.Close()
		return nil, err
	}
	cl.base = jobs.QueryParams{N: c.N, Tile: c.Tile, SeedA: c.SeedA, SeedB: c.SeedB, Partitions: c.Partitions}
	cl.cs = jobs.NewClusterSession(d, cl.base, 2*time.Minute)
	return cl, nil
}

func (c *Cluster) Close() {
	for _, w := range c.ws {
		w.Close()
	}
	c.d.Close()
}

// RunInfo is what one cluster job reported, summed over ranks.
type RunInfo struct {
	RankWallNs                                 []int64
	WireBytes, WireRawBytes, Chunks            int64
	PoolHits, PoolMisses, FetchRetries         int64
	ShuffledBytes, Stages, Tasks, SpilledBytes int64
	ResultBytes                                int64 // result blob x ranks that sent it
	Lost                                       int
}

// Query runs one query on the cluster; the blob is the canonical result
// every rank agreed on byte for byte.
func (c *Cluster) Query(src string) (blob []byte, info RunInfo, err error) {
	defer guard(&err)
	blob, run, err := c.cs.Query(src)
	if err != nil {
		return nil, info, err
	}
	info.Lost = run.LostWorkers
	for _, w := range run.Workers {
		r := w.Report
		info.RankWallNs = append(info.RankWallNs, r.WallNanos)
		info.WireBytes += r.WireFetchedBytes
		info.WireRawBytes += r.WireRawBytes
		info.Chunks += r.ChunksFetched
		info.PoolHits += r.ConnPoolHits
		info.PoolMisses += r.ConnPoolMisses
		info.FetchRetries += r.FetchRetries
		info.ShuffledBytes += r.ShuffledBytes
		info.Stages += r.Stages
		info.Tasks += r.Tasks
		info.SpilledBytes += r.SpilledBytes
		if w.OK {
			info.ResultBytes += int64(len(blob))
		}
	}
	return blob, info, nil
}

// Reference runs the same query program on the plain local backend.
func (c *Cluster) Reference(src string) ([]byte, error) {
	p := c.base
	p.Src = src
	return jobs.RunQueryLocal(p)
}

// ---- in-process query server ----------------------------------------

type ServerConfig struct {
	Sessions, Tile int
	N              int64
	SeedA, SeedB   int64
}

type Server struct {
	s      *server.Server
	URL    string
	ln     net.Listener
	served chan error
}

// StartServer builds the pool, registers A, B and n, and serves HTTP on
// a loopback port of the kernel's choosing.
func StartServer(c ServerConfig) (*Server, error) {
	s, err := server.New(server.Config{Sessions: c.Sessions, TileSize: c.Tile})
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*Server, error) { s.Close(); return nil, err }
	if err := s.RegisterRandMatrix("A", c.N, c.N, 0, 10, c.SeedA); err != nil {
		return fail(err)
	}
	if err := s.RegisterRandMatrix("B", c.N, c.N, 0, 10, c.SeedB); err != nil {
		return fail(err)
	}
	if err := s.RegisterScalar("n", c.N); err != nil {
		return fail(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	sv := &Server{s: s, URL: "http://" + ln.Addr().String(), ln: ln, served: make(chan error, 1)}
	go func() { sv.served <- s.Serve(ln) }()
	return sv, nil
}

// Close stops the listener, waits for Serve to return, and closes the
// pooled sessions.
func (s *Server) Close() error {
	err := s.s.Close()
	s.ln.Close() // Serve may not have taken the listener over yet; a second close is harmless
	<-s.served
	return err
}

// ServerStatus is the slice of server.StatusDoc the benchmark reads.
// The counters are process-wide, so callers take differences.
type ServerStatus struct {
	Hits, AliasHits, Misses, Admitted, Rejected int64
}

func (s *Server) Status() ServerStatus {
	d := s.s.Status()
	return ServerStatus{Hits: d.PlanCache.Hits, AliasHits: d.PlanCache.AliasHits, Misses: d.PlanCache.Misses,
		Admitted: d.Admission.Admitted, Rejected: d.Admission.Rejected}
}

// Summary is a result as the server's JSON describes it.
type Summary struct {
	Kind       string
	Rows, Cols int64 // matrix
	Size       int64 // vector
	Sum        float64
	Text       string // scalar
}

// Summarize describes a direct session's answer the way /query does:
// shape plus the sum of the dense values in row-major order.
func (a Answer) Summarize() Summary {
	switch a.Kind {
	case "matrix":
		return Summary{Kind: a.Kind, Rows: a.Rows, Cols: a.Cols, Sum: a.res.Matrix.ToDense().Sum()}
	case "vector":
		return Summary{Kind: a.Kind, Size: a.Rows, Sum: a.res.Vector.ToDense().Sum()}
	default:
		return Summary{Kind: a.Kind, Text: a.Text}
	}
}

// ---- layer micro-benchmarks -----------------------------------------
//
// Each prepXxx builds its state once and returns one iteration to time,
// plus a clean-up. layers.go owns repetition, timing and units.

type microFn struct {
	iter func()
	done func()
}

func noop() {}

// times makes one iteration of n calls, for functions too short to time
// one call at a time.
func (f microFn) times(n int) microFn {
	return microFn{func() {
		for i := 0; i < n; i++ {
			f.iter()
		}
	}, f.done}
}

// prepCompile returns iterations for the front-end stages over srcs, all
// against a catalog holding tiny A, B and n (compilation does not touch
// the data). Stage is parse, desugar, choose, compile or key.
func prepCompile(stage string, srcs []string) microFn {
	const n = 64
	ctx := dataflow.NewContext(dataflow.Config{DefaultPartitions: 4})
	cat := plan.NewCatalog(ctx)
	cat.BindMatrix("A", tiled.RandMatrix(ctx, n, n, 16, 0, 0, 10, 1))
	cat.BindMatrix("B", tiled.RandMatrix(ctx, n, n, 16, 0, 0, 10, 2))
	cat.BindScalar("n", int64(n))
	parsed := make([]comp.Expr, len(srcs))
	for i, s := range srcs {
		parsed[i] = sacparser.MustParse(s)
	}
	// opt is entered only for array builders; a total reduction goes
	// straight to the coordinate pipeline.
	var bodies []comp.Comprehension
	for _, e := range parsed {
		if b, ok := comp.Desugar(e).(comp.BuildExpr); ok {
			body := comp.FoldConstants(comp.SubstConsts(b.Body, map[string]comp.Value{"n": int64(n)}))
			bodies = append(bodies, body.(comp.Comprehension))
		}
	}
	dimOf := func(string, int) (int64, bool) { return n, true }
	var iter func()
	switch stage {
	case "parse":
		iter = func() {
			for _, s := range srcs {
				if _, err := sacparser.Parse(s); err != nil {
					panic(err)
				}
			}
		}
	case "desugar":
		iter = func() {
			for _, e := range parsed {
				comp.Desugar(e)
			}
		}
	case "choose":
		iter = func() {
			for _, b := range bodies {
				info, err := opt.Extract(b)
				if err != nil {
					panic(err)
				}
				info.FuseRanges(dimOf)
				if _, err := opt.ChooseWithStats(info, opt.Options{}, cat); err != nil {
					panic(err)
				}
			}
		}
	case "compile":
		iter = func() {
			for _, e := range parsed {
				if _, err := plan.Compile(e, cat, opt.Options{}); err != nil {
					panic(err)
				}
			}
		}
	case "key":
		iter = func() {
			for _, s := range srcs {
				if _, err := server.CanonicalKey(s); err != nil {
					panic(err)
				}
			}
		}
	}
	return microFn{iter, func() { ctx.Close() }}
}

// prepGemm times c = a*b on one thread for n x n operands.
func prepGemm(n int) microFn {
	a, b, c := linalg.RandDense(n, n, 0, 10, 1), linalg.RandDense(n, n, 0, 10, 2), linalg.NewDense(n, n)
	return microFn{func() { c.Zero(); linalg.Gemm(c, a, b) }, noop}
}

// prepAdd times a += b over n x n tiles.
func prepAdd(n int) microFn {
	a, b := linalg.RandDense(n, n, 0, 10, 1), linalg.RandDense(n, n, 0, 10, 2)
	return microFn{func() { linalg.AddInPlace(a, b) }, noop}
}

// prepTiled times one tiled operator, forced, on persisted n x n inputs
// in the local workloads' session shape. Op is gbj, add, rowsums,
// transpose or mllib.
func prepTiled(op string, n int64, tile, parts int) microFn {
	ctx := dataflow.NewContext(dataflow.Config{DefaultPartitions: parts})
	count := func(m *tiled.Matrix) { dataflow.Count(m.Tiles) }
	var iter func()
	if op == "mllib" {
		a := mllib.RandBlockMatrix(ctx, n, n, tile, parts, 0, 10, 1)
		b := mllib.RandBlockMatrix(ctx, n, n, tile, parts, 0, 10, 2)
		a.Blocks.Persist()
		b.Blocks.Persist()
		dataflow.Count(a.Blocks)
		dataflow.Count(b.Blocks)
		iter = func() { dataflow.Count(a.Multiply(b).Blocks) }
	} else {
		a := tiled.RandMatrix(ctx, n, n, tile, parts, 0, 10, 1).Persist()
		b := tiled.RandMatrix(ctx, n, n, tile, parts, 0, 10, 2).Persist()
		count(a)
		count(b)
		switch op {
		case "gbj":
			iter = func() { count(a.MultiplyGBJ(b)) }
		case "add":
			iter = func() { count(a.Add(b)) }
		case "transpose":
			iter = func() { count(a.Transpose()) }
		case "rowsums":
			iter = func() { dataflow.Count(a.RowSums().Blocks) }
		}
	}
	return microFn{iter, func() { ctx.Close() }}
}

type intPair = dataflow.Pair[int64, int64]

// prepDataflow times one wide operator over rows (key, value) int pairs
// in parts partitions. Op is reduce, join or repartition.
func prepDataflow(op string, rows, parts int) microFn {
	ctx := dataflow.NewContext(dataflow.Config{DefaultPartitions: parts})
	gen := func(rows int, keys int64) *dataflow.Dataset[intPair] {
		per := rows / parts
		d := dataflow.Generate(ctx, parts, func(p int) []intPair {
			out := make([]intPair, per)
			for i := range out {
				g := int64(p*per + i)
				out[i] = dataflow.KV(g*2654435761%keys, g)
			}
			return out
		}).Persist()
		dataflow.Count(d)
		return d
	}
	var iter func()
	switch op {
	case "reduce":
		d := gen(rows, 1<<16)
		iter = func() { dataflow.Count(dataflow.ReduceByKey(d, func(a, b int64) int64 { return a + b }, parts)) }
	case "join":
		// Unique keys on both sides: rows/2 in, rows/2 matched out.
		l, r := gen(rows/2, math.MaxInt64), gen(rows/2, math.MaxInt64)
		iter = func() { dataflow.Count(dataflow.Join(l, r, parts)) }
	case "repartition":
		d := gen(rows, math.MaxInt64)
		iter = func() { dataflow.Count(dataflow.Repartition(d, parts)) }
	}
	return microFn{iter, func() { ctx.Close() }}
}

// prepNarrowChain returns one run of a fused sparsify-filter-map chain
// and reports, through allocs, the heap allocations each run made.
func prepNarrowChain(allocs *[]float64) microFn {
	ctx := dataflow.NewContext(dataflow.Config{DefaultPartitions: 8})
	x := tiled.RandMatrix(ctx, 400, 400, 50, 8, 0, 10, 1).Persist()
	dataflow.Count(x.Tiles)
	var before, after runtime.MemStats
	iter := func() {
		runtime.ReadMemStats(&before)
		f := dataflow.Filter(x.Sparsify(), func(e tiled.Entry) bool { return e.V > 5 })
		dataflow.Count(dataflow.Map(f, func(e tiled.Entry) float64 { return e.V }))
		runtime.ReadMemStats(&after)
		*allocs = append(*allocs, float64(after.Mallocs-before.Mallocs))
	}
	return microFn{iter, func() { ctx.Close() }}
}

type keyedTile = dataflow.Pair[int64, tiled.Block]

// wireChunk is the size the cluster exchange cuts buckets into before
// compressing each piece.
const wireChunk = 256 << 10

// keyedTiles builds the rows of a group-by-join shuffle bucket: tiles of
// uniform values in [0,10), keyed by the join's k. Every fourth tile
// repeats its predecessor, as the replication of the group-by-join puts
// one tile into a bucket once per grid cell it serves; that repetition
// is all the block compressor finds in random payloads.
func keyedTiles(count, n int) []keyedTile {
	rows := make([]keyedTile, count)
	for i := range rows {
		tile := linalg.RandDense(n, n, 0, 10, int64(i+1))
		if i%4 == 3 {
			tile = rows[i-1].Value.Value
		}
		rows[i] = dataflow.KV(int64(i%10), dataflow.KV(tiled.Coord{I: int64(i / 10), J: int64(i % 10)}, tile))
	}
	return rows
}

// tileBlob is count keyed n x n tiles in the shuffle's wire and spill
// encoding.
func tileBlob(count, n int) []byte {
	blob, err := spill.EncodeRows(keyedTiles(count, n), spill.For[keyedTile]())
	if err != nil {
		panic(err)
	}
	return blob
}

// prepCodec times the spill codec layer on count keyed n x n tiles (k of
// the join, tile coordinates, values). Op is encode, decode, compress or
// decompress, the last two in chunks of wireChunk bytes as the exchange
// calls them; bytes is the raw size processed per iteration and ratio
// the raw/compressed size.
func prepCodec(op string, count, n int) (fn microFn, bytes int, ratio float64) {
	rows := keyedTiles(count, n)
	codec := spill.For[keyedTile]()
	blob, err := spill.EncodeRows(rows, codec)
	if err != nil {
		panic(err)
	}
	chunks := func(visit func(raw []byte)) {
		for off := 0; off < len(blob); off += wireChunk {
			visit(blob[off:min(off+wireChunk, len(blob))])
		}
	}
	var packed [][]byte
	var rawLens []int
	packedLen := 0
	chunks(func(raw []byte) {
		p := spill.CompressBlock(raw)
		packed, rawLens, packedLen = append(packed, p), append(rawLens, len(raw)), packedLen+len(p)
	})
	var iter func()
	switch op {
	case "encode":
		iter = func() {
			if _, err := spill.EncodeRows(rows, codec); err != nil {
				panic(err)
			}
		}
	case "decode":
		iter = func() {
			if _, err := spill.DecodeRows(blob, codec); err != nil {
				panic(err)
			}
		}
	case "compress":
		iter = func() { chunks(func(raw []byte) { spill.CompressBlock(raw) }) }
	case "decompress":
		iter = func() {
			for i, p := range packed {
				if _, err := spill.DecompressBlock(p, rawLens[i]); err != nil {
					panic(err)
				}
			}
		}
	}
	return microFn{iter, noop}, len(blob), float64(len(blob)) / float64(packedLen)
}

// prepRuns times the run-file backend in dir on count keyed n x n
// tiles. Op is write (sort + write one run, then remove it) or merge
// (k-way merge of four runs written beforehand).
func prepRuns(op, dir string, count, n int) (fn microFn, bytes int) {
	codec := spill.For[keyedTile]()
	ord := func(t keyedTile) uint64 { return uint64(t.Key)*31 + uint64(t.Value.Key.I) }
	rows := keyedTiles(count, n)
	bytes = count * n * n * 8
	if op == "write" {
		scratch := make([]keyedTile, len(rows))
		return microFn{func() {
			copy(scratch, rows)
			run, err := spill.WriteRun(dir, scratch, ord, codec)
			if err != nil {
				panic(err)
			}
			run.Remove()
		}, noop}, bytes
	}
	var runs []spill.Run[keyedTile]
	for k := 0; k < 4; k++ {
		part := append([]keyedTile(nil), rows[k*count/4:(k+1)*count/4]...)
		run, err := spill.WriteRun(dir, part, ord, codec)
		if err != nil {
			panic(err)
		}
		runs = append(runs, run)
	}
	return microFn{func() {
		if err := spill.Merge(runs, nil, ord, codec, func(keyedTile) {}); err != nil {
			panic(err)
		}
	}, func() { spill.RemoveAll(runs) }}, bytes
}

// prepMemory times batch reserve/release pairs on a budgeted manager
// that never has to wait.
func prepMemory(batch int) microFn {
	m := memory.New(1 << 30)
	return microFn{func() {
		for i := 0; i < batch; i++ {
			m.Reserve(4096)
			m.Release(4096)
		}
	}, noop}
}

// prepSpan times batch start/end pairs of the program's own tracer.
func prepSpan(batch int) microFn {
	return microFn{func() {
		tr := trace.New()
		root := tr.Start(nil, "root")
		for i := 0; i < batch; i++ {
			tr.Start(root, "leaf").End()
		}
		root.End()
	}, noop}
}

// prepCounter times batch adds on one registry counter.
func prepCounter(batch int) microFn {
	c := obs.NewRegistry().Counter("bench_counter_total", "benchmark counter")
	return microFn{func() {
		for i := 0; i < batch; i++ {
			c.Add(1)
		}
	}, noop}
}

const (
	progNoop     = "bench.noop"
	progExchange = "bench.exchange"
)

var exchangeBlob struct {
	once sync.Once
	b    []byte
}

func init() {
	cluster.RegisterProgram(progNoop, func(*cluster.JobEnv) ([]byte, cluster.Report, error) {
		return []byte{1}, cluster.Report{}, nil
	})
	// Every rank publishes the prepared blob and streams its neighbour's.
	cluster.RegisterProgram(progExchange, func(env *cluster.JobEnv) ([]byte, cluster.Report, error) {
		key := func(rank int) string { return fmt.Sprintf("bench-%d", rank) }
		if err := env.Exchange.Publish(key(env.Rank), exchangeBlob.b); err != nil {
			return nil, cluster.Report{}, err
		}
		peer := (env.Rank + 1) % env.World
		rc, err := env.Exchange.FetchReader(peer, key(peer))
		if err != nil {
			return nil, cluster.Report{}, err
		}
		defer rc.Close()
		got, err := io.Copy(io.Discard, rc)
		if err != nil {
			return nil, cluster.Report{}, err
		}
		return []byte(fmt.Sprint(got)), cluster.Report{}, nil
	})
}

// prepCluster times one Driver.Run on a two-worker loopback cluster. Op
// is dispatch (a program that does nothing) or exchange (each rank
// publishes tiles x tile encoded tiles and fetches its peer's); bytes
// is the raw volume one exchange moves.
func prepCluster(op string, tiles, tile int) (fn microFn, bytes int, err error) {
	cl, err := StartCluster(ClusterConfig{Workers: 2, N: 64, Tile: 16})
	if err != nil {
		return microFn{}, 0, err
	}
	prog := progNoop
	if op == "exchange" {
		prog = progExchange
		exchangeBlob.once.Do(func() { exchangeBlob.b = tileBlob(tiles, tile) })
		bytes = 2 * len(exchangeBlob.b)
	}
	return microFn{func() {
		if _, err := cl.d.Run(prog, nil, time.Minute); err != nil {
			panic(err)
		}
	}, cl.Close}, bytes, nil
}

// prepEncodeResult times the canonical result encoding of an n x n
// matrix result, as every rank does before replying.
func prepEncodeResult(n int64, tile int) (fn microFn, bytes int) {
	ctx := dataflow.NewContext(dataflow.Config{DefaultPartitions: 8})
	m := tiled.RandMatrix(ctx, n, n, tile, 8, 0, 10, 1).Persist()
	dataflow.Count(m.Tiles)
	res := &plan.Result{Matrix: m}
	return microFn{func() {
		if _, err := jobs.EncodeResult(res); err != nil {
			panic(err)
		}
	}, func() { ctx.Close() }}, int(n * n * 8)
}

// prepRunQueryLocal times one rank's whole fixed cost for src: session
// build, input generation, compile, execute, result encoding.
func prepRunQueryLocal(src string, n, tile, parts int64) microFn {
	p := jobs.QueryParams{Src: src, N: n, Tile: tile, SeedA: 1, SeedB: 2, Partitions: parts}
	return microFn{func() {
		if _, err := jobs.RunQueryLocal(p); err != nil {
			panic(err)
		}
	}, noop}
}
