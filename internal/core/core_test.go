package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/comp"
	"repro/internal/linalg"
	"repro/internal/opt"
	"repro/internal/tiled"
)

func TestSessionQuickstart(t *testing.T) {
	s := NewSession(Config{TileSize: 4})
	d := linalg.RandDense(10, 10, 0, 10, 1)
	s.RegisterDense("M", d)
	v, err := s.QueryVector("tiledvec(10)[ (i, +/m) | ((i,j),m) <- M, group by i ]")
	if err != nil {
		t.Fatal(err)
	}
	if !v.ToDense().EqualApprox(d.RowSums(), 1e-9) {
		t.Fatal("row sums mismatch")
	}
}

func TestSessionMatMulAndExplain(t *testing.T) {
	s := NewSession(Config{TileSize: 3})
	da := linalg.RandDense(6, 6, 0, 2, 2)
	db := linalg.RandDense(6, 6, 0, 2, 3)
	s.RegisterDense("A", da)
	s.RegisterDense("B", db)
	src := `tiled(6,6)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B,
	          kk == k, let v = a*b, group by (i,j) ]`
	ex, err := s.Explain(src)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex, "SUMMA") {
		t.Fatalf("expected SUMMA plan: %s", ex)
	}
	m, err := s.QueryMatrix(src)
	if err != nil {
		t.Fatal(err)
	}
	if !m.ToDense().EqualApprox(linalg.Mul(da, db), 1e-9) {
		t.Fatal("matmul mismatch")
	}
}

func TestSessionAblationOptions(t *testing.T) {
	s := NewSession(Config{TileSize: 3, Optimizations: opt.Options{DisableGBJ: true}})
	s.RegisterRandMatrix("A", 6, 6, 0, 1, 4)
	s.RegisterRandMatrix("B", 6, 6, 0, 1, 5)
	ex, err := s.Explain(`tiled(6,6)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B,
	          kk == k, let v = a*b, group by (i,j) ]`)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(ex, "SUMMA") {
		t.Fatalf("GBJ should be disabled: %s", ex)
	}
}

func TestSessionScalarQuery(t *testing.T) {
	s := NewSession(Config{TileSize: 4})
	d := linalg.RandDense(8, 8, 0, 1, 6)
	s.RegisterDense("M", d)
	res, err := s.Query("+/[ m | ((i,j),m) <- M ]")
	if err != nil {
		t.Fatal(err)
	}
	got := res.Scalar
	if diff := comp.MustFloat(got) - d.Sum(); diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("sum %v vs %v", got, d.Sum())
	}
}

func TestSessionScalarBindings(t *testing.T) {
	s := NewSession(Config{TileSize: 4})
	d := linalg.RandDense(8, 6, 0, 1, 7)
	s.RegisterDense("M", d)
	s.RegisterScalar("n", int64(8))
	s.RegisterScalar("m", int64(6))
	mt, err := s.QueryMatrix("tiled(m, n)[ ((j,i), v) | ((i,j),v) <- M ]")
	if err != nil {
		t.Fatal(err)
	}
	if !mt.ToDense().Equal(d.Transpose()) {
		t.Fatal("transpose with scalar dims mismatch")
	}
}

func TestSessionWrongKind(t *testing.T) {
	s := NewSession(Config{TileSize: 4})
	s.RegisterRandMatrix("M", 8, 8, 0, 1, 8)
	if _, err := s.QueryVector("tiled(8,8)[ ((i,j), m) | ((i,j),m) <- M ]"); err == nil {
		t.Fatal("expected kind mismatch error")
	}
	if _, err := s.QueryMatrix("tiledvec(8)[ (i, +/m) | ((i,j),m) <- M, group by i ]"); err == nil {
		t.Fatal("expected kind mismatch error")
	}
}

func TestSessionParseError(t *testing.T) {
	s := NewSession(Config{})
	if _, err := s.Query("tiled(2,2)[ broken"); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestSessionMetrics(t *testing.T) {
	s := NewSession(Config{TileSize: 4})
	s.RegisterRandMatrix("A", 8, 8, 0, 1, 10)
	s.RegisterRandMatrix("B", 8, 8, 0, 1, 11)
	s.Engine().ResetMetrics()
	m, err := s.QueryMatrix("tiled(8,8)[ ((i,j), a+b) | ((i,j),a) <- A, ((ii,jj),b) <- B, ii == i, jj == j ]")
	if err != nil {
		t.Fatal(err)
	}
	m.ToDense() // results are lazy; force the computation
	if s.Metrics().Shuffles == 0 {
		t.Fatal("no shuffle recorded for the addition join")
	}
}

// TestQueryCostIsThisQuerys: metering a Query reads the stages it ran,
// not a copy of the session's whole stage log, so the bytes one Query
// allocates after 2,000 queries are within 2x of what it allocated after
// 10. Bytes, not time, so the check reads no clock.
func TestQueryCostIsThisQuerys(t *testing.T) {
	s := NewSession(Config{TileSize: 16})
	defer s.Close()
	s.RegisterRandMatrix("A", 64, 64, 0, 10, 1).Persist()
	const src = "+/[ a | ((i,j),a) <- A ]"
	run := func(n int) {
		for range n {
			if _, err := s.Query(src); err != nil {
				t.Fatal(err)
			}
		}
	}
	// perQuery is the mean bytes allocated by the next n queries.
	perQuery := func(n int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run(n)
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / uint64(n)
	}
	const sample = 20
	run(10)
	early := perQuery(sample)
	run(2000 - 10 - sample)
	late := perQuery(sample)
	if late > 2*early {
		t.Fatalf("a query allocates %d bytes after 2,000 queries, %d after 10", late, early)
	}
}

// TestSessionCostExplain: Explain must show the cost-model decision —
// chosen strategy, estimated bytes, the rejected alternatives, and (on
// a plain static session) the processor grid the join runs on.
func TestSessionCostExplain(t *testing.T) {
	s := NewSession(Config{TileSize: 3})
	s.RegisterRandMatrix("A", 6, 6, 0, 2, 2)
	s.RegisterRandMatrix("B", 6, 6, 0, 2, 3)
	ex, err := s.Explain(`tiled(6,6)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B,
	          kk == k, let v = a*b, group by (i,j) ]`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"[cost: summa-gbj", "shuffle", "rejected:", "grid 2x2"} {
		if !strings.Contains(ex, want) {
			t.Fatalf("Explain missing %q:\n%s", want, ex)
		}
	}
}

// TestSessionStatsFeedback: a plan that ran carries its run in Explain;
// a cold plan claims nothing.
func TestSessionStatsFeedback(t *testing.T) {
	s := NewSession(Config{TileSize: 3})
	s.RegisterDense("A", linalg.RandDense(6, 6, 0, 2, 2))
	s.RegisterDense("B", linalg.RandDense(6, 6, 0, 2, 3))
	q, err := s.Compile(planObsMatmul)
	if err != nil {
		t.Fatal(err)
	}
	if ex := q.Explain(); strings.Contains(ex, "observed") {
		t.Fatalf("cold plan claims observed stats:\n%s", ex)
	}
	if _, err := s.Run(q, planObsMatmul, false); err != nil {
		t.Fatal(err)
	}
	if ex := q.Explain(); !strings.Contains(ex, "observed 1 run(s)") {
		t.Fatalf("plan that ran is missing its measured stats:\n%s", ex)
	}
}

const planObsMatmul = `tiled(6,6)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B,
	kk == k, let v = a*b, group by (i,j) ]`

// TestPlanKeepsItsObservation: a plan's run profile is its own. Two runs
// of one Compiled explain as two, while another goroutine explains it
// (the -race build checks the hand-off); a fresh Compile of the same
// source has no stats clause; and a coordinate plan, which has no cost
// decision to estimate from, is admitted on exactly what its run moved.
func TestPlanKeepsItsObservation(t *testing.T) {
	s := NewSession(Config{TileSize: 3})
	defer s.Close()
	s.RegisterRandMatrix("A", 6, 6, 0, 2, 2)
	s.RegisterRandMatrix("B", 6, 6, 0, 2, 3)
	q, err := s.Compile(planObsMatmul)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = q.Explain()
			_ = q.EstimateFootprintBytes()
		}
	}()
	for r := 0; r < 2; r++ {
		if _, err := s.Run(q, planObsMatmul, false); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	if ex := q.Explain(); !strings.Contains(ex, "; stats: observed 2 run(s)") {
		t.Fatalf("plan run twice does not explain two runs:\n%s", ex)
	}
	if ex, err := s.Explain(planObsMatmul); err != nil || strings.Contains(ex, "stats:") {
		t.Fatalf("fresh plan carries a stats clause (err %v):\n%s", err, ex)
	}

	src := "rdd[ (i, avg/a) | ((i,j),a) <- A, group by i ]"
	c, err := s.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if c.Decision() != nil {
		t.Fatalf("coordinate plan has a cost decision: %s", c.Explain())
	}
	before := c.EstimateFootprintBytes()
	out, err := s.Run(c, src, false)
	if err != nil {
		t.Fatal(err)
	}
	if out.Metrics.ShuffledBytes == 0 {
		t.Fatal("the grouped coordinate query shuffled nothing")
	}
	if after := c.EstimateFootprintBytes(); after-before != out.Metrics.ShuffledBytes {
		t.Fatalf("footprint rose by %d after the run, want its %d shuffled bytes", after-before, out.Metrics.ShuffledBytes)
	}
}

func TestEvalLocal(t *testing.T) {
	d := linalg.NewDenseFrom(2, 2, []float64{1, 2, 3, 4})
	got, err := EvalLocal("vector(2)[ (i, +/m) | ((i,j),m) <- M, group by i ]",
		map[string]comp.Value{"M": comp.MatrixStorage{M: d}})
	if err != nil {
		t.Fatal(err)
	}
	vs := got.(comp.VectorStorage)
	if !vs.V.Equal(linalg.NewVectorFrom([]float64{3, 7})) {
		t.Fatalf("local row sums %v", vs.V.Data)
	}
}

func TestSessionRegisterTiledDirect(t *testing.T) {
	s := NewSession(Config{TileSize: 3})
	m := tiled.RandMatrix(s.Engine(), 6, 6, 3, 0, 0, 1, 14)
	s.RegisterMatrix("X", m)
	v := tiled.VectorFromDense(s.Engine(), linalg.RandVector(6, 0, 1, 15), 3, 0)
	s.cat.BindVector("V", v)
	got, err := s.QueryVector("tiledvec(6)[ (i, x*2.0) | (i,x) <- V ]")
	if err != nil {
		t.Fatal(err)
	}
	if !got.ToDense().EqualApprox(v.ToDense().ScaleInPlace(2), 1e-12) {
		t.Fatal("vector scale mismatch")
	}
}

// RunLoops: the DIABLO entry point on the session, end to end.
func TestSessionRunLoops(t *testing.T) {
	s := NewSession(Config{TileSize: 3})
	d := linalg.RandDense(6, 6, 0, 5, 21)
	s.RegisterDense("M", d)
	s.RegisterScalar("n", int64(6))
	plans, err := s.RunLoops(`
var V: vector[n];
for i = 0, n-1 do
    for j = 0, n-1 do
        V[i] += M[i, j];
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 1 || !strings.Contains(plans[0], "V <-") {
		t.Fatalf("plans %v", plans)
	}
	// The loop result is bound in the catalog for follow-up queries.
	res, err := s.Query("+/[ v | (i,v) <- V ]")
	if err != nil {
		t.Fatal(err)
	}
	got := res.Scalar
	if diff := comp.MustFloat(got) - d.Sum(); diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("total %v vs %v", got, d.Sum())
	}
}

// Explain for coordinate plans reports the derived pipeline.
func TestSessionExplainCoordinateDetail(t *testing.T) {
	s := NewSession(Config{TileSize: 3})
	s.RegisterRandMatrix("A", 6, 6, 0, 5, 22)
	s.RegisterScalar("n", int64(6))
	ex, err := s.Explain(`rdd[ (i, avg/a) | ((i,j),a) <- A, group by i ]`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex, "generator") || !strings.Contains(ex, "reduceByKey") {
		t.Fatalf("coordinate detail missing: %s", ex)
	}
}

// kernelErrorCases are queries wrong in a way only planning their
// strategy finds (ROADMAP 7e) — lowering a head, guard or let to a tile
// kernel, or building the coordinate plan: they used to pass Compile (and
// Explain a plan that could not run) and fail or panic inside Execute or
// a task. Each has a valid neighbour. The server runs the same cases
// through its plan-cache miss path.
var kernelErrorCases = []struct{ name, bad, wantErr, good string }{
	{"unbound variable",
		"tiled(n,n)[ ((i,j), a*zz) | ((i,j),a) <- A ]", `unbound variable "zz"`,
		"tiled(n,n)[ ((i,j), a*2.0) | ((i,j),a) <- A ]"},
	{"bool head",
		"tiled(n,n)[ ((i,j), a > 1.0) | ((i,j),a) <- A ]", "expected float, got bool",
		"tiled(n,n)[ ((i,j), if(a > 1.0, 1.0, 0.0)) | ((i,j),a) <- A ]"},
	{"tuple let",
		"tiled(n,n)[ ((i,j), x) | ((i,j),a) <- A, let (x,y) = a ]", "cannot inline tuple let",
		"tiled(n,n)[ ((i,j), x+y) | ((i,j),a) <- A, let (x,y) = (a, 2.0) ]"},
	{"coordinate: cartesian product",
		"+/[ a*b | ((i,j),a) <- A, ((ii,jj),b) <- A ]", "no equi-join condition linking A",
		"+/[ a*b | ((i,j),a) <- A, ((ii,jj),b) <- A, ii == j, jj == i ]"},
	{"coordinate: unbound variable",
		"rdd[ (i, avg/a + zz) | ((i,j),a) <- A, group by i ]", `unbound variable "zz"`,
		"rdd[ (i, avg/a + n) | ((i,j),a) <- A, group by i ]"},
	{"coordinate: unknown array",
		"tiledvec(n)[ (i, avg/a) | ((i,j),a) <- A, ((ii,jj),c) <- C, ii == i, jj == j, group by i ]", `unbound variable "C"`,
		"tiledvec(n)[ (i, avg/a) | ((i,j),a) <- A, ((ii,jj),c) <- A, ii == i, jj == j, group by i ]"},
	{"coordinate: vector key of two components",
		"tiledvec(n)[ ((i,0), avg/a) | ((i,j),a) <- A, group by i ]", "tiledvec key must have 1 component",
		"tiledvec(n)[ (i, avg/a) | ((i,j),a) <- A, group by i ]"},
	{"coordinate: no registered array to take a tile size from",
		"rdd[ (i, x) | let l = [ (k, 1.0) | k <- 0 until 3 ], (i,x) <- l ]", "cannot infer tile size",
		"rdd[ (i, x) | ((i,j),x) <- A, j == 0 ]"},
}

func TestKernelErrorsSurfaceAtCompile(t *testing.T) {
	s := NewSession(Config{TileSize: 4})
	defer s.Close()
	s.RegisterRandMatrix("A", 6, 6, 0, 5, 1)
	s.RegisterScalar("n", int64(6))
	for _, c := range kernelErrorCases {
		if _, err := s.Compile(c.bad); err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: Compile error %v, want one naming %q", c.name, err, c.wantErr)
		}
		if _, err := s.Query(c.bad); err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: Query error %v, want one naming %q", c.name, err, c.wantErr)
		}
		if _, err := s.Explain(c.bad); err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: Explain error %v, want one naming %q", c.name, err, c.wantErr)
		}
		res, err := s.Query(c.good)
		if err != nil {
			t.Errorf("%s: valid neighbour: %v", c.name, err)
			continue
		}
		// The first action: where the bad tile queries used to panic.
		switch {
		case res.Matrix != nil:
			res.Matrix.ToDense()
		case res.Vector != nil:
			res.Vector.ToDense()
		}
	}
	// Data-dependent failures stay run-time errors with comp's message.
	m, err := s.QueryMatrix("tiled(n,n)[ ((i,j), i / j) | ((i,j),a) <- A ]")
	if err != nil {
		t.Fatalf("integer division compiles: %v", err)
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "comp: integer division by zero") {
			t.Fatalf("forcing i / j raised %v", r)
		}
	}()
	m.ToDense()
}
