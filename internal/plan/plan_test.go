package plan

import (
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/comp"
	"repro/internal/dataflow"
	"repro/internal/linalg"
	"repro/internal/opt"
	"repro/internal/sacparser"
	"repro/internal/tiled"
)

// fixture builds a catalog with two random matrices A (rows x k) and
// B (k x cols) plus their dense copies.
type fixture struct {
	ctx    *dataflow.Context
	cat    *Catalog
	da, db *linalg.Dense
}

func newFixture(t *testing.T, rowsA, colsA, rowsB, colsB, tileN int) *fixture {
	t.Helper()
	ctx := dataflow.NewLocalContext()
	da := linalg.RandDense(rowsA, colsA, 0, 5, int64(rowsA*100+colsA))
	db := linalg.RandDense(rowsB, colsB, 0, 5, int64(rowsB*100+colsB+7))
	cat := NewCatalog(ctx).
		BindMatrix("A", tiled.FromDense(ctx, da, tileN, 3)).
		BindMatrix("B", tiled.FromDense(ctx, db, tileN, 3)).
		BindScalar("n", int64(rowsA)).
		BindScalar("m", int64(colsA))
	return &fixture{ctx: ctx, cat: cat, da: da, db: db}
}

func runQuery(t *testing.T, f *fixture, src string, opts opt.Options) (*Result, *Compiled) {
	t.Helper()
	q, err := Compile(sacparser.MustParse(src), f.cat, opts)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	res, err := q.Execute()
	if err != nil {
		t.Fatalf("execute %q: %v", src, err)
	}
	return res, q
}

func wantStrategy(t *testing.T, q *Compiled, kind string) {
	t.Helper()
	if got := q.strategy.Kind(); got != kind {
		t.Fatalf("strategy %q, want %q\nexplain: %s", got, kind, q.Explain())
	}
}

func TestPlanElementwiseMap(t *testing.T) {
	f := newFixture(t, 6, 5, 1, 1, 2)
	res, q := runQuery(t, f, "tiled(n, m)[ ((i,j), a * 2.0) | ((i,j),a) <- A ]", opt.Options{})
	wantStrategy(t, q, "tile-map")
	if !res.Matrix.ToDense().EqualApprox(linalg.Scale(f.da, 2), 1e-12) {
		t.Fatal("scale mismatch")
	}
}

func TestPlanTransposeViaKeyPermutation(t *testing.T) {
	f := newFixture(t, 6, 4, 1, 1, 3)
	res, q := runQuery(t, f, "tiled(m, n)[ ((j,i), a) | ((i,j),a) <- A ]", opt.Options{})
	wantStrategy(t, q, "tile-map")
	if !res.Matrix.ToDense().Equal(f.da.Transpose()) {
		t.Fatal("transpose mismatch")
	}
	if res.Matrix.Rows != 4 || res.Matrix.Cols != 6 {
		t.Fatalf("dims %dx%d", res.Matrix.Rows, res.Matrix.Cols)
	}
}

func TestPlanMatrixAddition(t *testing.T) {
	f := newFixture(t, 6, 6, 6, 6, 2)
	src := "tiled(6,6)[ ((i,j), a+b) | ((i,j),a) <- A, ((ii,jj),b) <- B, ii == i, jj == j ]"
	res, q := runQuery(t, f, src, opt.Options{})
	wantStrategy(t, q, "tile-zip")
	if !res.Matrix.ToDense().EqualApprox(linalg.AddDense(f.da, f.db), 1e-12) {
		t.Fatal("addition mismatch")
	}
	if !strings.Contains(q.Explain(), "Rule 17") {
		t.Fatalf("explain should cite Rule 17: %s", q.Explain())
	}
}

// The paper's Query (9): matrix multiplication compiles to the SUMMA
// group-by-join by default and to join+reduceByKey when GBJ is off.
func TestPlanMatrixMultiplication(t *testing.T) {
	f := newFixture(t, 6, 4, 4, 5, 2)
	src := `tiled(6,5)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B,
	          kk == k, let v = a*b, group by (i,j) ]`
	want := linalg.Mul(f.da, f.db)

	res, q := runQuery(t, f, src, opt.Options{})
	wantStrategy(t, q, "group-by-join")
	if !res.Matrix.ToDense().EqualApprox(want, 1e-9) {
		t.Fatal("GBJ multiply mismatch")
	}

	res2, q2 := runQuery(t, f, src, opt.Options{DisableGBJ: true})
	wantStrategy(t, q2, "join-reduce")
	if !res2.Matrix.ToDense().EqualApprox(want, 1e-9) {
		t.Fatal("join-reduce multiply mismatch")
	}

	res3, q3 := runQuery(t, f, src, opt.Options{DisableGBJ: true, DisableReduceByKey: true})
	if !strings.Contains(q3.Explain(), "groupByKey") {
		t.Fatalf("explain should mention groupByKey: %s", q3.Explain())
	}
	if !res3.Matrix.ToDense().EqualApprox(want, 1e-9) {
		t.Fatal("groupByKey multiply mismatch")
	}
}

// Reversed generator order (B before A) still compiles to a GBJ with
// the right orientation.
func TestPlanMultiplicationReversedOrientation(t *testing.T) {
	f := newFixture(t, 6, 4, 4, 5, 2)
	// Swap roles: generate B first; output key is (i from A, j from B).
	src := `tiled(6,5)[ ((i,j), +/v) | ((kk,j),b) <- B, ((i,k),a) <- A,
	          kk == k, let v = a*b, group by (i,j) ]`
	res, q := runQuery(t, f, src, opt.Options{})
	wantStrategy(t, q, "group-by-join")
	if !res.Matrix.ToDense().EqualApprox(linalg.Mul(f.da, f.db), 1e-9) {
		t.Fatal("reversed orientation mismatch")
	}
}

// A^T * A via index positions: join on the row index of both sides.
func TestPlanGramMatrix(t *testing.T) {
	f := newFixture(t, 6, 4, 6, 4, 2)
	src := `tiled(4,4)[ ((i,j), +/v) | ((k,i),a) <- A, ((kk,j),b) <- B,
	          kk == k, let v = a*b, group by (i,j) ]`
	res, q := runQuery(t, f, src, opt.Options{})
	wantStrategy(t, q, "group-by-join")
	want := linalg.Mul(f.da.Transpose(), f.db)
	if !res.Matrix.ToDense().EqualApprox(want, 1e-9) {
		t.Fatal("gram matrix mismatch")
	}
}

// Figure 1: row sums compile to per-tile partial aggregation +
// reduceByKey.
func TestPlanRowSums(t *testing.T) {
	f := newFixture(t, 7, 5, 1, 1, 3)
	src := "tiledvec(7)[ (i, +/a) | ((i,j),a) <- A, group by i ]"
	res, q := runQuery(t, f, src, opt.Options{})
	wantStrategy(t, q, "tile-aggregate")
	if !res.Vector.ToDense().EqualApprox(f.da.RowSums(), 1e-9) {
		t.Fatal("row sums mismatch")
	}

	// groupByKey ablation produces the same result.
	res2, _ := runQuery(t, f, src, opt.Options{DisableReduceByKey: true})
	if !res2.Vector.ToDense().EqualApprox(f.da.RowSums(), 1e-9) {
		t.Fatal("row sums (groupByKey) mismatch")
	}
}

func TestPlanColSums(t *testing.T) {
	f := newFixture(t, 7, 5, 1, 1, 3)
	src := "tiledvec(5)[ (j, +/a) | ((i,j),a) <- A, group by j ]"
	res, q := runQuery(t, f, src, opt.Options{})
	wantStrategy(t, q, "tile-aggregate")
	if !res.Vector.ToDense().EqualApprox(f.da.ColSums(), 1e-9) {
		t.Fatal("col sums mismatch")
	}
}

func TestPlanRowMax(t *testing.T) {
	f := newFixture(t, 6, 6, 1, 1, 2)
	src := "tiledvec(6)[ (i, max/a) | ((i,j),a) <- A, group by i ]"
	res, q := runQuery(t, f, src, opt.Options{})
	wantStrategy(t, q, "tile-aggregate")
	want := linalg.NewVector(6)
	for i := 0; i < 6; i++ {
		m := f.da.At(i, 0)
		for j := 1; j < 6; j++ {
			if f.da.At(i, j) > m {
				m = f.da.At(i, j)
			}
		}
		want.Set(i, m)
	}
	if !res.Vector.ToDense().EqualApprox(want, 1e-12) {
		t.Fatal("row max mismatch")
	}
}

// Rule 15: group-by on the full index key is eliminated.
func TestPlanRule15GroupByElimination(t *testing.T) {
	f := newFixture(t, 6, 6, 1, 1, 2)
	src := "tiled(6,6)[ ((i,j), +/a) | ((i,j),a) <- A, group by (i,j) ]"
	res, q := runQuery(t, f, src, opt.Options{})
	wantStrategy(t, q, "tile-map")
	if !strings.Contains(q.Explain(), "Rule 15") {
		t.Fatalf("explain should cite Rule 15: %s", q.Explain())
	}
	if !res.Matrix.ToDense().EqualApprox(f.da, 1e-12) {
		t.Fatal("identity group-by mismatch")
	}
}

// Section 5.2: row rotation does not preserve tiling; Rule 19
// replication fires.
func TestPlanRotation(t *testing.T) {
	f := newFixture(t, 6, 4, 1, 1, 2)
	src := "tiled(6,4)[ (((i+1) % 6, j), a) | ((i,j),a) <- A ]"
	res, q := runQuery(t, f, src, opt.Options{})
	wantStrategy(t, q, "tile-replicate")
	if !strings.Contains(q.Explain(), "Rule 19") {
		t.Fatalf("explain should cite Rule 19: %s", q.Explain())
	}
	want := linalg.NewDense(6, 4)
	for i := 0; i < 6; i++ {
		for j := 0; j < 4; j++ {
			want.Set((i+1)%6, j, f.da.At(i, j))
		}
	}
	if !res.Matrix.ToDense().Equal(want) {
		t.Fatal("rotation mismatch")
	}
}

// Shifting without wraparound drops rows outside the bounds.
func TestPlanShiftWithoutMod(t *testing.T) {
	f := newFixture(t, 6, 4, 1, 1, 2)
	src := "tiled(6,4)[ ((i+2, j), a) | ((i,j),a) <- A ]"
	res, q := runQuery(t, f, src, opt.Options{})
	wantStrategy(t, q, "tile-replicate")
	want := linalg.NewDense(6, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want.Set(i+2, j, f.da.At(i, j))
		}
	}
	if !res.Matrix.ToDense().Equal(want) {
		t.Fatal("shift mismatch")
	}
}

// The smoothing query (Section 3) has range generators and falls back
// to the coordinate pipeline, still producing the right answer.
func TestPlanSmoothingFallback(t *testing.T) {
	f := newFixture(t, 4, 4, 1, 1, 2)
	src := `tiled(4,4)[ ((ii,jj), (+/a) / float(count(a)))
	         | ((i,j),a) <- A,
	           ii <- (i-1) to (i+1), jj <- (j-1) to (j+1),
	           ii >= 0, ii < 4, jj >= 0, jj < 4,
	           group by (ii,jj) ]`
	res, q := runQuery(t, f, src, opt.Options{})
	wantStrategy(t, q, "coordinate")
	// Reference via the local evaluator.
	env := (*comp.Env)(nil).Bind("A", comp.MatrixStorage{M: f.da})
	localSrc := strings.Replace(src, "tiled(4,4)", "matrix(4,4)", 1)
	want := comp.MustEval(sacparser.MustParse(localSrc), env).(comp.MatrixStorage)
	if !res.Matrix.ToDense().EqualApprox(want.M, 1e-9) {
		t.Fatalf("smoothing mismatch:\n%v\n%v", res.Matrix.ToDense(), want.M)
	}
}

// Coordinate fallback with a join (forced off the block path).
func TestPlanCoordJoinFallback(t *testing.T) {
	f := newFixture(t, 5, 4, 4, 6, 2)
	src := `tiled(5,6)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B,
	          kk == k, let v = a*b, group by (i,j) ]`
	res, q := runQuery(t, f, src, opt.Options{DisableTilingPreservation: true})
	wantStrategy(t, q, "coordinate")
	if !res.Matrix.ToDense().EqualApprox(linalg.Mul(f.da, f.db), 1e-9) {
		t.Fatal("coordinate multiply mismatch")
	}
}

// avg after group-by exercises the Rule 12 monoid factoring with a
// non-trivial lift/finalize: a sum and a count per position on the tile
// path, the (sum, count) tuples of comp's monoid on the coordinate path.
func TestPlanAvgAggregation(t *testing.T) {
	f := newFixture(t, 6, 4, 1, 1, 2)
	src := "tiledvec(6)[ (i, avg/a) | ((i,j),a) <- A, group by i ]"
	want := linalg.NewVector(6)
	for i := 0; i < 6; i++ {
		var s float64
		for j := 0; j < 4; j++ {
			s += f.da.At(i, j)
		}
		want.Set(i, s/4)
	}
	for opts, kind := range map[opt.Options]string{{}: "tile-aggregate", {DisableTilingPreservation: true}: "coordinate"} {
		res, q := runQuery(t, f, src, opts)
		wantStrategy(t, q, kind)
		if !res.Vector.ToDense().EqualApprox(want, 1e-9) {
			t.Fatalf("%s: avg mismatch", kind)
		}
	}
}

// Total aggregation queries return scalars: a total over one array is a
// tile aggregation with the empty key, and over a join the coordinate
// fallback's.
func TestPlanTotalSum(t *testing.T) {
	f := newFixture(t, 5, 5, 5, 5, 2)
	res, q := runQuery(t, f, "+/[ a | ((i,j),a) <- A ]", opt.Options{})
	wantStrategy(t, q, "tile-aggregate")
	got := comp.MustFloat(res.Scalar)
	if d := got - f.da.Sum(); d > 1e-9 || d < -1e-9 {
		t.Fatalf("total sum %v vs %v", got, f.da.Sum())
	}
	res, q = runQuery(t, f, "+/[ a*b | ((i,j),a) <- A, ((ii,jj),b) <- B, ii == i, jj == j ]", opt.Options{})
	wantStrategy(t, q, "coordinate")
	var dot float64
	for x := range f.da.Data {
		dot += f.da.Data[x] * f.db.Data[x]
	}
	if d := comp.MustFloat(res.Scalar) - dot; d > 1e-9 || d < -1e-9 {
		t.Fatalf("total of a join %v vs %v", res.Scalar, dot)
	}
}

func TestPlanTotalCountWithFilter(t *testing.T) {
	f := newFixture(t, 5, 5, 1, 1, 2)
	res, _ := runQuery(t, f, "count/[ a | ((i,j),a) <- A, a > 2.5 ]", opt.Options{})
	want := int64(0)
	for _, v := range f.da.Data {
		if v > 2.5 {
			want++
		}
	}
	if comp.MustInt(res.Scalar) != want {
		t.Fatalf("count %v vs %v", res.Scalar, want)
	}
}

// rdd builder collects keyed rows to the driver.
func TestPlanRddCollect(t *testing.T) {
	f := newFixture(t, 3, 3, 1, 1, 2)
	res, _ := runQuery(t, f, "rdd[ ((i,j), a) | ((i,j),a) <- A, i == j ]", opt.Options{})
	if len(res.List) != 3 {
		t.Fatalf("diagonal entries %d", len(res.List))
	}
	for _, row := range res.List {
		tup := comp.MustTuple(row)
		key := comp.MustTuple(tup[0])
		i, j := comp.MustInt(key[0]), comp.MustInt(key[1])
		if i != j {
			t.Fatalf("non-diagonal row %v", comp.Render(row))
		}
		if comp.MustFloat(tup[1]) != f.da.At(int(i), int(j)) {
			t.Fatal("value mismatch")
		}
	}
}

func TestPlanDiagonalExtract(t *testing.T) {
	f := newFixture(t, 6, 6, 1, 1, 2)
	src := "tiledvec(6)[ (i, a) | ((i,j),a) <- A, i == j ]"
	res, _ := runQuery(t, f, src, opt.Options{})
	if !res.Vector.ToDense().Equal(f.da.Diag()) {
		t.Fatal("diagonal mismatch")
	}
}

func TestPlanVectorMap(t *testing.T) {
	ctx := dataflow.NewLocalContext()
	v := linalg.RandVector(9, 0, 1, 3)
	cat := NewCatalog(ctx).BindVector("V", tiled.VectorFromDense(ctx, v, 4, 2))
	res, err := Run(sacparser.MustParse("tiledvec(9)[ (i, x * 3.0) | (i,x) <- V ]"), cat, opt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Vector.ToDense().EqualApprox(v.Clone().ScaleInPlace(3), 1e-12) {
		t.Fatal("vector map mismatch")
	}
}

func TestPlanErrors(t *testing.T) {
	f := newFixture(t, 4, 4, 4, 4, 2)
	bad := []string{
		"matrix(4,4)[ ((i,j),a) | ((i,j),a) <- A ]", // local builder
		"tiled(4,4)[ ((i,j),a) | ((i,j),a) <- C ]",  // unknown array
		"5", // not a query
	}
	for _, src := range bad {
		q, err := Compile(sacparser.MustParse(src), f.cat, opt.Options{})
		if err == nil {
			if _, err = q.Execute(); err == nil {
				t.Fatalf("expected error for %q", src)
			}
		}
	}
}

// The explain output names the inputs and the rule that fired.
func TestPlanExplainMentionsRule(t *testing.T) {
	f := newFixture(t, 4, 4, 4, 4, 2)
	src := `tiled(4,4)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B,
	          kk == k, let v = a*b, group by (i,j) ]`
	q, err := Compile(sacparser.MustParse(src), f.cat, opt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ex := q.Explain()
	for _, want := range []string{"SUMMA", "A", "B", "5.4"} {
		if !strings.Contains(ex, want) {
			t.Fatalf("explain missing %q: %s", want, ex)
		}
	}
}

// Distributed plans agree with the local reference evaluator on a
// battery of queries (the storage-independence invariant).
func TestPlanAgreesWithLocalEvaluator(t *testing.T) {
	f := newFixture(t, 6, 6, 6, 6, 2)
	localEnv := (*comp.Env)(nil).
		Bind("A", comp.MatrixStorage{M: f.da}).
		Bind("B", comp.MatrixStorage{M: f.db}).
		Bind("n", int64(6)).Bind("m", int64(6))
	queries := []string{
		"tiled(6,6)[ ((i,j), a+b) | ((i,j),a) <- A, ((ii,jj),b) <- B, ii == i, jj == j ]",
		"tiled(6,6)[ ((i,j), a*b) | ((i,j),a) <- A, ((ii,jj),b) <- B, ii == i, jj == j ]",
		"tiled(6,6)[ ((j,i), a) | ((i,j),a) <- A ]",
		"tiled(6,6)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B, kk == k, let v = a*b, group by (i,j) ]",
		"tiled(6,6)[ (((i+2) % 6, j), a) | ((i,j),a) <- A ]",
		"tiled(6,6)[ ((i,j), a - 1.0) | ((i,j),a) <- A ]",
	}
	for _, src := range queries {
		res, _ := runQuery(t, f, src, opt.Options{})
		localSrc := strings.Replace(src, "tiled(6,6)", "matrix(6,6)", 1)
		want := comp.MustEval(sacparser.MustParse(localSrc), localEnv).(comp.MatrixStorage)
		if !res.Matrix.ToDense().EqualApprox(want.M, 1e-9) {
			t.Fatalf("distributed/local divergence for %q", src)
		}
	}
}

// Matrix-vector multiplication compiles to the matvec group-by-join.
func TestPlanMatVec(t *testing.T) {
	ctx := dataflow.NewLocalContext()
	d := linalg.RandDense(6, 4, -2, 2, 81)
	x := linalg.RandVector(4, -1, 1, 82)
	cat := NewCatalog(ctx).
		BindMatrix("A", tiled.FromDense(ctx, d, 2, 2)).
		BindVector("V", tiled.VectorFromDense(ctx, x, 2, 2))
	src := `tiledvec(6)[ (i, +/v) | ((i,k),a) <- A, (kk,x) <- V, kk == k, let v = a*x, group by i ]`
	q, err := Compile(sacparser.MustParse(src), cat, opt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if q.strategy.Kind() != "matvec" {
		t.Fatalf("strategy %s (%s)", q.strategy.Kind(), q.Explain())
	}
	res, err := q.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Vector.ToDense().EqualApprox(linalg.MatVec(d, x), 1e-9) {
		t.Fatal("matvec result mismatch")
	}
}

// Transposed matrix-vector product: join on the matrix row index.
func TestPlanMatVecOfTranspose(t *testing.T) {
	ctx := dataflow.NewLocalContext()
	d := linalg.RandDense(6, 4, -2, 2, 83)
	x := linalg.RandVector(6, -1, 1, 84)
	cat := NewCatalog(ctx).
		BindMatrix("A", tiled.FromDense(ctx, d, 2, 2)).
		BindVector("V", tiled.VectorFromDense(ctx, x, 2, 2))
	src := `tiledvec(4)[ (j, +/v) | ((k,j),a) <- A, (kk,x) <- V, kk == k, let v = a*x, group by j ]`
	q, err := Compile(sacparser.MustParse(src), cat, opt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if q.strategy.Kind() != "matvec" {
		t.Fatalf("strategy %s", q.strategy.Kind())
	}
	res, err := q.Execute()
	if err != nil {
		t.Fatal(err)
	}
	want := linalg.MatVec(d.Transpose(), x)
	if !res.Vector.ToDense().EqualApprox(want, 1e-9) {
		t.Fatal("matvec-trans result mismatch")
	}
}

// Vector listed first still matches.
func TestPlanMatVecVectorFirst(t *testing.T) {
	ctx := dataflow.NewLocalContext()
	d := linalg.RandDense(4, 4, -2, 2, 85)
	x := linalg.RandVector(4, -1, 1, 86)
	cat := NewCatalog(ctx).
		BindMatrix("A", tiled.FromDense(ctx, d, 2, 2)).
		BindVector("V", tiled.VectorFromDense(ctx, x, 2, 2))
	src := `tiledvec(4)[ (i, +/v) | (kk,x) <- V, ((i,k),a) <- A, kk == k, let v = a*x, group by i ]`
	q, err := Compile(sacparser.MustParse(src), cat, opt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if q.strategy.Kind() != "matvec" {
		t.Fatalf("strategy %s", q.strategy.Kind())
	}
	res, err := q.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Vector.ToDense().EqualApprox(linalg.MatVec(d, x), 1e-9) {
		t.Fatal("vector-first matvec mismatch")
	}
}

// The paper's is-sorted total aggregation, on the distributed path:
// a self-join of a block vector with the expression key j == i+1.
func TestPlanIsSortedSelfJoin(t *testing.T) {
	ctx := dataflow.NewLocalContext()
	sorted := tiled.VectorFromDense(ctx, linalg.NewVectorFrom([]float64{1, 2, 2, 5, 9}), 2, 2)
	unsorted := tiled.VectorFromDense(ctx, linalg.NewVectorFrom([]float64{1, 3, 2, 5, 9}), 2, 2)
	src := "&&/[ v <= w | (i,v) <- V, (j,w) <- V, j == i+1 ]"

	cat := NewCatalog(ctx).BindVector("V", sorted)
	res, err := Run(sacparser.MustParse(src), cat, opt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scalar != true {
		t.Fatalf("sorted vector reported %v", res.Scalar)
	}

	cat2 := NewCatalog(ctx).BindVector("V", unsorted)
	res2, err := Run(sacparser.MustParse(src), cat2, opt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Scalar != false {
		t.Fatalf("unsorted vector reported %v", res2.Scalar)
	}
}

// Inner product of two block vectors through the coordinate pipeline.
func TestPlanDotProduct(t *testing.T) {
	ctx := dataflow.NewLocalContext()
	x := linalg.RandVector(9, -1, 1, 91)
	y := linalg.RandVector(9, -1, 1, 92)
	cat := NewCatalog(ctx).
		BindVector("X", tiled.VectorFromDense(ctx, x, 4, 2)).
		BindVector("Y", tiled.VectorFromDense(ctx, y, 4, 2))
	res, err := Run(sacparser.MustParse("+/[ a*b | (i,a) <- X, (j,b) <- Y, i == j ]"), cat, opt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := comp.MustFloat(res.Scalar)
	if d := got - linalg.Dot(x, y); d > 1e-9 || d < -1e-9 {
		t.Fatalf("dot %v vs %v", got, linalg.Dot(x, y))
	}
}

// Cartesian products are rejected with a clear error, not a panic — by
// Compile: there is no plan for Explain to describe.
func TestPlanCartesianRejected(t *testing.T) {
	ctx := dataflow.NewLocalContext()
	cat := NewCatalog(ctx).
		BindVector("X", tiled.VectorFromDense(ctx, linalg.NewVector(4), 2, 1)).
		BindVector("Y", tiled.VectorFromDense(ctx, linalg.NewVector(4), 2, 1))
	_, err := Compile(sacparser.MustParse("+/[ a*b | (i,a) <- X, (j,b) <- Y ]"), cat, opt.Options{})
	if err == nil || !strings.Contains(err.Error(), "cartesian") {
		t.Fatalf("expected cartesian rejection, got %v", err)
	}
}

// A factored aggregation over a monoid that does not commute (++) cannot
// be a reduceByKey: it takes the Rule 11 groupByKey path, Explain says
// so, and the groups agree with the reference evaluator as multisets
// (bag semantics leave the order within a group open).
func TestPlanNonCommutativeGroupBy(t *testing.T) {
	ctx := dataflow.NewLocalContext()
	d := linalg.RandDense(5, 4, 0, 9, 97)
	cat := NewCatalog(ctx).BindMatrix("A", tiled.FromDense(ctx, d, 2, 3))
	env := (*comp.Env)(nil).Bind("A", comp.MatrixStorage{M: d})
	for _, src := range []string{
		"rdd[ (i, ++/w) | ((i,j),a) <- A, let w = [a], group by i ]",
		"rdd[ (i, (+/a, ++/w)) | ((i,j),a) <- A, let w = [a], group by i ]",
	} {
		res, q := runQueryCat(t, cat, src)
		if ex := q.Explain(); !strings.Contains(ex, "groupByKey") || strings.Contains(ex, "reduceByKey") {
			t.Fatalf("%s\nexplain: %s", src, ex)
		}
		want := comp.MustEval(comp.Desugar(sacparser.MustParse(src)), env).(comp.List)
		if got, want := canonGroups(res.List), canonGroups(want); got != want {
			t.Fatalf("%s\n got %s\nwant %s", src, got, want)
		}
	}
}

// canonGroups renders a value with every list in it — the rows, and the
// groups inside them — sorted, and floats to nine digits so the order a
// sum was taken in does not show.
func canonGroups(v comp.Value) string {
	var parts []string
	switch x := v.(type) {
	case comp.Tuple:
		for _, e := range x {
			parts = append(parts, canonGroups(e))
		}
		return "(" + strings.Join(parts, ", ") + ")"
	case comp.List:
		for _, e := range x {
			parts = append(parts, canonGroups(e))
		}
		sort.Strings(parts)
		return "[" + strings.Join(parts, ", ") + "]"
	case float64:
		return strconv.FormatFloat(x, 'g', 9, 64)
	}
	return comp.Render(v)
}

// Explain formats the plan Compile built and analyses nothing, so it is
// safe to call concurrently with itself (the server does, per request).
// Run under -race.
func TestPlanExplainConcurrent(t *testing.T) {
	f := newFixture(t, 6, 4, 4, 6, 2)
	q, err := Compile(sacparser.MustParse(`tiled(6,6)[ ((i,j), min/v) | ((i,k),a) <- A, ((kk,j),b) <- B,
	          kk == k, let v = a+b, group by (i,j) ]`), f.cat, opt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := q.Explain()
	if !strings.Contains(want, "2-way join chain (Rule 14)") || !strings.Contains(want, "reduceByKey with 1 factored") {
		t.Fatalf("explain: %s", want)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if got := q.Explain(); got != want {
					t.Errorf("explain changed: %s", got)
				}
			}
		}()
	}
	wg.Wait()
}

// A guard after the group-by (a HAVING clause) forces the general
// collectGrouped path and filters whole groups.
func TestPlanHavingClause(t *testing.T) {
	ctx := dataflow.NewLocalContext()
	// V = [10, 11, 12, 13, 14]: groups by i%3 have sizes 2,2,1.
	v := linalg.NewVectorFrom([]float64{10, 11, 12, 13, 14})
	cat := NewCatalog(ctx).BindVector("V", tiled.VectorFromDense(ctx, v, 2, 2))
	src := "rdd[ (k, +/x) | (i,x) <- V, group by k: i % 3, count(x) > 1 ]"
	res, q := runQueryCat(t, cat, src)
	if q.strategy.Kind() != "coordinate" {
		t.Fatalf("strategy %s", q.strategy.Kind())
	}
	if len(res.List) != 2 {
		t.Fatalf("groups after having: %d (%s)", len(res.List), comp.Render(comp.List(res.List)))
	}
	sums := map[string]float64{}
	for _, row := range res.List {
		tup := comp.MustTuple(row)
		sums[comp.KeyString(tup[0])] = comp.MustFloat(tup[1])
	}
	if sums["0"] != 23 || sums["1"] != 25 { // 10+13, 11+14
		t.Fatalf("having sums %v", sums)
	}
}

// A HAVING clause on a block builder is not an element filter: the query
// leaves the tile-aggregate rule for the fallback, and rows that fail the
// clause keep the builder's default 0.
func TestPlanHavingClauseOnTiledvec(t *testing.T) {
	ctx := dataflow.NewLocalContext()
	d := linalg.NewDenseFrom(3, 2, []float64{1, 2, 3, 4, 5, 6})
	cat := NewCatalog(ctx).BindMatrix("A", tiled.FromDense(ctx, d, 2, 2))
	res, q := runQueryCat(t, cat, "tiledvec(3)[ (i, +/a) | ((i,j),a) <- A, group by i, +/a > 3.0, +/a < 11.0 ]")
	wantStrategy(t, q, "coordinate")
	if got := res.Vector.ToDense().Data; got[0] != 0 || got[1] != 7 || got[2] != 0 {
		t.Fatalf("having on tiledvec: %v", got)
	}
}

// A lifted variable used raw (outside any reduction) yields the list
// of group values (the ++/map identity of Section 3).
func TestPlanRawLiftedVariable(t *testing.T) {
	ctx := dataflow.NewLocalContext()
	v := linalg.NewVectorFrom([]float64{1, 2, 3, 4})
	cat := NewCatalog(ctx).BindVector("V", tiled.VectorFromDense(ctx, v, 2, 2))
	src := "rdd[ (k, x) | (i,x) <- V, group by k: i % 2 ]"
	res, _ := runQueryCat(t, cat, src)
	if len(res.List) != 2 {
		t.Fatalf("groups %d", len(res.List))
	}
	for _, row := range res.List {
		tup := comp.MustTuple(row)
		lst := comp.MustList(tup[1])
		if len(lst) != 2 {
			t.Fatalf("group %v has %d members", tup[0], len(lst))
		}
	}
}

// Mixed aggregations factor into one product-monoid pass (Rule 12).
func TestPlanMixedAggregations(t *testing.T) {
	ctx := dataflow.NewLocalContext()
	d := linalg.RandDense(6, 4, 0, 9, 93)
	cat := NewCatalog(ctx).BindMatrix("A", tiled.FromDense(ctx, d, 2, 2))
	src := "rdd[ (i, (+/a) / float(count(a))) | ((i,j),a) <- A, group by i ]"
	res, _ := runQueryCat(t, cat, src)
	if len(res.List) != 6 {
		t.Fatalf("rows %d", len(res.List))
	}
	for _, row := range res.List {
		tup := comp.MustTuple(row)
		i := comp.MustInt(tup[0])
		want := 0.0
		for j := 0; j < 4; j++ {
			want += d.At(int(i), j)
		}
		want /= 4
		if diff := comp.MustFloat(tup[1]) - want; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("row %d mean %v want %v", i, tup[1], want)
		}
	}
}

func runQueryCat(t *testing.T, cat *Catalog, src string) (*Result, *Compiled) {
	t.Helper()
	q, err := Compile(sacparser.MustParse(src), cat, opt.Options{})
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	res, err := q.Execute()
	if err != nil {
		t.Fatalf("execute %q: %v", src, err)
	}
	return res, q
}

// A non-multiplicative contraction exercises the generic interpreted
// GBJ kernel: C_ij = sum_k (a + 2*b).
func TestPlanGenericContractionKernel(t *testing.T) {
	f := newFixture(t, 4, 4, 4, 4, 2)
	src := `tiled(4,4)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B,
	          kk == k, let v = a + 2.0*b, group by (i,j) ]`
	want := linalg.NewDense(4, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			var s float64
			for k := 0; k < 4; k++ {
				s += f.da.At(i, k) + 2*f.db.At(k, j)
			}
			want.Set(i, j, s)
		}
	}
	for _, opts := range []opt.Options{{}, {DisableGBJ: true}, {DisableGBJ: true, DisableReduceByKey: true}} {
		res, q := runQuery(t, f, src, opts)
		if q.strategy.Kind() == "coordinate" {
			t.Fatalf("generic contraction should stay on the block path: %s", q.Explain())
		}
		if !res.Matrix.ToDense().EqualApprox(want, 1e-9) {
			t.Fatalf("generic contraction mismatch (opts %+v)", opts)
		}
	}
}

// TestPlanInterpretedGBJGridInvariant: the interpreted-kernel
// group-by-join has no grid override — its grid follows from the
// partition count alone. One partition is the 1x1 grid, five give a
// coarse grid, forty (more than the 4x3 output tiles) the full grid,
// and all must agree to the bit, with and without a memory budget, and
// name their grid in Explain.
func TestPlanInterpretedGBJGridInvariant(t *testing.T) {
	da := linalg.RandDense(128, 224, -1, 1, 61)
	db := linalg.RandDense(224, 96, -1, 1, 62)
	src := `tiled(128,96)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B,
	          kk == k, let v = a + 2.0*b, group by (i,j) ]`
	var want *linalg.Dense
	for _, c := range []struct {
		parts  int
		budget int64
		grid   string
	}{
		{1, 0, "grid 1x1"}, {5, 0, "grid 3x2"}, {40, 0, "grid 4x3"}, {5, 128 << 10, "grid 3x2"},
	} {
		ctx := dataflow.NewContext(dataflow.Config{Parallelism: 4, DefaultPartitions: c.parts, MemoryBudget: c.budget})
		cat := NewCatalog(ctx).
			BindMatrix("A", tiled.FromDense(ctx, da, 32, c.parts)).
			BindMatrix("B", tiled.FromDense(ctx, db, 32, c.parts))
		q, err := Compile(sacparser.MustParse(src), cat, opt.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if ex := q.Explain(); !strings.Contains(ex, c.grid) {
			t.Fatalf("parts %d: Explain does not name %s:\n%s", c.parts, c.grid, ex)
		}
		res, err := q.Execute()
		if err != nil {
			t.Fatal(err)
		}
		got := res.Matrix.ToDense()
		if c.budget > 0 && ctx.Metrics().SpilledBytes == 0 {
			t.Fatalf("parts %d: a %d-byte budget never spilled", c.parts, c.budget)
		}
		if err := ctx.Close(); err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		if !got.Equal(want) {
			t.Fatalf("parts %d budget %d: interpreted GBJ differs from the 1x1 grid (max diff %g)",
				c.parts, c.budget, got.MaxAbsDiff(want))
		}
	}
}

// Row minimum exercises the min tile-aggregation monoid.
func TestPlanRowMin(t *testing.T) {
	f := newFixture(t, 5, 5, 1, 1, 2)
	src := "tiledvec(5)[ (i, min/a) | ((i,j),a) <- A, group by i ]"
	res, q := runQuery(t, f, src, opt.Options{})
	wantStrategy(t, q, "tile-aggregate")
	for i := 0; i < 5; i++ {
		min := f.da.At(i, 0)
		for j := 1; j < 5; j++ {
			if f.da.At(i, j) < min {
				min = f.da.At(i, j)
			}
		}
		if res.Vector.ToDense().At(i) != min {
			t.Fatalf("row %d min mismatch", i)
		}
	}
}

// Count aggregation per column (exercises the count lift).
func TestPlanColCounts(t *testing.T) {
	f := newFixture(t, 5, 4, 1, 1, 2)
	src := "tiledvec(4)[ (j, count/a) | ((i,j),a) <- A, a > 2.0, group by j ]"
	res, q := runQuery(t, f, src, opt.Options{})
	wantStrategy(t, q, "tile-aggregate")
	for j := 0; j < 4; j++ {
		want := 0.0
		for i := 0; i < 5; i++ {
			if f.da.At(i, j) > 2.0 {
				want++
			}
		}
		if got := res.Vector.ToDense().At(j); got != want {
			t.Fatalf("col %d count %v want %v", j, got, want)
		}
	}
}

// Vector + vector elementwise zip (Rule 17 for block vectors).
func TestPlanVectorZip(t *testing.T) {
	ctx := dataflow.NewLocalContext()
	x := linalg.RandVector(7, 0, 1, 94)
	y := linalg.RandVector(7, 0, 1, 95)
	cat := NewCatalog(ctx).
		BindVector("X", tiled.VectorFromDense(ctx, x, 3, 2)).
		BindVector("Y", tiled.VectorFromDense(ctx, y, 3, 2))
	src := "tiledvec(7)[ (i, a*b) | (i,a) <- X, (j,b) <- Y, j == i ]"
	res, q := runQueryCat(t, cat, src)
	if q.strategy.Kind() != "tile-zip" {
		t.Fatalf("strategy %s", q.strategy.Kind())
	}
	want := linalg.NewVector(7)
	for i := 0; i < 7; i++ {
		want.Set(i, x.At(i)*y.At(i))
	}
	if !res.Vector.ToDense().EqualApprox(want, 1e-12) {
		t.Fatal("vector zip mismatch")
	}
}

// Submatrix slicing through Rule 19: shifted keys plus bound filters.
func TestPlanSlicing(t *testing.T) {
	f := newFixture(t, 8, 8, 1, 1, 2)
	// Extract the 4x4 block starting at (2,3).
	src := `tiled(4,4)[ ((i-2, j-3), a) | ((i,j),a) <- A,
	          i >= 2, i < 6, j >= 3, j < 7 ]`
	res, q := runQuery(t, f, src, opt.Options{})
	wantStrategy(t, q, "tile-replicate")
	want := f.da.Slice(2, 6, 3, 7)
	if !res.Matrix.ToDense().Equal(want) {
		t.Fatalf("slice mismatch:\n%v\n%v", res.Matrix.ToDense(), want)
	}
}

// Rule 12 on the block path: multiple aggregations in one head run as
// a single per-tile pass with a finalize expression.
func TestPlanRowMeanOnBlockPath(t *testing.T) {
	f := newFixture(t, 6, 4, 1, 1, 2)
	src := "tiledvec(6)[ (i, (+/a) / float(count(a))) | ((i,j),a) <- A, group by i ]"
	res, q := runQuery(t, f, src, opt.Options{})
	wantStrategy(t, q, "tile-aggregate")
	if !strings.Contains(q.Explain(), "{+,count}") {
		t.Fatalf("explain should list both monoids: %s", q.Explain())
	}
	for i := 0; i < 6; i++ {
		want := 0.0
		for j := 0; j < 4; j++ {
			want += f.da.At(i, j)
		}
		want /= 4
		if d := res.Vector.ToDense().At(i) - want; d > 1e-9 || d < -1e-9 {
			t.Fatalf("row %d mean mismatch", i)
		}
	}
}

// The finalize expression may reference the group key.
func TestPlanAggFinalizeUsesKey(t *testing.T) {
	f := newFixture(t, 5, 4, 1, 1, 2)
	src := "tiledvec(5)[ (i, (+/a) + float(i)) | ((i,j),a) <- A, group by i ]"
	res, q := runQuery(t, f, src, opt.Options{})
	wantStrategy(t, q, "tile-aggregate")
	for i := 0; i < 5; i++ {
		want := float64(i)
		for j := 0; j < 4; j++ {
			want += f.da.At(i, j)
		}
		if d := res.Vector.ToDense().At(i) - want; d > 1e-9 || d < -1e-9 {
			t.Fatalf("row %d: mismatch", i)
		}
	}
}

// Fully filtered rows finalize to the builder default 0, not the
// monoid identity (+Inf for min).
func TestPlanAggFilteredRowDefaultsToZero(t *testing.T) {
	ctx := dataflow.NewLocalContext()
	d := linalg.NewDenseFrom(2, 2, []float64{-1, -2, 5, 6})
	cat := NewCatalog(ctx).BindMatrix("A", tiled.FromDense(ctx, d, 2, 2))
	src := "tiledvec(2)[ (i, min/a) | ((i,j),a) <- A, a > 0.0, group by i ]"
	res, _ := runQueryCat(t, cat, src)
	got := res.Vector.ToDense()
	if got.At(0) != 0 {
		t.Fatalf("filtered row should be 0, got %v", got.At(0))
	}
	if got.At(1) != 5 {
		t.Fatalf("row 1 min %v", got.At(1))
	}
}

// A single-read shifted assignment (one generator, scalar-bounded
// ranges linked by guards) must use the range-seeded chain rather than
// expanding the full range per element. Checked by correctness and by
// the shuffle profile (the seeded chain joins once).
func TestPlanSingleReadStencil(t *testing.T) {
	ctx := dataflow.NewLocalContext()
	const n = 12
	d := linalg.RandDense(n, n, 0, 9, 96)
	cat := NewCatalog(ctx).
		BindMatrix("A", tiled.FromDense(ctx, d, 4, 2)).
		BindScalar("n", int64(n))
	// B[i,j] = 2*A[i-1,j] for i in 1..n-1 — written with explicit
	// ranges and index desugaring, as the DIABLO translation produces.
	src := `tiled(n,n)[ ((i,j), 2.0*v) | i <- 0 until n, j <- 0 until n,
	          ((ii,jj),v) <- A, ii == i-1, jj == j ]`
	res, q := runQueryCat(t, cat, src)
	if q.strategy.Kind() != "coordinate" {
		t.Fatalf("strategy %s", q.strategy.Kind())
	}
	got := res.Matrix.ToDense()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := 0.0
			if i >= 1 {
				want = 2 * d.At(i-1, j)
			}
			if diff := got.At(i, j) - want; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("B[%d,%d] = %v want %v", i, j, got.At(i, j), want)
			}
		}
	}
}
