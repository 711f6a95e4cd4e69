package plan

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/comp"
	"repro/internal/dataflow"
	"repro/internal/linalg"
	"repro/internal/opt"
	"repro/internal/sacparser"
	"repro/internal/tiled"
)

// sameValue compares two scalar results exactly: the same Go type and the
// same bits (NaNs match each other).
func sameValue(a, b comp.Value) bool {
	if fmt.Sprintf("%T", a) != fmt.Sprintf("%T", b) {
		return false
	}
	if x, ok := a.(float64); ok {
		return sameBits(x, b.(float64))
	}
	return comp.Equal(a, b)
}

// compileRun compiles src against cat and runs it.
func compileRun(t *testing.T, cat *Catalog, src string, opts opt.Options) (*Result, *Compiled) {
	t.Helper()
	q, err := Compile(sacparser.MustParse(src), cat, opts)
	if err != nil {
		t.Fatalf("compile %s: %v", src, err)
	}
	res, err := q.Execute()
	if err != nil {
		t.Fatalf("execute %s: %v", src, err)
	}
	return res, q
}

// TestTotalAggMatchesCoordinate: a total that moved to the tile
// aggregation returns the coordinate path's answer bit for bit, with its
// Go type, over every monoid, head, guard, input shape, tile size,
// partition count and budget of the table — the coordinate path is the
// same query with tiling preservation disabled. A min or max of an int
// head keeps the winning element's int64 only on the coordinate path, so
// it stays there.
func TestTotalAggMatchesCoordinate(t *testing.T) {
	inputs := []struct {
		name, gen string
		bind      func(*Catalog, int, int) *Catalog
	}{
		{"7x5", "((i,j),a) <- A", func(c *Catalog, n, parts int) *Catalog {
			return c.BindMatrix("A", tiled.FromDense(c.ctx, linalg.RandDense(7, 5, -3, 5, 31), n, parts))
		}},
		{"64x64", "((i,j),a) <- A", func(c *Catalog, n, parts int) *Catalog {
			return c.BindMatrix("A", tiled.FromDense(c.ctx, linalg.RandDense(64, 64, 0.5, 1.5, 32), n, parts))
		}},
		{"vector", "(i,a) <- V, let j = i % 3", func(c *Catalog, n, parts int) *Catalog {
			return c.BindVector("V", tiled.VectorFromDense(c.ctx, linalg.RandVector(23, -3, 5, 33), n, parts))
		}},
	}
	monoids := []string{"+", "*", "count", "min", "max", "avg"}
	heads := []string{"a", "a*i+j", "i", "if(a > 2.0, a, 0.0)"}
	guards := []string{"", ", a > 1.0", ", i >= 1, j != 2"}
	for _, in := range inputs {
		for _, n := range []int{1, 2, 3, 5, 16} {
			for _, parts := range []int{1, 3, 8} {
				want := map[string]comp.Value{}
				for _, budget := range []int64{0, 256} {
					ctx := dataflow.NewContext(dataflow.Config{Parallelism: 2, MemoryBudget: budget})
					cat := in.bind(NewCatalog(ctx), n, parts)
					for _, m := range monoids {
						for _, h := range heads {
							for _, g := range guards {
								src := fmt.Sprintf("%s/[ %s | %s%s ]", m, h, in.gen, g)
								desc := fmt.Sprintf("%s (%s tile %d parts %d budget %d)", src, in.name, n, parts, budget)
								if _, ok := want[src]; !ok {
									res, q := compileRun(t, cat, src, opt.Options{DisableTilingPreservation: true})
									wantStrategy(t, q, "coordinate")
									want[src] = res.Scalar
								}
								res, q := compileRun(t, cat, src, opt.Options{})
								kind := "tile-aggregate"
								if h == "i" && (m == "min" || m == "max") {
									kind = "coordinate"
								}
								if q.strategy.Kind() != kind {
									t.Fatalf("%s: %s, want %s", desc, q.Explain(), kind)
								}
								if !sameValue(res.Scalar, want[src]) {
									t.Fatalf("%s: %v (%T), the coordinate path %v (%T)", desc, res.Scalar, res.Scalar, want[src], want[src])
								}
							}
						}
					}
					ctx.Close()
				}
			}
		}
	}
}

// TestTotalAggOneStage: a total runs as one aggregate stage that shuffles
// nothing, and Explain names the tile aggregation.
func TestTotalAggOneStage(t *testing.T) {
	ctx := dataflow.NewContext(dataflow.Config{Parallelism: 2})
	defer ctx.Close()
	cat := NewCatalog(ctx).BindMatrix("A", tiled.RandMatrix(ctx, 64, 64, 16, 4, 0, 10, 1))
	q, err := Compile(sacparser.MustParse("+/[ a | ((i,j),a) <- A ]"), cat, opt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ex := q.Explain(); !strings.HasPrefix(ex, "total +-aggregation over per-tile partial {+}-aggregation of A") || strings.Contains(ex, "ByKey") {
		t.Fatalf("explain: %s", ex)
	}
	before := ctx.Metrics()
	if _, err := q.Execute(); err != nil {
		t.Fatal(err)
	}
	if d := ctx.Metrics().Sub(before); d.Stages != 1 || d.ShuffledBytes != 0 {
		t.Fatalf("%d stages, %d shuffled bytes", d.Stages, d.ShuffledBytes)
	}
}

// TestTotalAggCoordinateShapes: the totals the tile aggregation cannot
// fold stay on the coordinate path and still answer — a tuple head under
// count, the bool and list monoids, a join, a range generator, a min over
// ints, which keeps its int64, and a pattern whose arity is not its
// array's: ((i,j),a) over a vector matches no element, and (i,a) over a
// matrix binds i to the (row, column) pair.
func TestTotalAggCoordinateShapes(t *testing.T) {
	f := newFixture(t, 5, 4, 5, 4, 2)
	f.cat.BindVector("V", tiled.VectorFromDense(f.ctx, linalg.RandVector(7, 0, 5, 61), 2, 3))
	var dot, rows01, sum float64
	for x, a := range f.da.Data {
		dot += a * f.db.Data[x]
		if x < 8 {
			rows01 += a
		}
		sum += a
	}
	for _, c := range []struct {
		src  string
		want comp.Value
	}{
		{"count/[ (i,a) | ((i,j),a) <- A ]", int64(20)},
		{"&&/[ a > -1.0 | ((i,j),a) <- A ]", true},
		{"+/[ a*b | ((i,j),a) <- A, ((ii,jj),b) <- B, ii == i, jj == j ]", dot},
		{"+/[ a | ((i,j),a) <- A, k <- 0 until 2, k == i ]", rows01},
		{"min/[ i+j | ((i,j),a) <- A, i > 0 ]", int64(1)},
		{"+/[ a | ((i,j),a) <- V ]", 0.0},
		{"count/[ a | ((i,j),a) <- V ]", int64(0)},
		{"+/[ a | (i,a) <- A ]", sum},
		{"count/[ i | (i,a) <- A ]", int64(20)},
	} {
		res, q := runQuery(t, f, c.src, opt.Options{})
		wantStrategy(t, q, "coordinate")
		if fmt.Sprintf("%T", res.Scalar) != fmt.Sprintf("%T", c.want) || !approxValue(res.Scalar, c.want) {
			t.Fatalf("%s: %v (%T), want %v", c.src, res.Scalar, res.Scalar, c.want)
		}
	}
	res, q := runQuery(t, f, "++/[ [a] | ((i,j),a) <- A, i == 0 ]", opt.Options{})
	wantStrategy(t, q, "coordinate")
	if l := comp.MustList(res.Scalar); len(l) != 4 {
		t.Fatalf("++ total: %s", comp.Render(res.Scalar))
	}
}

func approxValue(a, b comp.Value) bool {
	if x, ok := a.(float64); ok {
		return approx(x, b.(float64))
	}
	return comp.Equal(a, b)
}

// TestAvgGroupedMatchesSumOverCount: a grouped avg is its sum divided by
// its count, bit for bit the tile aggregation of (+/a) / float(count(a)),
// by row and by column, with and without a guard, over tilings and
// partition counts; and the Rule 12 mix avg/a + max/a is too.
func TestAvgGroupedMatchesSumOverCount(t *testing.T) {
	d := linalg.RandDense(7, 5, -3, 5, 41)
	for _, n := range []int{1, 2, 3, 5} {
		for _, parts := range []int{1, 3} {
			ctx := dataflow.NewLocalContext()
			cat := NewCatalog(ctx).BindMatrix("A", tiled.FromDense(ctx, d, n, parts))
			for _, c := range []struct{ by, size, guard string }{{"i", "7", ""}, {"j", "5", ", a > 1.0"}, {"i", "7", ", j != 1"}} {
				q := func(head string) string {
					return fmt.Sprintf("tiledvec(%s)[ (%s, %s) | ((i,j),a) <- A%s, group by %s ]", c.size, c.by, head, c.guard, c.by)
				}
				for _, p := range [][2]string{{"avg/a", "(+/a) / float(count(a))"}, {"avg/a + max/a", "(+/a) / float(count(a)) + max/a"}} {
					got, qa := compileRun(t, cat, q(p[0]), opt.Options{})
					want, qb := compileRun(t, cat, q(p[1]), opt.Options{})
					wantStrategy(t, qa, "tile-aggregate")
					wantStrategy(t, qb, "tile-aggregate")
					g, w := got.Vector.ToDense().Data, want.Vector.ToDense().Data
					for x := range w {
						if !sameBits(g[x], w[x]) {
							t.Fatalf("%s (tile %d parts %d): %v, %s gives %v", q(p[0]), n, parts, g, p[1], w)
						}
					}
				}
			}
			ctx.Close()
		}
	}
}

// TestMinMaxNaN: with a NaN at (2,3) and a -0 beside a +0 in row 4, min
// and max — total and grouped, on the tile and the coordinate strategy —
// return one answer at every tile size and partition count: the NaN wins
// its row and the total, and -0 is less than +0.
func TestMinMaxNaN(t *testing.T) {
	d := linalg.RandDense(7, 5, -3, 5, 43)
	d.Set(2, 3, math.NaN())
	d.Set(4, 0, 0)
	d.Set(4, 1, math.Copysign(0, -1))
	for x := 2; x < 5; x++ {
		d.Set(4, x, 1)
	}
	for _, m := range []string{"min", "max"} {
		for _, src := range []string{
			m + "/[ a | ((i,j),a) <- A ]",
			"tiledvec(7)[ (i, " + m + "/a) | ((i,j),a) <- A, group by i ]",
			"tiledvec(5)[ (j, " + m + "/a) | ((i,j),a) <- A, group by j ]",
		} {
			var first []float64
			for _, n := range []int{1, 2, 3, 5} {
				for _, parts := range []int{1, 2, 3, 8} {
					for _, opts := range []opt.Options{{}, {DisableTilingPreservation: true}} {
						ctx := dataflow.NewLocalContext()
						cat := NewCatalog(ctx).BindMatrix("A", tiled.FromDense(ctx, d, n, parts))
						res, _ := compileRun(t, cat, src, opts)
						var got []float64
						if res.Vector != nil {
							got = res.Vector.ToDense().Data
						} else {
							got = []float64{res.Scalar.(float64)}
						}
						ctx.Close()
						if first == nil {
							first = got
							continue
						}
						for x := range got {
							if !sameBits(got[x], first[x]) {
								t.Fatalf("%s (tile %d parts %d %+v): %v, first run %v", src, n, parts, opts, got, first)
							}
						}
					}
				}
			}
			switch {
			case strings.Contains(src, "group by i"):
				if !math.IsNaN(first[2]) || m == "min" && !math.Signbit(first[4]) {
					t.Fatalf("%s: %v", src, first)
				}
			case strings.Contains(src, "group by j"):
				if !math.IsNaN(first[3]) {
					t.Fatalf("%s: %v", src, first)
				}
			case !math.IsNaN(first[0]):
				t.Fatalf("%s: %v", src, first)
			}
		}
	}
}

// TestTileAggHeadKey: a grouped aggregation whose head key is not the
// group key used to run as a tile aggregation that ignored the key —
// (i+1, +/a) returned the unshifted row sums with no error. It now plans
// on the coordinate path, which shifts the rows (the reference evaluator's
// answer) or rejects a key of the wrong arity.
func TestTileAggHeadKey(t *testing.T) {
	d := linalg.RandDense(6, 4, -3, 5, 47)
	ctx := dataflow.NewLocalContext()
	defer ctx.Close()
	cat := NewCatalog(ctx).BindMatrix("A", tiled.FromDense(ctx, d, 2, 3))
	env := (*comp.Env)(nil).Bind("A", comp.MatrixStorage{M: d})
	for _, m := range []string{"+", "max", "avg"} {
		body := "[ (i+1, " + m + "/a) | ((i,j),a) <- A, group by i ]"
		res, q := compileRun(t, cat, "tiledvec(6)"+body, opt.Options{})
		wantStrategy(t, q, "coordinate")
		want := comp.MustEval(comp.Desugar(sacparser.MustParse("vector(6)"+body)), env).(comp.VectorStorage).V
		if got := res.Vector.ToDense(); !got.EqualApprox(want, 1e-12) || got.At(0) != 0 {
			t.Fatalf("%s: %v, want %v", body, got.Data, want.Data)
		}
		if _, err := Compile(sacparser.MustParse("tiledvec(6)[ ((i,0), "+m+"/a) | ((i,j),a) <- A, group by i ]"), cat, opt.Options{}); err == nil ||
			!strings.Contains(err.Error(), "tiledvec key must have 1 component") {
			t.Fatalf("%s: a two-component vector key compiled: %v", m, err)
		}
		if _, q := compileRun(t, cat, "tiledvec(6)[ (0, "+m+"/a) | ((i,j),a) <- A, group by i ]", opt.Options{}); q.strategy.Kind() != "coordinate" {
			t.Fatalf("%s: a constant key planned %s", m, q.Explain())
		}
	}
}

// TestOneGeneratorIndexEquality: over one array, an equality of two of its
// index variables is an element filter. The map, Rule 15 and tile
// aggregation strategies used to drop it — the diagonal's row sums were
// the whole rows' — because Extract files it as a join condition.
func TestOneGeneratorIndexEquality(t *testing.T) {
	d := linalg.RandDense(6, 6, -3, 5, 53)
	ctx := dataflow.NewLocalContext()
	defer ctx.Close()
	cat := NewCatalog(ctx).BindMatrix("A", tiled.FromDense(ctx, d, 4, 2))
	env := (*comp.Env)(nil).Bind("A", comp.MatrixStorage{M: d})
	for _, c := range []struct{ body, kind string }{
		{"[ ((i,j), a) | ((i,j),a) <- A, i == j ]", "tile-map"},
		{"[ ((i,j), +/a) | ((i,j),a) <- A, i == j, group by (i,j) ]", "tile-map"},
		{"[ (((i+1) % 6, j), a) | ((i,j),a) <- A, j == i ]", "tile-replicate"},
	} {
		res, q := compileRun(t, cat, "tiled(6,6)"+c.body, opt.Options{})
		wantStrategy(t, q, c.kind)
		want := comp.MustEval(comp.Desugar(sacparser.MustParse("matrix(6,6)"+c.body)), env).(comp.MatrixStorage).M
		if got := res.Matrix.ToDense(); !got.EqualApprox(want, 1e-12) {
			t.Fatalf("%s: %v, want %v", c.body, got, want)
		}
	}
	res, q := compileRun(t, cat, "tiledvec(6)[ (i, +/a) | ((i,j),a) <- A, i == j, group by i ]", opt.Options{})
	wantStrategy(t, q, "tile-aggregate")
	if got := res.Vector.ToDense(); !got.EqualApprox(d.Diag(), 1e-12) {
		t.Fatalf("diagonal row sums %v, want %v", got.Data, d.Diag().Data)
	}
	res, q = compileRun(t, cat, "+/[ a | ((i,j),a) <- A, i == j ]", opt.Options{})
	wantStrategy(t, q, "tile-aggregate")
	if tr := d.Diag().Sum(); !approx(comp.MustFloat(res.Scalar), tr) {
		t.Fatalf("trace %v, want %v", res.Scalar, tr)
	}
}

// TestFusedRangeIndexing: the Section 2 indexing form A[i,j] over ranges
// that span A desugars to a generator ((v1,v2),x) <- A and the equalities
// v1 == i, v2 == j; range fusion drops the ranges, and those equalities
// only name A's indices, so they filter nothing. An equality of the two
// range variables does filter — the diagonal, v1 == v2. The map, Rule 15
// and tile-aggregation strategies plan each and agree with the reference
// evaluator.
func TestFusedRangeIndexing(t *testing.T) {
	d := linalg.RandDense(6, 6, -3, 5, 59)
	ctx := dataflow.NewLocalContext()
	defer ctx.Close()
	cat := NewCatalog(ctx).BindMatrix("A", tiled.FromDense(ctx, d, 4, 2))
	env := (*comp.Env)(nil).Bind("A", comp.MatrixStorage{M: d})
	const ranges = "i <- 0 until 6, j <- 0 until 6"
	for _, c := range []struct{ builder, body, kind string }{
		{"6,6", "[ ((i,j), A[i,j]*2.0) | " + ranges + " ]", "tile-map"},
		{"6,6", "[ ((j,i), A[i,j]) | " + ranges + " ]", "tile-map"},
		{"6,6", "[ ((i,j), +/a) | " + ranges + ", let a = A[i,j], group by (i,j) ]", "tile-map"},
		{"6,6", "[ ((i,j), A[i,j]) | " + ranges + ", i == j ]", "tile-map"},
		{"6", "[ (i, +/a) | " + ranges + ", let a = A[i,j], group by i ]", "tile-aggregate"},
		{"6", "[ (j, avg/a) | " + ranges + ", let a = A[i,j], group by j ]", "tile-aggregate"},
		{"6", "[ (i, +/a) | " + ranges + ", i == j, let a = A[i,j], group by i ]", "tile-aggregate"},
	} {
		tile, local := "tiled", "matrix"
		if !strings.Contains(c.builder, ",") {
			tile, local = "tiledvec", "vector"
		}
		res, q := compileRun(t, cat, tile+"("+c.builder+")"+c.body, opt.Options{})
		wantStrategy(t, q, c.kind)
		want := comp.MustEval(comp.Desugar(sacparser.MustParse(local+"("+c.builder+")"+c.body)), env)
		var got, w []float64
		if res.Matrix != nil {
			got, w = res.Matrix.ToDense().Data, want.(comp.MatrixStorage).M.Data
		} else {
			got, w = res.Vector.ToDense().Data, want.(comp.VectorStorage).V.Data
		}
		for x := range w {
			if !approx(got[x], w[x]) {
				t.Fatalf("%s: %v, want %v", c.body, got, w)
			}
		}
	}
}
