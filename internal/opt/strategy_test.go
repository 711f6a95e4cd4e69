package opt

import (
	"fmt"
	"testing"

	"repro/internal/comp"
	"repro/internal/sacparser"
)

// extract parses and extracts the body of a builder query.
func extract(t *testing.T, src string) *QueryInfo {
	t.Helper()
	e := comp.Desugar(sacparser.MustParse(src))
	b, ok := e.(comp.BuildExpr)
	if !ok {
		t.Fatalf("not a builder: %s", e)
	}
	info, err := Extract(b.Body.(comp.Comprehension))
	if err != nil {
		t.Fatal(err)
	}
	return info
}

func choose(t *testing.T, src string, opts Options) Strategy {
	t.Helper()
	s, err := Choose(extract(t, src), opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestExtractMatMul(t *testing.T) {
	info := extract(t, `tiled(6,6)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B,
	        kk == k, let v = a*b, group by (i,j) ]`)
	if len(info.Gens) != 2 {
		t.Fatalf("gens %d", len(info.Gens))
	}
	if info.Gens[0].Name != "A" || info.Gens[1].Name != "B" {
		t.Fatalf("gen names %v", info.Gens)
	}
	if len(info.JoinConds) != 1 || info.JoinConds[0] != [2]string{"kk", "k"} {
		t.Fatalf("join conds %v", info.JoinConds)
	}
	if len(info.GroupBy) != 2 {
		t.Fatalf("group by %v", info.GroupBy)
	}
	if len(info.Lets) != 1 {
		t.Fatalf("lets %d", len(info.Lets))
	}
}

// Qualifiers keep their source order on both sides of the group-by, and
// a HAVING clause — which no block rule has a per-group step for — sends
// an otherwise tile-aggregate query to the coordinate fallback instead of
// being read as an element filter.
func TestExtractSplitsAtGroupBy(t *testing.T) {
	src := "tiledvec(6)[ (i, +/a) | ((i,j),a) <- A, a > 1.0, let b = a*2.0, group by i, let s = +/b, s > 3.0 ]"
	info := extract(t, src)
	if len(info.Quals) != 3 || len(info.PostQuals) != 2 || len(info.Lets) != 1 || len(info.Filters) != 1 {
		t.Fatalf("quals %v post %v lets %v filters %v", info.Quals, info.PostQuals, info.Lets, info.Filters)
	}
	if _, ok := info.Quals[0].(comp.Generator); !ok {
		t.Fatalf("first qualifier %s", info.Quals[0])
	}
	if _, ok := info.PostQuals[0].(comp.LetQual); !ok {
		t.Fatalf("first post-group qualifier %s", info.PostQuals[0])
	}
	if k := choose(t, src, Options{}).Kind(); k != "coordinate" {
		t.Fatalf("having clause chose %s", k)
	}
}

func TestExtractRejectsOddShapes(t *testing.T) {
	for _, src := range []string{
		"[ x | x <- A ]", // head not a pair
		"[ (i, v) | (i,v) <- A, group by i, (j,w) <- B ]", // generator after group-by
	} {
		e := comp.Desugar(sacparser.MustParse(src))
		c := e.(comp.Comprehension)
		if _, err := Extract(c); err == nil {
			t.Fatalf("expected extract error for %q", src)
		}
	}
}

func TestChooseMatMulVariants(t *testing.T) {
	src := `tiled(6,6)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B,
	          kk == k, let v = a*b, group by (i,j) ]`
	if k := choose(t, src, Options{}).Kind(); k != "group-by-join" {
		t.Fatalf("default kind %s", k)
	}
	if k := choose(t, src, Options{DisableGBJ: true}).Kind(); k != "join-reduce" {
		t.Fatalf("no-GBJ kind %s", k)
	}
	if k := choose(t, src, Options{DisableTilingPreservation: true}).Kind(); k != "coordinate" {
		t.Fatalf("no-tiling kind %s", k)
	}
	// Orientation is read off where each generator binds the contracted
	// index, whichever generator the query lists first.
	for _, c := range []struct {
		gens           string
		transA, transB bool
	}{
		{"((i,k),a) <- A, ((kk,j),b) <- B", false, false},
		{"((k,i),a) <- A, ((kk,j),b) <- B", true, false},
		{"((i,k),a) <- A, ((j,kk),b) <- B", false, true},
		{"((k,i),a) <- A, ((j,kk),b) <- B", true, true},
		{"((j,kk),b) <- B, ((k,i),a) <- A", true, true},
	} {
		s := choose(t, "tiled(6,6)[ ((i,j), +/v) | "+c.gens+", kk == k, let v = a*b, group by (i,j) ]", Options{})
		g, ok := s.(*GroupByJoinStrategy)
		if !ok || g.GenA.Name != "A" || g.TransA != c.transA || g.TransB != c.transB {
			t.Fatalf("%s: chose %+v, want A first with transA=%v transB=%v", c.gens, s, c.transA, c.transB)
		}
	}
}

func TestChooseAddition(t *testing.T) {
	src := "tiled(6,6)[ ((i,j), a+b) | ((i,j),a) <- A, ((ii,jj),b) <- B, ii == i, jj == j ]"
	s := choose(t, src, Options{})
	if s.Kind() != "tile-zip" {
		t.Fatalf("kind %s", s.Kind())
	}
}

func TestChooseTransposeAndMap(t *testing.T) {
	if k := choose(t, "tiled(6,6)[ ((j,i), a) | ((i,j),a) <- A ]", Options{}).Kind(); k != "tile-map" {
		t.Fatalf("transpose kind %s", k)
	}
	if k := choose(t, "tiled(6,6)[ ((i,j), a*2.0) | ((i,j),a) <- A ]", Options{}).Kind(); k != "tile-map" {
		t.Fatalf("map kind %s", k)
	}
}

func TestChooseRule15(t *testing.T) {
	s := choose(t, "tiled(6,6)[ ((i,j), +/a) | ((i,j),a) <- A, group by (i,j) ]", Options{})
	m, ok := s.(*MapStrategy)
	if !ok || !m.ViaRule15 {
		t.Fatalf("expected Rule 15 map, got %s", s.Describe())
	}
	// count over a singleton group becomes the literal 1.
	s2 := choose(t, "tiled(6,6)[ ((i,j), count(a)) | ((i,j),a) <- A, group by (i,j) ]", Options{})
	if s2.Kind() != "coordinate" {
		// count(x) is a Call, not a Reduce; the Rule 15 path rewrites
		// only after key analysis, so either result is acceptable as
		// long as it is semantically handled. Assert it chose a
		// strategy at all.
		if s2.Kind() != "tile-map" {
			t.Fatalf("count group-by kind %s", s2.Kind())
		}
	}
}

func TestChooseRowSums(t *testing.T) {
	s := choose(t, "tiledvec(6)[ (i, +/a) | ((i,j),a) <- A, group by i ]", Options{})
	agg, ok := s.(*TileAggStrategy)
	if !ok {
		t.Fatalf("kind %s", s.Kind())
	}
	if agg.KeyPos[0] != 0 || len(agg.Aggs) != 1 || agg.Aggs[0].Monoid != "+" {
		t.Fatalf("agg %+v", agg)
	}
	s2 := choose(t, "tiledvec(6)[ (j, max/a) | ((i,j),a) <- A, group by j ]", Options{})
	agg2 := s2.(*TileAggStrategy)
	if agg2.KeyPos[0] != 1 || len(agg2.Aggs) != 1 || agg2.Aggs[0].Monoid != "max" {
		t.Fatalf("agg2 %+v", agg2)
	}
}

// avg is a tile aggregation, alone and in a Rule 12 mix: it folds as comp's
// (sum, count) pair, +/a and count/a, and the finalize divides them.
func TestChooseAvgIsTileAggregate(t *testing.T) {
	for src, want := range map[string]string{
		"tiledvec(6)[ (i, avg/a) | ((i,j),a) <- A, group by i ]":         "[+ count] if((_hole1c == 0), 0, (_hole1s / float(_hole1c)))",
		"tiledvec(6)[ (j, avg/a + max/a) | ((i,j),a) <- A, group by j ]": "[+ count max] (if((_hole1c == 0), 0, (_hole1s / float(_hole1c))) + _hole2)",
	} {
		s, ok := choose(t, src, Options{}).(*TileAggStrategy)
		if !ok {
			t.Fatalf("%s: chose %+v", src, s)
		}
		var names []string
		for _, a := range s.Aggs {
			names = append(names, a.Monoid)
		}
		if got := fmt.Sprintf("%v %s", names, s.FinalExpr); got != want {
			t.Fatalf("%s: %s, want %s", src, got, want)
		}
	}
	// comp cannot substitute the quotient into a comprehension in the
	// finalize; that avg is the coordinate fallback's.
	if k := choose(t, "tiledvec(6)[ (i, avg/a + +/[ 1.0 | x <- 0 until 3 ]) | ((i,j),a) <- A, group by i ]", Options{}).Kind(); k != "coordinate" {
		t.Fatalf("avg beside a comprehension chose %s", k)
	}
}

// The tile aggregation writes group i at position i, so it takes only a
// head key that is the group key (or a variable equated to it); any other
// key is the coordinate fallback's, which shifts or rejects it.
func TestChooseTileAggHeadKey(t *testing.T) {
	for src, kind := range map[string]string{
		"tiledvec(6)[ (i, +/a) | ((i,j),a) <- A, group by i ]":         "tile-aggregate",
		"tiledvec(6)[ (i+1, +/a) | ((i,j),a) <- A, group by i ]":       "coordinate",
		"tiledvec(6)[ (0, max/a) | ((i,j),a) <- A, group by i ]":       "coordinate",
		"tiledvec(6)[ ((i,0), avg/a) | ((i,j),a) <- A, group by i ]":   "coordinate",
		"tiledvec(6)[ (j, +/a) | ((i,j),a) <- A, group by i ]":         "coordinate",
		"tiledvec(6)[ (i, +/a) | ((i,j),a) <- A, i == j, group by j ]": "tile-aggregate",
	} {
		if got := choose(t, src, Options{}).Kind(); got != kind {
			t.Errorf("%s: %s, want %s", src, got, kind)
		}
	}
}

// extractTotal parses a total reduction ⊕/[ e | quals ] and extracts its
// body under a unit key, as plan.Compile does.
func extractTotal(t *testing.T, src string) (*QueryInfo, string) {
	t.Helper()
	r, ok := comp.Desugar(sacparser.MustParse(src)).(comp.Reduce)
	if !ok {
		t.Fatalf("not a total: %s", src)
	}
	c := r.E.(comp.Comprehension)
	info, err := Extract(comp.Comprehension{Head: comp.TupleExpr{Elems: []comp.Expr{comp.TupleExpr{}, c.Head}}, Quals: c.Quals})
	if err != nil {
		t.Fatal(err)
	}
	return info, r.Monoid
}

// A total over one array with a scalar monoid is a tile aggregation with
// the empty key, its guards — a diagonal's index equality included — its
// filters; joins, ranges, &&, || and ++ stay on the coordinate path, as
// does everything with tiling preservation disabled.
func TestChooseTotal(t *testing.T) {
	for _, c := range []struct {
		src, kind string
		filters   int
	}{
		{"+/[ a | ((i,j),a) <- A ]", "tile-aggregate", 0},
		{"avg/[ a*2.0 | ((i,j),a) <- A, a > 1.0, let b = a ]", "tile-aggregate", 1},
		{"+/[ m | ((i,j),m) <- A, i == j ]", "tile-aggregate", 1},
		{"min/[ x | (i,x) <- V, i < 3 ]", "tile-aggregate", 1},
		{"count/[ (i,a) | ((i,j),a) <- A ]", "tile-aggregate", 0}, // plan keeps a tuple head on the coordinate path
		{"&&/[ a > 0.0 | ((i,j),a) <- A ]", "coordinate", 0},
		{"++/[ [a] | ((i,j),a) <- A ]", "coordinate", 0},
		{"+/[ a*b | ((i,j),a) <- A, ((ii,jj),b) <- B, ii == i, jj == j ]", "coordinate", 0},
		{"+/[ a | ((i,j),a) <- A, k <- 0 until 3, k == i ]", "coordinate", 0},
	} {
		info, monoid := extractTotal(t, c.src)
		s := ChooseTotal(info, monoid, Options{}, nil)
		if s.Kind() != c.kind {
			t.Fatalf("%s: %s, want %s", c.src, s.Describe(), c.kind)
		}
		if ta, ok := s.(*TileAggStrategy); ok {
			if len(ta.KeyPos) != 0 || len(ta.Filters) != c.filters || ta.Decision != nil {
				t.Fatalf("%s: %+v", c.src, ta)
			}
			if d := ta.Describe(); !contains(d, "no shuffle") || contains(d, "reduceByKey") {
				t.Fatalf("%s: describe %q", c.src, d)
			}
		}
		if k := ChooseTotal(info, monoid, Options{DisableTilingPreservation: true}, nil).Kind(); k != "coordinate" {
			t.Fatalf("%s: tiling preservation disabled chose %s", c.src, k)
		}
	}
}

func TestChooseRotation(t *testing.T) {
	s := choose(t, "tiled(6,6)[ (((i+1) % 6, j), a) | ((i,j),a) <- A ]", Options{})
	rep, ok := s.(*ReplicateStrategy)
	if !ok {
		t.Fatalf("kind %s", s.Kind())
	}
	if rep.Keys[0].Off != 1 || rep.Keys[0].Mod != 6 {
		t.Fatalf("affine key %+v", rep.Keys[0])
	}
	if !rep.Keys[1].Identity() {
		t.Fatalf("second key %+v", rep.Keys[1])
	}
}

func TestChooseMinPlusFallsBack(t *testing.T) {
	// Tropical matrix "multiplication" (min-plus) is a GBJ shape with
	// a non-+ monoid; it must run through the coordinate fallback.
	src := `tiled(6,6)[ ((i,j), min/v) | ((i,k),a) <- A, ((kk,j),b) <- B,
	          kk == k, let v = a+b, group by (i,j) ]`
	if k := choose(t, src, Options{}).Kind(); k != "coordinate" {
		t.Fatalf("min-plus kind %s", k)
	}
}

func TestChooseSmoothingFallsBack(t *testing.T) {
	src := `tiled(4,4)[ ((ii,jj), +/a) | ((i,j),a) <- A,
	          ii <- (i-1) to (i+1), jj <- (j-1) to (j+1), group by (ii,jj) ]`
	if k := choose(t, src, Options{}).Kind(); k != "coordinate" {
		t.Fatalf("smoothing kind %s", k)
	}
}

func TestAffineComponentParsing(t *testing.T) {
	cases := []struct {
		src  string
		want AffineKey
		ok   bool
	}{
		{"i", AffineKey{Var: "i"}, true},
		{"i+3", AffineKey{Var: "i", Off: 3}, true},
		{"i-2", AffineKey{Var: "i", Off: -2}, true},
		{"(i+1) % 7", AffineKey{Var: "i", Off: 1, Mod: 7}, true},
		{"i % 4", AffineKey{Var: "i", Mod: 4}, true},
		{"i*2", AffineKey{}, false},
		{"i+j", AffineKey{}, false},
	}
	for _, c := range cases {
		e := sacparser.MustParse(c.src)
		got, ok := affineComponent(e)
		if ok != c.ok {
			t.Fatalf("%q ok=%v want %v", c.src, ok, c.ok)
		}
		if ok && got != c.want {
			t.Fatalf("%q = %+v want %+v", c.src, got, c.want)
		}
	}
}

func TestAffineKeyString(t *testing.T) {
	if got := (AffineKey{Var: "i", Off: 1, Mod: 6}).String(); got != "(i+1)%6" {
		t.Fatalf("affine string %q", got)
	}
	if got := (AffineKey{Var: "j", Off: -2}).String(); got != "j-2" {
		t.Fatalf("affine string %q", got)
	}
}

func TestUnionFindClasses(t *testing.T) {
	info := extract(t, "tiled(6,6)[ ((i,j), a+b) | ((i,j),a) <- A, ((ii,jj),b) <- B, ii == i, jj == j ]")
	u := info.varClasses()
	if u.find("i") != u.find("ii") || u.find("j") != u.find("jj") {
		t.Fatal("join conditions not unified")
	}
	if u.find("i") == u.find("j") {
		t.Fatal("distinct axes merged")
	}
}

func TestDescribeStrings(t *testing.T) {
	src := `tiled(6,6)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B,
	          kk == k, let v = a*b, group by (i,j) ]`
	for _, c := range []struct {
		opts Options
		want string
	}{
		{Options{}, "SUMMA"},
		{Options{DisableGBJ: true}, "reduceByKey"},
		{Options{DisableGBJ: true, DisableReduceByKey: true}, "groupByKey"},
	} {
		d := choose(t, src, c.opts).Describe()
		if !contains(d, c.want) {
			t.Fatalf("describe %q missing %q", d, c.want)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestChooseMatVecShapes(t *testing.T) {
	src := `tiledvec(6)[ (i, +/v) | ((i,k),a) <- A, (kk,x) <- V, kk == k, let v = a*x, group by i ]`
	s := choose(t, src, Options{})
	mv, ok := s.(*MatVecStrategy)
	if !ok {
		t.Fatalf("kind %s", s.Kind())
	}
	if mv.Trans {
		t.Fatal("M x chosen as transposed")
	}
	if !contains(mv.Describe(), "M x") {
		t.Fatalf("describe %q", mv.Describe())
	}
	// Transposed orientation.
	src2 := `tiledvec(4)[ (j, +/v) | ((k,j),a) <- A, (kk,x) <- V, kk == k, let v = a*x, group by j ]`
	mv2 := choose(t, src2, Options{}).(*MatVecStrategy)
	if !mv2.Trans || !contains(mv2.Describe(), "M^T x") {
		t.Fatalf("trans matvec %+v", mv2)
	}
	// min monoid must not match matvec.
	src3 := `tiledvec(6)[ (i, min/v) | ((i,k),a) <- A, (kk,x) <- V, kk == k, let v = a*x, group by i ]`
	if k := choose(t, src3, Options{}).Kind(); k == "matvec" {
		t.Fatal("min contraction must not use matvec")
	}
}

func TestFuseRangesVerified(t *testing.T) {
	info := extract(t, `tiled(6,6)[ ((i,j), +/w) | ((i,k),a) <- A, j <- 0 until 6,
	          ((kk,jj),b) <- B, kk == k, jj == j, let w = a*b, group by (i,j) ]`)
	dims := func(name string, pos int) (int64, bool) {
		return 6, true // both matrices are 6x6
	}
	info.FuseRanges(dims)
	if len(info.RangeGens) != 0 {
		t.Fatalf("full-span range should fuse: %v", info.RangeGens)
	}
	// A narrower range must be kept.
	info2 := extract(t, `tiled(6,6)[ ((i,j), +/w) | ((i,k),a) <- A, j <- 0 until 3,
	          ((kk,jj),b) <- B, kk == k, jj == j, let w = a*b, group by (i,j) ]`)
	info2.FuseRanges(dims)
	if len(info2.RangeGens) != 1 {
		t.Fatal("narrow range must not fuse")
	}
	// Unknown dimensions: keep the range.
	info3 := extract(t, `tiled(6,6)[ ((i,j), +/w) | ((i,k),a) <- A, j <- 0 until 6,
	          ((kk,jj),b) <- B, kk == k, jj == j, let w = a*b, group by (i,j) ]`)
	info3.FuseRanges(func(string, int) (int64, bool) { return 0, false })
	if len(info3.RangeGens) != 1 {
		t.Fatal("unknown dims must not fuse")
	}
}

func TestStrategyDescribeAll(t *testing.T) {
	// Every strategy's Kind/Describe are exercised for diagnostics.
	cases := map[string]string{
		"tiled(6,6)[ ((j,i), a) | ((i,j),a) <- A ]":                                       "tile-map",
		"tiled(6,6)[ ((i,j), a+b) | ((i,j),a) <- A, ((ii,jj),b) <- B, ii == i, jj == j ]": "tile-zip",
		"tiledvec(6)[ (i, +/a) | ((i,j),a) <- A, group by i ]":                            "tile-aggregate",
		"tiled(6,6)[ (((i+1) % 6, j), a) | ((i,j),a) <- A ]":                              "tile-replicate",
		"tiledvec(6)[ (i+1, avg/a) | ((i,j),a) <- A, group by i ]":                        "coordinate",
	}
	for src, kind := range cases {
		s := choose(t, src, Options{})
		if s.Kind() != kind {
			t.Fatalf("%q kind %s want %s", src, s.Kind(), kind)
		}
		if s.Describe() == "" {
			t.Fatalf("%q empty description", src)
		}
	}
}
