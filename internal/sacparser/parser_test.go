package sacparser

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/comp"
	"repro/internal/linalg"
)

func TestParseLiterals(t *testing.T) {
	cases := map[string]comp.Value{
		"42":     int64(42),
		"3.5":    3.5,
		"1e3":    1000.0,
		"true":   true,
		"false":  false,
		`"hi"`:   "hi",
		`"a\nb"`: "a\nb",
	}
	for src, want := range cases {
		e := MustParse(src)
		lit, ok := e.(comp.Lit)
		if !ok || !comp.Equal(lit.Val, want) {
			t.Fatalf("%q parsed to %v", src, e)
		}
	}
}

func TestParsePrecedence(t *testing.T) {
	// 1 + 2 * 3 == 7  must group as (1 + (2*3)) == 7.
	e := MustParse("1 + 2 * 3 == 7")
	if got := comp.MustEval(e, nil); got != true {
		t.Fatalf("precedence eval %v", got)
	}
	e2 := MustParse("(1 + 2) * 3")
	if got := comp.MustEval(e2, nil); got != int64(9) {
		t.Fatalf("paren eval %v", got)
	}
	e3 := MustParse("2 < 3 && 4 >= 4")
	if got := comp.MustEval(e3, nil); got != true {
		t.Fatalf("bool eval %v", got)
	}
	e4 := MustParse("-2 + 5")
	if got := comp.MustEval(e4, nil); got != int64(3) {
		t.Fatalf("unary eval %v", got)
	}
	e5 := MustParse("!false || false")
	if got := comp.MustEval(e5, nil); got != true {
		t.Fatalf("not eval %v", got)
	}
}

func TestParseRangeOps(t *testing.T) {
	e := MustParse("0 until 3+2")
	r := comp.MustEval(e, nil).(comp.Range)
	if r.Lo != 0 || r.Hi != 5 {
		t.Fatalf("until %+v", r)
	}
	e2 := MustParse("1 to 3")
	r2 := comp.MustEval(e2, nil).(comp.Range)
	if r2.Hi != 4 {
		t.Fatalf("to %+v", r2)
	}
}

func TestParseTuplesAndCalls(t *testing.T) {
	e := MustParse("(1, 2.5, min(3, 4))")
	got := comp.MustEval(e, nil)
	if !comp.Equal(got, comp.T(int64(1), 2.5, int64(3))) {
		t.Fatalf("tuple %v", comp.Render(got))
	}
	if _, ok := MustParse("()").(comp.TupleExpr); !ok {
		t.Fatal("unit tuple")
	}
}

func TestParseComprehension(t *testing.T) {
	e := MustParse("[ i*i | i <- 0 until 4 ]")
	got := comp.MustEval(e, nil).(comp.List)
	if !comp.Equal(got, comp.L(int64(0), int64(1), int64(4), int64(9))) {
		t.Fatalf("comprehension %v", comp.Render(got))
	}
}

func TestParseGuardsAndLets(t *testing.T) {
	e := MustParse("[ y | i <- 0 until 10, i % 3 == 0, let y = i + 1 ]")
	got := comp.MustEval(e, nil).(comp.List)
	if !comp.Equal(got, comp.L(int64(1), int64(4), int64(7), int64(10))) {
		t.Fatalf("got %v", comp.Render(got))
	}
}

func TestParseGroupBy(t *testing.T) {
	e := MustParse("[ (k, +/v) | (i,v) <- V, group by k: i % 2 ]")
	env := (*comp.Env)(nil).Bind("V", comp.VectorStorage{V: linalg.NewVectorFrom([]float64{1, 10, 2, 20})})
	got := comp.MustEval(e, env).(comp.List)
	sort.Slice(got, func(i, j int) bool { // by key
		return comp.MustTuple(got[i])[0].(int64) < comp.MustTuple(got[j])[0].(int64)
	})
	want := comp.L(comp.T(int64(0), 3.0), comp.T(int64(1), 30.0))
	if !comp.Equal(got, want) {
		t.Fatalf("got %v", comp.Render(got))
	}
}

// The paper's matrix multiplication Query (9), parsed from source.
func TestParseMatMulQuery(t *testing.T) {
	src := `matrix(3, 5)[ ((i,j), +/v) | ((i,k),a) <- M, ((kk,j),b) <- N,
	                      kk == k, let v = a*b, group by (i,j) ]`
	e := MustParse(src)
	a := linalg.RandDense(3, 4, 0, 2, 31)
	b := linalg.RandDense(4, 5, 0, 2, 32)
	env := (*comp.Env)(nil).
		Bind("M", comp.MatrixStorage{M: a}).
		Bind("N", comp.MatrixStorage{M: b})
	got := comp.MustEval(e, env).(comp.MatrixStorage)
	if !got.M.EqualApprox(linalg.Mul(a, b), 1e-9) {
		t.Fatal("parsed matmul mismatch")
	}
}

// The paper's Figure 1 row-sum query, parsed from source.
func TestParseRowSumQuery(t *testing.T) {
	src := `vector(2)[ (i, +/m) | ((i,j),m) <- M, group by i ]`
	m := linalg.NewDenseFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	env := (*comp.Env)(nil).Bind("M", comp.MatrixStorage{M: m})
	got := comp.MustEval(MustParse(src), env).(comp.VectorStorage)
	if !got.V.Equal(linalg.NewVectorFrom([]float64{6, 15})) {
		t.Fatalf("row sums %v", got.V.Data)
	}
}

// Matrix addition expressed with array indexing N[i,j] (Section 2),
// which the evaluator accesses directly.
func TestParseIndexedAddition(t *testing.T) {
	src := `matrix(2,2)[ ((i,j), a + N[i,j]) | ((i,j),a) <- M ]`
	a := linalg.RandDense(2, 2, 0, 5, 33)
	b := linalg.RandDense(2, 2, 0, 5, 34)
	env := (*comp.Env)(nil).
		Bind("M", comp.MatrixStorage{M: a}).
		Bind("N", comp.MatrixStorage{M: b})
	got := comp.MustEval(MustParse(src), env).(comp.MatrixStorage)
	if !got.M.EqualApprox(linalg.AddDense(a, b), 1e-12) {
		t.Fatal("indexed addition mismatch")
	}
}

func TestParseReductions(t *testing.T) {
	cases := map[string]comp.Value{
		"+/[ i | i <- 1 to 4 ]":          int64(10),
		"*/[ i | i <- 1 to 4 ]":          int64(24),
		"min/[ i | i <- 3 to 5 ]":        int64(3),
		"max/[ i | i <- 3 to 5 ]":        int64(5),
		"count/[ i | i <- 3 to 5 ]":      int64(3),
		"sum/[ i | i <- 1 to 3 ]":        int64(6),
		"avg/[ float(i) | i <- 1 to 3 ]": 2.0,
		"&&/[ i > 0 | i <- 1 to 3 ]":     true,
		"||/[ i > 2 | i <- 1 to 3 ]":     true,
	}
	for src, want := range cases {
		got := comp.MustEval(MustParse(src), nil)
		if !comp.Equal(got, want) {
			t.Fatalf("%q = %v, want %v", src, comp.Render(got), comp.Render(want))
		}
	}
}

func TestParseIfExpr(t *testing.T) {
	e := MustParse("if(2 > 1, 10, 20)")
	if got := comp.MustEval(e, nil); got != int64(10) {
		t.Fatalf("if %v", got)
	}
}

func TestParseBuilderWithoutArgs(t *testing.T) {
	e := MustParse("rdd[ (i, i) | i <- 0 until 2 ]")
	be, ok := e.(comp.BuildExpr)
	if !ok || be.Builder != "rdd" || len(be.Args) != 0 {
		t.Fatalf("rdd builder %v", e)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"1 +",
		"[ x | ",
		"matrix(2,2) 5",
		"(1, 2",
		"group",
		"[ x | group x ]",
		"let = 3",
		`"unterminated`,
		"1 @ 2",
		"[1, 2, 3]",
		// Arguments are separated by commas.
		"f(1 2)",
		"matrix(2 3)[ ((i,j),v) | ((i,j),v) <- A ]",
		"f(1,)",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Fatalf("expected parse error for %q", src)
		}
	}
}

func TestParseComments(t *testing.T) {
	e := MustParse("1 + // comment\n 2")
	if got := comp.MustEval(e, nil); got != int64(3) {
		t.Fatalf("comment handling %v", got)
	}
}

func TestParseEmptyList(t *testing.T) {
	e := MustParse("[]")
	got := comp.MustEval(e, nil).(comp.List)
	if len(got) != 0 {
		t.Fatalf("empty list %v", got)
	}
}

func TestParsePatternForms(t *testing.T) {
	e := MustParse("[ a | ((a, _), (b)) <- xs ]")
	c, ok := e.(comp.Comprehension)
	if !ok {
		t.Fatal("not a comprehension")
	}
	g := c.Quals[0].(comp.Generator)
	if g.Pat.String() != "((a,_),(b))" {
		t.Fatalf("pattern %s", g.Pat)
	}
}

// Round trip: printing a parsed expression and re-parsing yields an
// equivalent AST (as judged by printing again).
func TestParsePrintRoundTrip(t *testing.T) {
	srcs := []string{
		"matrix(3, 5)[ ((i,j), +/v) | ((i,k),a) <- M, ((kk,j),b) <- N, kk == k, let v = a*b, group by (i,j) ]",
		"vector(2)[ (i, +/m) | ((i,j),m) <- M, group by i ]",
		"[ (k, count(v)) | (i,v) <- V, group by k: i % 2 ]",
		"&&/[ v <= w | (i,v) <- V, (j,w) <- V, j == i+1 ]",
	}
	for _, src := range srcs {
		e1 := MustParse(src)
		p1 := e1.String()
		e2, err := Parse(p1)
		if err != nil {
			t.Fatalf("reparse of %q failed: %v\nprinted: %s", src, err, p1)
		}
		p2 := e2.String()
		if p1 != p2 {
			t.Fatalf("print round trip:\n%s\n%s", p1, p2)
		}
	}
}

func TestLexerOffsets(t *testing.T) {
	_, err := Parse("1 + $")
	if err == nil || !strings.Contains(err.Error(), "offset 4") {
		t.Fatalf("expected offset in error, got %v", err)
	}
}
