package diablo

import (
	"strings"
	"testing"

	"repro/internal/comp"
	"repro/internal/dataflow"
	"repro/internal/linalg"
	"repro/internal/opt"
	"repro/internal/plan"
	"repro/internal/tiled"
)

const rowSumProgram = `
var V: vector[n];
for i = 0, n-1 do
    for j = 0, m-1 do
        V[i] += M[i, j];
`

const matmulProgram = `
var C: matrix[n, m];
for i = 0, n-1 do
    for k = 0, l-1 do
        for j = 0, m-1 do
            C[i, j] += M[i, k] * N[k, j];
`

func TestParseProgram(t *testing.T) {
	prog := MustParse(matmulProgram)
	if len(prog.Decls) != 1 || prog.Decls[0].Name != "C" || prog.Decls[0].Kind != "matrix" {
		t.Fatalf("decls %+v", prog.Decls)
	}
	if len(prog.Stmts) != 1 {
		t.Fatalf("stmts %d", len(prog.Stmts))
	}
	f := prog.Stmts[0].(ForStmt)
	if f.Var != "i" {
		t.Fatalf("outer loop %q", f.Var)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"var X: tensor[2]",
		"var V: vector[n] for",
		"for i = 0 do V[i] += 1",
		"V[i] = 3",
		"for i = 0, 5 do V[i",
		"var M: matrix[n]",
		"@",
		"var V: vector[n]; for i = 0, n-1 do V[i] += f(1 2)", // arguments need commas
		"var V: vector[n]; for to = 0, n-1 do V[to] += 1",    // SAC's keywords are reserved
		"var V: vector[n]; for i = 0, n-1 do V[i] + min= 1",
		"var V: vector[n]; for i = 0, n-1 do V[i] + = 1", // an update operator is one word
		"var V: vector[n]; for i = 0, n-1 do V[i] min = 1",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Fatalf("expected error for %q", src)
		}
	}
}

// TestSACOnlyFormsRejected: expressions are read with SAC's grammar, but
// the loop language does not grow — a form only SAC has is a parse error
// that names it.
func TestSACOnlyFormsRejected(t *testing.T) {
	for _, tc := range []struct{ rhs, form string }{
		{`"s"`, "a string literal"},
		{"[ x | (j,x) <- W ]", "a comprehension"},
		{"vector(n)[ (j,x) | (j,x) <- W ]", "a builder"},
		{"+/[ x | (j,x) <- W ]", "a reduction"},
		{"sum/W", "a reduction"},
		{"(1, 2)", "a tuple"},
		{"if(!b, 1, 0)", `the operator "!"`},
		{"W ++ W", `the operator "++"`},
		{"1 until 3", `the operator "until"`},
		{"0 to 3", `the operator "to"`},
		{"M[i, do]", `the reserved word "do"`},
	} {
		src := "var V: vector[n]; for i = 0, n-1 do V[i] += " + tc.rhs
		_, err := Parse(src)
		if err == nil || !strings.Contains(err.Error(), tc.form) {
			t.Errorf("%s: error %v, want one naming %s", tc.rhs, err, tc.form)
		}
	}
}

func TestTranslateRowSums(t *testing.T) {
	asgs, err := Translate(MustParse(rowSumProgram), "tiled")
	if err != nil {
		t.Fatal(err)
	}
	if len(asgs) != 1 || asgs[0].Dest != "V" {
		t.Fatalf("assignments %+v", asgs)
	}
	q := asgs[0].Query.String()
	// The translation should traverse M, not loop over ranges.
	if !strings.Contains(q, "<- M") || strings.Contains(q, "to") {
		t.Fatalf("translation should traverse M: %s", q)
	}
	if !strings.Contains(q, "group by i") {
		t.Fatalf("translation should group by the destination index: %s", q)
	}
}

func TestTranslateRejectsRecurrence(t *testing.T) {
	src := `
var V: vector[n];
for i = 0, n-2 do
    V[i] += V[i+1];
`
	if _, err := Translate(MustParse(src), "tiled"); err == nil {
		t.Fatal("expected recurrence rejection")
	}
}

func TestTranslateRejectsUndeclared(t *testing.T) {
	src := `for i = 0, n-1 do W[i] += 1.0;`
	if _, err := Translate(MustParse(src), "tiled"); err == nil {
		t.Fatal("expected undeclared-array error")
	}
}

func TestRunLocalRowSums(t *testing.T) {
	m := linalg.RandDense(4, 3, 0, 5, 1)
	bindings := map[string]comp.Value{
		"M": comp.MatrixStorage{M: m},
		"n": int64(4), "m": int64(3),
	}
	if err := RunLocal(MustParse(rowSumProgram), bindings); err != nil {
		t.Fatal(err)
	}
	v := bindings["V"].(comp.VectorStorage)
	if !v.V.EqualApprox(m.RowSums(), 1e-9) {
		t.Fatalf("row sums %v vs %v", v.V.Data, m.RowSums().Data)
	}
}

func TestRunLocalMatMul(t *testing.T) {
	a := linalg.RandDense(3, 4, 0, 2, 2)
	b := linalg.RandDense(4, 5, 0, 2, 3)
	bindings := map[string]comp.Value{
		"M": comp.MatrixStorage{M: a},
		"N": comp.MatrixStorage{M: b},
		"n": int64(3), "l": int64(4), "m": int64(5),
	}
	if err := RunLocal(MustParse(matmulProgram), bindings); err != nil {
		t.Fatal(err)
	}
	c := bindings["C"].(comp.MatrixStorage)
	if !c.M.EqualApprox(linalg.Mul(a, b), 1e-9) {
		t.Fatal("loop matmul mismatch")
	}
}

func TestRunDistributedMatMulUsesGBJ(t *testing.T) {
	ctx := dataflow.NewLocalContext()
	a := linalg.RandDense(6, 4, 0, 2, 4)
	b := linalg.RandDense(4, 5, 0, 2, 5)
	cat := plan.NewCatalog(ctx).
		BindMatrix("M", tiled.FromDense(ctx, a, 2, 2)).
		BindMatrix("N", tiled.FromDense(ctx, b, 2, 2)).
		BindScalar("n", int64(6)).
		BindScalar("l", int64(4)).
		BindScalar("m", int64(5))
	plans, err := RunDistributed(MustParse(matmulProgram), cat, opt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 1 || !strings.Contains(plans[0], "SUMMA") {
		t.Fatalf("loop matmul should compile to the SUMMA group-by-join: %v", plans)
	}
	res, err := plan.Run(comp.BuildExpr{
		Builder: "rdd",
		Body: comp.Comprehension{
			Head: comp.TupleExpr{Elems: []comp.Expr{
				comp.TupleExpr{Elems: []comp.Expr{comp.Var{Name: "i"}, comp.Var{Name: "j"}}},
				comp.Var{Name: "v"},
			}},
			Quals: []comp.Qualifier{
				comp.Generator{Pat: comp.PT(comp.PT(comp.PV("i"), comp.PV("j")), comp.PV("v")), Src: comp.Var{Name: "C"}},
			},
		},
	}, cat, opt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := linalg.Mul(a, b)
	for _, row := range res.List {
		tup := comp.MustTuple(row)
		key := comp.MustTuple(tup[0])
		i, j := comp.MustInt(key[0]), comp.MustInt(key[1])
		got := comp.MustFloat(tup[1])
		if d := got - want.At(int(i), int(j)); d > 1e-9 || d < -1e-9 {
			t.Fatalf("C[%d,%d] = %v want %v", i, j, got, want.At(int(i), int(j)))
		}
	}
}

func TestRunDistributedRowSums(t *testing.T) {
	ctx := dataflow.NewLocalContext()
	m := linalg.RandDense(6, 4, 0, 5, 6)
	cat := plan.NewCatalog(ctx).
		BindMatrix("M", tiled.FromDense(ctx, m, 2, 2)).
		BindScalar("n", int64(6)).
		BindScalar("m", int64(4))
	plans, err := RunDistributed(MustParse(rowSumProgram), cat, opt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plans[0], "tile-") && !strings.Contains(plans[0], "aggregation") {
		t.Fatalf("row sums should use the block path: %v", plans)
	}
}

func TestSequentialStatementsChain(t *testing.T) {
	// Second statement reads the first statement's result.
	src := `
var V: vector[n];
var W: vector[n];
for i = 0, n-1 do
    for j = 0, m-1 do
        V[i] += M[i, j];
for i = 0, n-1 do
    W[i] := V[i] * 2.0;
`
	m := linalg.RandDense(4, 3, 0, 5, 7)
	bindings := map[string]comp.Value{
		"M": comp.MatrixStorage{M: m},
		"n": int64(4), "m": int64(3),
	}
	if err := RunLocal(MustParse(src), bindings); err != nil {
		t.Fatal(err)
	}
	w := bindings["W"].(comp.VectorStorage)
	want := m.RowSums().ScaleInPlace(2)
	if !w.V.EqualApprox(want, 1e-9) {
		t.Fatalf("chained result %v vs %v", w.V.Data, want.Data)
	}
}

func TestComputedDestinationKey(t *testing.T) {
	// Transpose written as a loop with := and swapped subscripts.
	src := `
var T: matrix[m, n];
for i = 0, n-1 do
    for j = 0, m-1 do
        T[j, i] := M[i, j];
`
	m := linalg.RandDense(3, 5, 0, 5, 8)
	bindings := map[string]comp.Value{
		"M": comp.MatrixStorage{M: m},
		"n": int64(3), "m": int64(5),
	}
	if err := RunLocal(MustParse(src), bindings); err != nil {
		t.Fatal(err)
	}
	tr := bindings["T"].(comp.MatrixStorage)
	if !tr.M.Equal(m.Transpose()) {
		t.Fatal("loop transpose mismatch")
	}
}

func TestShiftedDestination(t *testing.T) {
	// Histogram-style computed group key: count into buckets i/2.
	src := `
var H: vector[hn];
for i = 0, n-1 do
    H[i / 2] += V[i];
`
	v := linalg.NewVectorFrom([]float64{1, 2, 3, 4, 5})
	bindings := map[string]comp.Value{
		"V":  comp.VectorStorage{V: v},
		"n":  int64(5),
		"hn": int64(3),
	}
	if err := RunLocal(MustParse(src), bindings); err != nil {
		t.Fatal(err)
	}
	h := bindings["H"].(comp.VectorStorage)
	want := linalg.NewVectorFrom([]float64{3, 7, 5})
	if !h.V.EqualApprox(want, 1e-9) {
		t.Fatalf("buckets %v want %v", h.V.Data, want.Data)
	}
}

func TestMinUpdateOperator(t *testing.T) {
	src := `
var V: vector[n];
for i = 0, n-1 do
    for j = 0, m-1 do
        V[i] min= M[i, j];
`
	m := linalg.RandDense(3, 4, 1, 9, 9)
	bindings := map[string]comp.Value{
		"M": comp.MatrixStorage{M: m},
		"n": int64(3), "m": int64(4),
	}
	if err := RunLocal(MustParse(src), bindings); err != nil {
		t.Fatal(err)
	}
	got := bindings["V"].(comp.VectorStorage)
	for i := 0; i < 3; i++ {
		min := m.At(i, 0)
		for j := 1; j < 4; j++ {
			if m.At(i, j) < min {
				min = m.At(i, j)
			}
		}
		if got.V.At(i) != min {
			t.Fatalf("row %d min %v want %v", i, got.V.At(i), min)
		}
	}
}

// Local and distributed execution agree on the same loop program.
func TestLocalDistributedAgree(t *testing.T) {
	a := linalg.RandDense(6, 4, 0, 2, 10)
	b := linalg.RandDense(4, 6, 0, 2, 11)
	bindings := map[string]comp.Value{
		"M": comp.MatrixStorage{M: a},
		"N": comp.MatrixStorage{M: b},
		"n": int64(6), "l": int64(4), "m": int64(6),
	}
	if err := RunLocal(MustParse(matmulProgram), bindings); err != nil {
		t.Fatal(err)
	}
	local := bindings["C"].(comp.MatrixStorage)

	ctx := dataflow.NewLocalContext()
	cat := plan.NewCatalog(ctx).
		BindMatrix("M", tiled.FromDense(ctx, a, 2, 2)).
		BindMatrix("N", tiled.FromDense(ctx, b, 2, 2)).
		BindScalar("n", int64(6)).
		BindScalar("l", int64(4)).
		BindScalar("m", int64(6))
	if _, err := RunDistributed(MustParse(matmulProgram), cat, opt.Options{}); err != nil {
		t.Fatal(err)
	}
	res, err := plan.Run(comp.BuildExpr{
		Builder: "rdd",
		Body: comp.Comprehension{
			Head: comp.TupleExpr{Elems: []comp.Expr{
				comp.TupleExpr{Elems: []comp.Expr{comp.Var{Name: "i"}, comp.Var{Name: "j"}}},
				comp.Var{Name: "v"},
			}},
			Quals: []comp.Qualifier{
				comp.Generator{Pat: comp.PT(comp.PT(comp.PV("i"), comp.PV("j")), comp.PV("v")), Src: comp.Var{Name: "C"}},
			},
		},
	}, cat, opt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.List {
		tup := comp.MustTuple(row)
		key := comp.MustTuple(tup[0])
		i, j := comp.MustInt(key[0]), comp.MustInt(key[1])
		if d := comp.MustFloat(tup[1]) - local.M.At(int(i), int(j)); d > 1e-9 || d < -1e-9 {
			t.Fatalf("divergence at (%d,%d)", i, j)
		}
	}
}

// A five-point stencil (heat diffusion step) with shifted subscripts:
// the reads A[i-1,j] etc. cannot become traversals, so they desugar to
// joins in the coordinate pipeline; loop bounds keep the boundary
// fixed.
func TestStencilDiffusion(t *testing.T) {
	src := `
var B: matrix[n, n];
for i = 1, n-2 do
    for j = 1, n-2 do
        B[i, j] := 0.25 * (A[i-1, j] + A[i+1, j] + A[i, j-1] + A[i, j+1]);
`
	const n = 6
	a := linalg.RandDense(n, n, 0, 10, 12)
	bindings := map[string]comp.Value{
		"A": comp.MatrixStorage{M: a},
		"n": int64(n),
	}
	if err := RunLocal(MustParse(src), bindings); err != nil {
		t.Fatal(err)
	}
	got := bindings["B"].(comp.MatrixStorage).M
	for i := 1; i < n-1; i++ {
		for j := 1; j < n-1; j++ {
			want := 0.25 * (a.At(i-1, j) + a.At(i+1, j) + a.At(i, j-1) + a.At(i, j+1))
			if d := got.At(i, j) - want; d > 1e-9 || d < -1e-9 {
				t.Fatalf("stencil (%d,%d): %v want %v", i, j, got.At(i, j), want)
			}
		}
	}
	// Boundary stays zero (never written).
	if got.At(0, 0) != 0 || got.At(n-1, n-1) != 0 {
		t.Fatal("boundary should be untouched")
	}
}

// The same stencil on the distributed back end.
func TestStencilDistributed(t *testing.T) {
	src := `
var B: matrix[n, n];
for i = 1, n-2 do
    for j = 1, n-2 do
        B[i, j] := 0.25 * (A[i-1, j] + A[i+1, j] + A[i, j-1] + A[i, j+1]);
`
	const n = 6
	a := linalg.RandDense(n, n, 0, 10, 13)
	ctx := dataflow.NewLocalContext()
	cat := plan.NewCatalog(ctx).
		BindMatrix("A", tiled.FromDense(ctx, a, 2, 2)).
		BindScalar("n", int64(n))
	if _, err := RunDistributed(MustParse(src), cat, opt.Options{}); err != nil {
		t.Fatal(err)
	}
	res, err := plan.Run(comp.BuildExpr{
		Builder: "rdd",
		Body: comp.Comprehension{
			Head: comp.TupleExpr{Elems: []comp.Expr{
				comp.TupleExpr{Elems: []comp.Expr{comp.Var{Name: "i"}, comp.Var{Name: "j"}}},
				comp.Var{Name: "v"},
			}},
			Quals: []comp.Qualifier{
				comp.Generator{Pat: comp.PT(comp.PT(comp.PV("i"), comp.PV("j")), comp.PV("v")), Src: comp.Var{Name: "B"}},
			},
		},
	}, cat, opt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.List {
		tup := comp.MustTuple(row)
		key := comp.MustTuple(tup[0])
		i, j := int(comp.MustInt(key[0])), int(comp.MustInt(key[1]))
		want := 0.0
		if i >= 1 && i < n-1 && j >= 1 && j < n-1 {
			want = 0.25 * (a.At(i-1, j) + a.At(i+1, j) + a.At(i, j-1) + a.At(i, j+1))
		}
		if d := comp.MustFloat(tup[1]) - want; d > 1e-9 || d < -1e-9 {
			t.Fatalf("distributed stencil (%d,%d): %v want %v", i, j, tup[1], want)
		}
	}
}

// A braced loop body with several statements translates each update.
func TestBlockBodyMultipleStatements(t *testing.T) {
	src := `
var V: vector[n];
var W: vector[n];
for i = 0, n-1 do {
    for j = 0, m-1 do {
        V[i] += M[i, j];
        W[i] max= M[i, j];
    }
}
`
	m := linalg.RandDense(4, 3, 0, 9, 14)
	bindings := map[string]comp.Value{
		"M": comp.MatrixStorage{M: m},
		"n": int64(4), "m": int64(3),
	}
	if err := RunLocal(MustParse(src), bindings); err != nil {
		t.Fatal(err)
	}
	v := bindings["V"].(comp.VectorStorage)
	w := bindings["W"].(comp.VectorStorage)
	if !v.V.EqualApprox(m.RowSums(), 1e-9) {
		t.Fatal("sum statement mismatch")
	}
	for i := 0; i < 4; i++ {
		max := m.At(i, 0)
		for j := 1; j < 3; j++ {
			if m.At(i, j) > max {
				max = m.At(i, j)
			}
		}
		if w.V.At(i) != max {
			t.Fatalf("max statement row %d", i)
		}
	}
}

// Product update operator (*=).
func TestProductUpdateOperator(t *testing.T) {
	src := `
var V: vector[n];
for i = 0, n-1 do
    for j = 0, m-1 do
        V[i] *= M[i, j];
`
	m := linalg.RandDense(3, 3, 1, 2, 15)
	bindings := map[string]comp.Value{
		"M": comp.MatrixStorage{M: m},
		"n": int64(3), "m": int64(3),
	}
	if err := RunLocal(MustParse(src), bindings); err != nil {
		t.Fatal(err)
	}
	v := bindings["V"].(comp.VectorStorage)
	for i := 0; i < 3; i++ {
		want := 1.0
		for j := 0; j < 3; j++ {
			want *= m.At(i, j)
		}
		if d := v.V.At(i) - want; d > 1e-9 || d < -1e-9 {
			t.Fatalf("row %d product %v want %v", i, v.V.At(i), want)
		}
	}
}

// Shadowed loop variables are rejected with a clear error.
func TestShadowedLoopVariableRejected(t *testing.T) {
	src := `
var V: vector[n];
for i = 0, n-1 do
    for i = 0, n-1 do
        V[i] += 1.0;
`
	if _, err := Translate(MustParse(src), "local"); err == nil {
		t.Fatal("expected shadowing rejection")
	}
}

// A loop-written matrix-vector product compiles to the block matvec
// group-by-join.
func TestLoopMatVecUsesBlockPath(t *testing.T) {
	src := `
var Y: vector[n];
for i = 0, n-1 do
    for j = 0, m-1 do
        Y[i] += A[i, j] * X[j];
`
	ctx := dataflow.NewLocalContext()
	a := linalg.RandDense(6, 4, 0, 2, 16)
	x := linalg.RandVector(4, -1, 1, 17)
	cat := plan.NewCatalog(ctx).
		BindMatrix("A", tiled.FromDense(ctx, a, 2, 2)).
		BindVector("X", tiled.VectorFromDense(ctx, x, 2, 2)).
		BindScalar("n", int64(6)).
		BindScalar("m", int64(4))
	plans, err := RunDistributed(MustParse(src), cat, opt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plans[0], "matrix-vector") {
		t.Fatalf("loop matvec should use the block matvec: %v", plans)
	}
	res, err := plan.Run(comp.BuildExpr{
		Builder: "rdd",
		Body: comp.Comprehension{
			Head: comp.TupleExpr{Elems: []comp.Expr{comp.Var{Name: "i"}, comp.Var{Name: "v"}}},
			Quals: []comp.Qualifier{
				comp.Generator{Pat: comp.PT(comp.PV("i"), comp.PV("v")), Src: comp.Var{Name: "Y"}},
			},
		},
	}, cat, opt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := linalg.MatVec(a, x)
	for _, row := range res.List {
		tup := comp.MustTuple(row)
		i := comp.MustInt(tup[0])
		if d := comp.MustFloat(tup[1]) - want.At(int(i)); d > 1e-9 || d < -1e-9 {
			t.Fatalf("Y[%d] mismatch", i)
		}
	}
}

func TestTranslateUnknownMode(t *testing.T) {
	if _, err := Translate(MustParse("var V: vector[n];\nfor i = 0, 1 do V[i] := 1.0;"), "quantum"); err == nil {
		t.Fatal("expected unknown-mode error")
	}
}

func TestTranslateDimensionMismatch(t *testing.T) {
	src := `
var V: vector[n];
for i = 0, n-1 do V[i, i] := 1.0;
`
	if _, err := Translate(MustParse(src), "local"); err == nil {
		t.Fatal("expected subscript-arity error")
	}
}

func TestRunLocalUnboundInput(t *testing.T) {
	src := `
var V: vector[n];
for i = 0, n-1 do
    for j = 0, m-1 do
        V[i] += Missing[i, j];
`
	bindings := map[string]comp.Value{"n": int64(2), "m": int64(2)}
	if err := RunLocal(MustParse(src), bindings); err == nil {
		t.Fatal("expected unbound-input error")
	}
}

func TestRunDistributedCompileError(t *testing.T) {
	ctx := dataflow.NewLocalContext()
	cat := plan.NewCatalog(ctx).BindScalar("n", int64(4))
	src := `
var V: vector[n];
for i = 0, n-1 do
    for j = 0, n-1 do
        V[i] += Missing[i, j];
`
	if _, err := RunDistributed(MustParse(src), cat, opt.Options{}); err == nil {
		t.Fatal("expected distributed compile/exec error")
	}
}

func TestProgramStringers(t *testing.T) {
	prog := MustParse(matmulProgram)
	s := prog.Stmts[0].String()
	if !strings.Contains(s, "for i") || !strings.Contains(s, "C[i,j] += ") {
		t.Fatalf("for stringer %q", s)
	}
}
