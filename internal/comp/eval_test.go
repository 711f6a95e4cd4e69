package comp

import (
	"testing"

	"repro/internal/linalg"
)

// env0 returns an environment binding the given names.
func env0(m map[string]Value) *Env {
	var e *Env
	for k, v := range m {
		e = e.Bind(k, v)
	}
	return e
}

func TestEvalLiteralsAndArith(t *testing.T) {
	cases := []struct {
		e    Expr
		want Value
	}{
		{Lit{int64(3)}, int64(3)},
		{BinOp{"+", Lit{int64(2)}, Lit{int64(3)}}, int64(5)},
		{BinOp{"*", Lit{2.0}, Lit{int64(3)}}, 6.0},
		{BinOp{"/", Lit{int64(7)}, Lit{int64(2)}}, int64(3)},
		{BinOp{"%", Lit{int64(7)}, Lit{int64(2)}}, int64(1)},
		{BinOp{"-", Lit{int64(1)}, Lit{int64(5)}}, int64(-4)},
		{BinOp{"<", Lit{int64(1)}, Lit{int64(2)}}, true},
		{BinOp{">=", Lit{2.5}, Lit{2.5}}, true},
		{Lit{true}, true}, // placeholder, replaced below with tuple equality
		{UnaryOp{"-", Lit{int64(4)}}, int64(-4)},
		{UnaryOp{"!", Lit{false}}, true},
		{IfExpr{Lit{true}, Lit{int64(1)}, Lit{int64(2)}}, int64(1)},
		{IfExpr{Lit{false}, Lit{int64(1)}, Lit{int64(2)}}, int64(2)},
	}
	// fix the tuple-equality case
	cases[8].e = BinOp{"==", TupleExpr{[]Expr{Lit{int64(1)}, Lit{int64(2)}}}, TupleExpr{[]Expr{Lit{int64(1)}, Lit{int64(2)}}}}
	cases[8].want = true
	for _, c := range cases {
		got := MustEval(c.e, nil)
		if !Equal(got, c.want) {
			t.Fatalf("%s = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestEvalShortCircuit(t *testing.T) {
	// (false && (1/0 == 0)) must not evaluate the division.
	e := BinOp{"&&", Lit{false}, BinOp{"==", BinOp{"/", Lit{int64(1)}, Lit{int64(0)}}, Lit{int64(0)}}}
	if MustEval(e, nil) != false {
		t.Fatal("short-circuit &&")
	}
	e2 := BinOp{"||", Lit{true}, BinOp{"==", BinOp{"/", Lit{int64(1)}, Lit{int64(0)}}, Lit{int64(0)}}}
	if MustEval(e2, nil) != true {
		t.Fatal("short-circuit ||")
	}
}

func TestEvalUnboundVarErrors(t *testing.T) {
	if _, err := Eval(Var{"nope"}, nil); err == nil {
		t.Fatal("expected unbound-variable error")
	}
}

func TestEvalRangeOps(t *testing.T) {
	r := MustEval(BinOp{"until", Lit{int64(0)}, Lit{int64(3)}}, nil).(Range)
	if r.Lo != 0 || r.Hi != 3 || r.Len() != 3 {
		t.Fatalf("until %+v", r)
	}
	r2 := MustEval(BinOp{"to", Lit{int64(1)}, Lit{int64(3)}}, nil).(Range)
	if r2.Hi != 4 {
		t.Fatalf("to %+v", r2)
	}
	l := r.ToList()
	if len(l) != 3 || l[2] != int64(2) {
		t.Fatalf("range list %v", l)
	}
}

func TestSimpleComprehension(t *testing.T) {
	// [ i*2 | i <- 0 until 5, i % 2 == 0 ]  =  [0, 4, 8]
	c := Comprehension{
		Head: BinOp{"*", Var{"i"}, Lit{int64(2)}},
		Quals: []Qualifier{
			Generator{Pat: PV("i"), Src: BinOp{"until", Lit{int64(0)}, Lit{int64(5)}}},
			Guard{E: BinOp{"==", BinOp{"%", Var{"i"}, Lit{int64(2)}}, Lit{int64(0)}}},
		},
	}
	got := MustEval(c, nil).(List)
	want := L(int64(0), int64(4), int64(8))
	if !Equal(got, want) {
		t.Fatalf("got %v", Render(got))
	}
}

func TestComprehensionLetAndTuplePattern(t *testing.T) {
	// [ (x, y) | p <- pairs, let (x, y) = p ]
	pairs := L(T(int64(1), int64(2)), T(int64(3), int64(4)))
	c := Comprehension{
		Head: TupleExpr{[]Expr{Var{"y"}, Var{"x"}}},
		Quals: []Qualifier{
			Generator{Pat: PV("p"), Src: Var{"pairs"}},
			LetQual{Pat: PT(PV("x"), PV("y")), E: Var{"p"}},
		},
	}
	got := MustEval(c, env0(map[string]Value{"pairs": pairs})).(List)
	want := L(T(int64(2), int64(1)), T(int64(4), int64(3)))
	if !Equal(got, want) {
		t.Fatalf("got %v", Render(got))
	}
}

func TestPatternMismatchFilters(t *testing.T) {
	// Elements that do not match the tuple pattern are skipped.
	src := L(T(int64(1), int64(2)), int64(9), T(int64(3), int64(4)))
	c := Comprehension{
		Head: Var{"a"},
		Quals: []Qualifier{
			Generator{Pat: PT(PV("a"), PV("_")), Src: Var{"src"}},
		},
	}
	got := MustEval(c, env0(map[string]Value{"src": src})).(List)
	if !Equal(got, L(int64(1), int64(3))) {
		t.Fatalf("got %v", Render(got))
	}
}

// Figure 1 / Query (1): V = vector(n)[ (i, +/m) | ((i,j),m) <- M, group by i ]
func TestRowSumsComprehension(t *testing.T) {
	m := linalg.NewDenseFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	q := BuildExpr{
		Builder: "vector", Args: []Expr{Lit{int64(2)}},
		Body: Comprehension{
			Head: TupleExpr{[]Expr{Var{"i"}, Reduce{Monoid: "+", E: Var{"m"}}}},
			Quals: []Qualifier{
				Generator{Pat: PT(PT(PV("i"), PV("j")), PV("m")), Src: Var{"M"}},
				GroupBy{Pat: PV("i")},
			},
		},
	}
	got := MustEval(q, env0(map[string]Value{"M": MatrixStorage{M: m}})).(VectorStorage)
	if !got.V.Equal(linalg.NewVectorFrom([]float64{6, 15})) {
		t.Fatalf("row sums %v", got.V.Data)
	}
}

// Query (8): matrix addition via a join-like comprehension.
func TestMatrixAdditionComprehension(t *testing.T) {
	a := linalg.RandDense(3, 4, 0, 10, 1)
	b := linalg.RandDense(3, 4, 0, 10, 2)
	q := BuildExpr{
		Builder: "matrix", Args: []Expr{Lit{int64(3)}, Lit{int64(4)}},
		Body: Comprehension{
			Head: TupleExpr{[]Expr{
				TupleExpr{[]Expr{Var{"i"}, Var{"j"}}},
				BinOp{"+", Var{"a"}, Var{"b"}},
			}},
			Quals: []Qualifier{
				Generator{Pat: PT(PT(PV("i"), PV("j")), PV("a")), Src: Var{"M"}},
				Generator{Pat: PT(PT(PV("ii"), PV("jj")), PV("b")), Src: Var{"N"}},
				Guard{E: BinOp{"==", Var{"ii"}, Var{"i"}}},
				Guard{E: BinOp{"==", Var{"jj"}, Var{"j"}}},
			},
		},
	}
	got := MustEval(q, env0(map[string]Value{
		"M": MatrixStorage{M: a}, "N": MatrixStorage{M: b},
	})).(MatrixStorage)
	if !got.M.EqualApprox(linalg.AddDense(a, b), 1e-12) {
		t.Fatal("matrix addition mismatch")
	}
}

// Query (9): matrix multiplication with group-by.
func TestMatrixMultiplicationComprehension(t *testing.T) {
	a := linalg.RandDense(3, 4, 0, 2, 3)
	b := linalg.RandDense(4, 5, 0, 2, 4)
	q := matMulQuery(3, 5)
	got := MustEval(q, env0(map[string]Value{
		"M": MatrixStorage{M: a}, "N": MatrixStorage{M: b},
	})).(MatrixStorage)
	if !got.M.EqualApprox(linalg.Mul(a, b), 1e-9) {
		t.Fatalf("matmul mismatch: %g", got.M.MaxAbsDiff(linalg.Mul(a, b)))
	}
}

// matMulQuery builds Query (9) for an n x m result.
func matMulQuery(n, m int64) Expr {
	return BuildExpr{
		Builder: "matrix", Args: []Expr{Lit{n}, Lit{m}},
		Body: Comprehension{
			Head: TupleExpr{[]Expr{
				TupleExpr{[]Expr{Var{"i"}, Var{"j"}}},
				Reduce{Monoid: "+", E: Var{"v"}},
			}},
			Quals: []Qualifier{
				Generator{Pat: PT(PT(PV("i"), PV("k")), PV("a")), Src: Var{"M"}},
				Generator{Pat: PT(PT(PV("kk"), PV("j")), PV("b")), Src: Var{"N"}},
				Guard{E: BinOp{"==", Var{"kk"}, Var{"k"}}},
				LetQual{Pat: PV("v"), E: BinOp{"*", Var{"a"}, Var{"b"}}},
				GroupBy{Pat: PT(PV("i"), PV("j"))},
			},
		},
	}
}

// Matrix smoothing from Section 3, including boundary cases.
func TestMatrixSmoothingComprehension(t *testing.T) {
	m := linalg.NewDenseFrom(2, 2, []float64{1, 2, 3, 4})
	q := BuildExpr{
		Builder: "matrix", Args: []Expr{Lit{int64(2)}, Lit{int64(2)}},
		Body: Comprehension{
			Head: TupleExpr{[]Expr{
				TupleExpr{[]Expr{Var{"ii"}, Var{"jj"}}},
				BinOp{"/", Reduce{Monoid: "+", E: Var{"a"}}, Call{Fn: "float", Args: []Expr{Call{Fn: "count", Args: []Expr{Var{"a"}}}}}},
			}},
			Quals: []Qualifier{
				Generator{Pat: PT(PT(PV("i"), PV("j")), PV("a")), Src: Var{"M"}},
				Generator{Pat: PV("ii"), Src: BinOp{"to", BinOp{"-", Var{"i"}, Lit{int64(1)}}, BinOp{"+", Var{"i"}, Lit{int64(1)}}}},
				Generator{Pat: PV("jj"), Src: BinOp{"to", BinOp{"-", Var{"j"}, Lit{int64(1)}}, BinOp{"+", Var{"j"}, Lit{int64(1)}}}},
				Guard{E: BinOp{">=", Var{"ii"}, Lit{int64(0)}}},
				Guard{E: BinOp{"<", Var{"ii"}, Lit{int64(2)}}},
				Guard{E: BinOp{">=", Var{"jj"}, Lit{int64(0)}}},
				Guard{E: BinOp{"<", Var{"jj"}, Lit{int64(2)}}},
				GroupBy{Pat: PT(PV("ii"), PV("jj"))},
			},
		},
	}
	got := MustEval(q, env0(map[string]Value{"M": MatrixStorage{M: m}})).(MatrixStorage)
	// Every output cell averages all 4 values (every input is within
	// distance 1 of every cell in a 2x2 matrix): 2.5 everywhere.
	want := linalg.NewDense(2, 2)
	want.Fill(2.5)
	if !got.M.EqualApprox(want, 1e-12) {
		t.Fatalf("smoothing %v", got.M)
	}
}

// The total-aggregation is-sorted example from Section 2.
func TestIsSortedComprehension(t *testing.T) {
	q := Reduce{Monoid: "&&", E: Comprehension{
		Head: BinOp{"<=", Var{"v"}, Var{"w"}},
		Quals: []Qualifier{
			Generator{Pat: PT(PV("i"), PV("v")), Src: Var{"V"}},
			Generator{Pat: PT(PV("j"), PV("w")), Src: Var{"V"}},
			Guard{E: BinOp{"==", Var{"j"}, BinOp{"+", Var{"i"}, Lit{int64(1)}}}},
		},
	}}
	sorted := VectorStorage{V: linalg.NewVectorFrom([]float64{1, 2, 2, 5})}
	unsorted := VectorStorage{V: linalg.NewVectorFrom([]float64{1, 3, 2})}
	if MustEval(q, env0(map[string]Value{"V": sorted})) != true {
		t.Fatal("sorted misreported")
	}
	if MustEval(q, env0(map[string]Value{"V": unsorted})) != false {
		t.Fatal("unsorted misreported")
	}
}

// Matrix transpose via comprehension: storage round trip.
func TestTransposeComprehension(t *testing.T) {
	m := linalg.RandDense(3, 5, 0, 1, 5)
	q := BuildExpr{
		Builder: "matrix", Args: []Expr{Lit{int64(5)}, Lit{int64(3)}},
		Body: Comprehension{
			Head: TupleExpr{[]Expr{
				TupleExpr{[]Expr{Var{"j"}, Var{"i"}}},
				Var{"v"},
			}},
			Quals: []Qualifier{
				Generator{Pat: PT(PT(PV("i"), PV("j")), PV("v")), Src: Var{"M"}},
			},
		},
	}
	got := MustEval(q, env0(map[string]Value{"M": MatrixStorage{M: m}})).(MatrixStorage)
	if !got.M.Equal(m.Transpose()) {
		t.Fatal("transpose mismatch")
	}
}

// Array-indexing expression evaluated directly against dense storage.
func TestEvalIndexDirect(t *testing.T) {
	m := linalg.NewDenseFrom(2, 2, []float64{1, 2, 3, 4})
	env := env0(map[string]Value{
		"M": MatrixStorage{M: m},
		"V": VectorStorage{V: linalg.NewVectorFrom([]float64{7, 8})},
		"L": L(T(int64(0), 5.0), T(int64(1), 6.0)),
	})
	if got := MustEval(Index{Arr: Var{"M"}, Idxs: []Expr{Lit{int64(1)}, Lit{int64(0)}}}, env); got != 3.0 {
		t.Fatalf("M[1,0] = %v", got)
	}
	if got := MustEval(Index{Arr: Var{"V"}, Idxs: []Expr{Lit{int64(1)}}}, env); got != 8.0 {
		t.Fatalf("V[1] = %v", got)
	}
	if got := MustEval(Index{Arr: Var{"L"}, Idxs: []Expr{Lit{int64(1)}}}, env); got != 6.0 {
		t.Fatalf("L[1] = %v", got)
	}
	// Missing key in an assoc list defaults to 0 (sparse semantics).
	if got := MustEval(Index{Arr: Var{"L"}, Idxs: []Expr{Lit{int64(9)}}}, env); got != 0.0 {
		t.Fatalf("L[9] = %v", got)
	}
}

func TestGroupByOfSugar(t *testing.T) {
	// [ (k, +/v) | (i,v) <- V, group by k: i % 2 ]
	q := Comprehension{
		Head: TupleExpr{[]Expr{Var{"k"}, Reduce{Monoid: "+", E: Var{"v"}}}},
		Quals: []Qualifier{
			Generator{Pat: PT(PV("i"), PV("v")), Src: Var{"V"}},
			GroupBy{Pat: PV("k"), Of: BinOp{"%", Var{"i"}, Lit{int64(2)}}},
		},
	}
	v := VectorStorage{V: linalg.NewVectorFrom([]float64{1, 10, 2, 20, 3})}
	got := sortByKey(MustEval(q, env0(map[string]Value{"V": v})).(List))
	want := L(T(int64(0), 6.0), T(int64(1), 30.0))
	if !Equal(got, want) {
		t.Fatalf("got %v", Render(got))
	}
}

func TestMultipleAggregationsAfterGroupBy(t *testing.T) {
	// [ (k, +/v, count(v), max/v) | (i,v) <- V, group by k: i % 2 ]
	q := Comprehension{
		Head: TupleExpr{[]Expr{
			Var{"k"},
			Reduce{Monoid: "+", E: Var{"v"}},
			Call{Fn: "count", Args: []Expr{Var{"v"}}},
			Reduce{Monoid: "max", E: Var{"v"}},
		}},
		Quals: []Qualifier{
			Generator{Pat: PT(PV("i"), PV("v")), Src: Var{"V"}},
			GroupBy{Pat: PV("k"), Of: BinOp{"%", Var{"i"}, Lit{int64(2)}}},
		},
	}
	v := VectorStorage{V: linalg.NewVectorFrom([]float64{1, 10, 2, 20, 3})}
	got := MustEval(q, env0(map[string]Value{"V": v})).(List)
	byKey := map[string]Tuple{}
	for _, e := range got {
		tup := MustTuple(e)
		byKey[KeyString(tup[0])] = tup
	}
	if !Equal(byKey["0"], T(int64(0), 6.0, int64(3), 3.0)) {
		t.Fatalf("group 0: %v", Render(byKey["0"]))
	}
	if !Equal(byKey["1"], T(int64(1), 30.0, int64(2), 20.0)) {
		t.Fatalf("group 1: %v", Render(byKey["1"]))
	}
}

func TestBuilderBoundsFiltering(t *testing.T) {
	// Out-of-range entries are dropped by the builder, as in the
	// paper's matrix builder inequality guards.
	entries := L(
		T(T(int64(0), int64(0)), 1.0),
		T(T(int64(5), int64(0)), 2.0),  // out of range
		T(T(int64(0), int64(-1)), 3.0), // out of range
	)
	m := BuildMatrix(2, 2, entries)
	if m.M.At(0, 0) != 1 || m.M.Sum() != 1 {
		t.Fatalf("builder bounds: %v", m.M)
	}
	v := BuildVector(2, L(T(int64(0), 1.0), T(int64(7), 9.0)))
	if v.V.At(0) != 1 || v.V.Sum() != 1 {
		t.Fatalf("vector builder bounds: %v", v.V.Data)
	}
}

func TestCOOStorageRoundTrip(t *testing.T) {
	coo := linalg.RandSparseCOO(5, 5, 0.4, 3, 17)
	s := COOStorage{C: coo}
	rebuilt := BuildCOO(5, 5, SparsifyAll(s))
	if !rebuilt.C.ToDense().Equal(coo.ToDense()) {
		t.Fatal("COO storage round trip failed")
	}
}

// Property-ish: sparsify(build(L)) == L for in-range unique entries.
func TestSparsifyBuildInverse(t *testing.T) {
	m := linalg.RandDense(4, 3, 1, 2, 23) // nonzero values
	s := MatrixStorage{M: m}
	l := SparsifyAll(s)
	rebuilt := BuildMatrix(4, 3, l)
	if !rebuilt.M.Equal(m) {
		t.Fatal("build(sparsify(M)) != M")
	}
	l2 := SparsifyAll(rebuilt)
	if !Equal(List(l), List(l2)) {
		t.Fatal("sparsify(build(L)) != L")
	}
}

// The calculus is dimension-agnostic: 3-D tensors live as association
// lists with triple keys. Mode-1 tensor-times-matrix contraction:
// out[a,b,j] = sum_i T[a,b,i] * M[i,j].
func TestTensorContraction(t *testing.T) {
	// T: 2x2x3 tensor as an assoc list; M: 3x2 matrix.
	var tensor List
	val := func(a, b, i int) float64 { return float64(a*100 + b*10 + i + 1) }
	for a := 0; a < 2; a++ {
		for b := 0; b < 2; b++ {
			for i := 0; i < 3; i++ {
				tensor = append(tensor, T(T(int64(a), int64(b), int64(i)), val(a, b, i)))
			}
		}
	}
	m := linalg.RandDense(3, 2, -1, 1, 201)
	q := Comprehension{
		Head: TupleExpr{[]Expr{
			TupleExpr{[]Expr{Var{"a"}, Var{"b"}, Var{"j"}}},
			Reduce{Monoid: "+", E: Var{"v"}},
		}},
		Quals: []Qualifier{
			Generator{Pat: PT(PT(PV("a"), PV("b"), PV("i")), PV("x")), Src: Var{"T"}},
			Generator{Pat: PT(PT(PV("ii"), PV("j")), PV("w")), Src: Var{"M"}},
			Guard{E: BinOp{"==", Var{"ii"}, Var{"i"}}},
			LetQual{Pat: PV("v"), E: BinOp{"*", Var{"x"}, Var{"w"}}},
			GroupBy{Pat: PT(PV("a"), PV("b"), PV("j"))},
		},
	}
	env := env0(map[string]Value{"T": tensor, "M": MatrixStorage{M: m}})
	got := MustEval(q, env).(List)
	if len(got) != 2*2*2 {
		t.Fatalf("entries %d", len(got))
	}
	for _, row := range got {
		tup := MustTuple(row)
		key := MustTuple(tup[0])
		a, b, j := MustInt(key[0]), MustInt(key[1]), MustInt(key[2])
		want := 0.0
		for i := 0; i < 3; i++ {
			want += val(int(a), int(b), i) * m.At(i, int(j))
		}
		if d := MustFloat(tup[1]) - want; d > 1e-9 || d < -1e-9 {
			t.Fatalf("out[%d,%d,%d] = %v want %v", a, b, j, tup[1], want)
		}
	}
}
