package comp

import (
	"strings"
	"testing"
)

// Printing coverage: every AST node renders, and the printed form of
// the paper's queries contains the expected surface syntax.
func TestASTStringForms(t *testing.T) {
	cases := map[string]Expr{
		"x":                 Var{"x"},
		"3":                 Lit{int64(3)},
		"(x, 1)":            TupleExpr{[]Expr{Var{"x"}, Lit{int64(1)}}},
		"(x + 1)":           BinOp{"+", Var{"x"}, Lit{int64(1)}},
		"-x":                UnaryOp{"-", Var{"x"}},
		"f(x, 2)":           Call{"f", []Expr{Var{"x"}, Lit{int64(2)}}},
		"M[i, j]":           Index{Var{"M"}, []Expr{Var{"i"}, Var{"j"}}},
		"+/v":               Reduce{"+", Var{"v"}},
		"if(b, 1, 2)":       IfExpr{Var{"b"}, Lit{int64(1)}, Lit{int64(2)}},
		"matrix(2, 3)[ x ]": BuildExpr{"matrix", []Expr{Lit{int64(2)}, Lit{int64(3)}}, Comprehension{Head: Var{"x"}}},
	}
	for want, e := range cases {
		if got := e.String(); got != want {
			t.Fatalf("String() = %q want %q", got, want)
		}
	}
}

func TestQualifierStringForms(t *testing.T) {
	g := Generator{Pat: PT(PV("i"), PV("v")), Src: Var{"V"}}
	if g.String() != "(i,v) <- V" {
		t.Fatalf("generator %q", g.String())
	}
	l := LetQual{Pat: PV("x"), E: Lit{int64(1)}}
	if l.String() != "let x = 1" {
		t.Fatalf("let %q", l.String())
	}
	gb := GroupBy{Pat: PV("k")}
	if gb.String() != "group by k" {
		t.Fatalf("group %q", gb.String())
	}
	gbo := GroupBy{Pat: PV("k"), Of: Var{"i"}}
	if gbo.String() != "group by k: i" {
		t.Fatalf("group-of %q", gbo.String())
	}
	gd := Guard{E: BinOp{"==", Var{"i"}, Var{"j"}}}
	if !strings.Contains(gd.String(), "==") {
		t.Fatalf("guard %q", gd.String())
	}
}

func TestComprehensionString(t *testing.T) {
	c := Comprehension{
		Head: TupleExpr{[]Expr{Var{"i"}, Reduce{"+", Var{"v"}}}},
		Quals: []Qualifier{
			Generator{Pat: PT(PT(PV("i"), PV("j")), PV("v")), Src: Var{"M"}},
			GroupBy{Pat: PV("i")},
		},
	}
	got := c.String()
	for _, want := range []string{"((i,j),v) <- M", "group by i", "+/v"} {
		if !strings.Contains(got, want) {
			t.Fatalf("%q missing %q", got, want)
		}
	}
}

func TestBuildExprStringNoArgs(t *testing.T) {
	b := BuildExpr{Builder: "rdd", Body: Comprehension{Head: Var{"x"}}}
	if !strings.HasPrefix(b.String(), "rdd[") {
		t.Fatalf("rdd build %q", b.String())
	}
}

func TestEvalBuiltinsMath(t *testing.T) {
	cases := []struct {
		e    Expr
		want Value
	}{
		{Call{"abs", []Expr{Lit{int64(-3)}}}, int64(3)},
		{Call{"abs", []Expr{Lit{-2.5}}}, 2.5},
		{Call{"sqrt", []Expr{Lit{9.0}}}, 3.0},
		{Call{"pow", []Expr{Lit{2.0}, Lit{10.0}}}, 1024.0},
		{Call{"max", []Expr{Lit{int64(2)}, Lit{int64(5)}}}, int64(5)},
		{Call{"min", []Expr{Lit{int64(2)}, Lit{int64(5)}}}, int64(2)},
		{Call{"length", []Expr{Lit{L(int64(1), int64(2))}}}, int64(2)},
		{Call{"sum", []Expr{Lit{L(1.0, 2.0)}}}, 3.0},
		{Call{"avg", []Expr{Lit{L(1.0, 3.0)}}}, 2.0},
		{Call{"int", []Expr{Lit{3.9}}}, int64(3)},
	}
	for _, c := range cases {
		if got := MustEval(c.e, nil); !Equal(got, c.want) {
			t.Fatalf("%s = %v want %v", c.e, got, c.want)
		}
	}
	// exp(log(x)) == x.
	got := MustEval(Call{"exp", []Expr{Call{"log", []Expr{Lit{5.0}}}}}, nil)
	if d := MustFloat(got) - 5; d > 1e-12 || d < -1e-12 {
		t.Fatalf("exp(log(5)) = %v", got)
	}
}

func TestEvalBuiltinErrors(t *testing.T) {
	if _, err := Eval(Call{"nosuchfn", nil}, nil); err == nil {
		t.Fatal("unknown function should error")
	}
	if _, err := Eval(Call{"sqrt", []Expr{Lit{1.0}, Lit{2.0}}}, nil); err == nil {
		t.Fatal("arity error expected")
	}
	if _, err := Eval(BinOp{"%", Lit{int64(1)}, Lit{int64(0)}}, nil); err == nil {
		t.Fatal("modulo by zero should error")
	}
	if _, err := Eval(BinOp{"/", Lit{int64(1)}, Lit{int64(0)}}, nil); err == nil {
		t.Fatal("division by zero should error")
	}
}
