package comp

import (
	"sort"
	"strings"
	"testing"
)

// sortByKey orders an association list (a List of (key, value) tuples)
// by the keys' canonical strings, so a test can compare a grouped
// result whatever order its groups came out in.
func sortByKey(l List) List {
	sort.SliceStable(l, func(i, j int) bool {
		return KeyString(MustTuple(l[i])[0]) < KeyString(MustTuple(l[j])[0])
	})
	return l
}

func TestCoercions(t *testing.T) {
	if v, ok := AsInt(int64(3)); !ok || v != 3 {
		t.Fatal("int64")
	}
	if v, ok := AsInt(3); !ok || v != 3 {
		t.Fatal("int")
	}
	if v, ok := AsInt(3.9); !ok || v != 3 {
		t.Fatal("float truncation")
	}
	if _, ok := AsInt("3"); ok {
		t.Fatal("string must not coerce")
	}
	if v, ok := AsFloat(int64(2)); !ok || v != 2.0 {
		t.Fatal("int to float")
	}
	if MustBool(true) != true {
		t.Fatal("bool")
	}
}

func TestMustPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"MustInt":   func() { MustInt("x") },
		"MustFloat": func() { MustFloat(true) },
		"MustBool":  func() { MustBool(1) },
		"MustTuple": func() { MustTuple(L()) },
		"MustList":  func() { MustList(T()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s should panic", name)
				}
			}()
			f()
		}()
	}
}

func TestEqualStructural(t *testing.T) {
	cases := []struct {
		a, b Value
		want bool
	}{
		{int64(1), 1.0, true}, // numeric coercion
		{int64(1), int64(2), false},
		{T(int64(1), "x"), T(int64(1), "x"), true},
		{T(int64(1)), T(int64(1), int64(2)), false},
		{L(int64(1)), L(int64(1)), true},
		{L(int64(1)), T(int64(1)), false},
		{"a", "a", true},
		{true, false, false},
		{nil, nil, true},
	}
	for _, c := range cases {
		if Equal(c.a, c.b) != c.want {
			t.Fatalf("Equal(%v, %v) != %v", Render(c.a), Render(c.b), c.want)
		}
	}
}

func TestRenderForms(t *testing.T) {
	cases := map[string]Value{
		"(1, 2)":      T(int64(1), int64(2)),
		"[1, 2]":      L(int64(1), int64(2)),
		`"hi"`:        "hi",
		"()":          nil,
		"2.5":         2.5,
		"true":        true,
		"((1), [()])": T(T(int64(1)), L(Value(nil))),
	}
	for want, v := range cases {
		if got := Render(v); got != want {
			t.Fatalf("Render(%#v) = %q want %q", v, got, want)
		}
	}
}

func TestKeyStringSpecials(t *testing.T) {
	if !strings.Contains(KeyString(T(int64(1), "a")), `"a"`) {
		t.Fatal("strings should be quoted in keys")
	}
	if KeyString(1.5) == KeyString(int64(1)) {
		t.Fatal("1.5 must differ from 1")
	}
	if KeyString(nil) != "()" {
		t.Fatalf("unit key %q", KeyString(nil))
	}
	if KeyString(true) != "true" {
		t.Fatal("bool key")
	}
}

// Multiple group-bys in one comprehension lift variables repeatedly
// (the paper notes variables are lifted once per group-by).
func TestEvalDoubleGroupBy(t *testing.T) {
	// [ (k2, count(k)) | (i,v) <- V, group by k: i % 4, group by k2: k % 2 ]
	// First group by i%4 -> keys {0,1,2,3}; then group those keys by
	// parity -> two groups of two keys each.
	q := Comprehension{
		Head: TupleExpr{[]Expr{Var{"k2"}, Call{Fn: "count", Args: []Expr{Var{"k"}}}}},
		Quals: []Qualifier{
			Generator{Pat: PT(PV("i"), PV("v")), Src: Var{"V"}},
			GroupBy{Pat: PV("k"), Of: BinOp{"%", Var{"i"}, Lit{int64(4)}}},
			GroupBy{Pat: PV("k2"), Of: BinOp{"%", Var{"k"}, Lit{int64(2)}}},
		},
	}
	var entries List
	for i := 0; i < 8; i++ {
		entries = append(entries, T(int64(i), float64(i)))
	}
	got := sortByKey(MustEval(q, env0(map[string]Value{"V": entries})).(List))
	want := L(T(int64(0), int64(2)), T(int64(1), int64(2)))
	if !Equal(got, want) {
		t.Fatalf("double group-by %v want %v", Render(got), Render(want))
	}
}

func TestRangeValue(t *testing.T) {
	r := Range{Lo: 3, Hi: 3}
	if r.Len() != 0 || len(r.ToList()) != 0 {
		t.Fatal("empty range")
	}
	r2 := Range{Lo: 5, Hi: 2}
	if r2.Len() != 0 {
		t.Fatal("inverted range should be empty")
	}
	if got := (Range{Lo: 0, Hi: 3}).String(); got != "0 until 3" {
		t.Fatalf("range string %q", got)
	}
}

func TestFoldConstants(t *testing.T) {
	e := MustParse2(t, "(2 + 3) * 4")
	folded := FoldConstants(e)
	lit, ok := folded.(Lit)
	if !ok || !Equal(lit.Val, int64(20)) {
		t.Fatalf("folded to %v", folded)
	}
	// Ranges stay symbolic.
	r := FoldConstants(BinOp{"until", Lit{int64(0)}, Lit{int64(5)}})
	if _, ok := r.(BinOp); !ok {
		t.Fatal("range must not fold")
	}
}

// MustParse2 avoids importing sacparser (cycle): tiny literal builder.
func MustParse2(t *testing.T, src string) Expr {
	t.Helper()
	switch src {
	case "(2 + 3) * 4":
		return BinOp{"*", BinOp{"+", Lit{int64(2)}, Lit{int64(3)}}, Lit{int64(4)}}
	}
	t.Fatalf("unknown fixture %q", src)
	return nil
}

func TestSubstConstsShadowing(t *testing.T) {
	// n is a constant, but the inner comprehension rebinds n; the
	// occurrence under the binding must not be substituted.
	inner := Comprehension{
		Head:  Var{"n"},
		Quals: []Qualifier{Generator{Pat: PV("n"), Src: Var{"xs"}}},
	}
	out := SubstConsts(inner, map[string]Value{"n": int64(9)}).(Comprehension)
	if _, isLit := out.Head.(Lit); isLit {
		t.Fatal("shadowed variable was substituted")
	}
	// Unshadowed occurrences fold.
	e := SubstConsts(BinOp{"+", Var{"n"}, Lit{int64(1)}}, map[string]Value{"n": int64(9)})
	if v := MustEval(e, nil); v != int64(10) {
		t.Fatalf("subst result %v", v)
	}
}

// TestSubstituteUnderBinders: the one substitution behind SubstConsts,
// SubstExpr and the desugarer's alpha-renaming carries literals and
// variables into a comprehension under the shadowing rule, renames a
// group-by key with the variable it names, and refuses — by panicking —
// a variable some pattern would capture and any larger expression.
func TestSubstituteUnderBinders(t *testing.T) {
	// [ (i, x + y + n) | x <- xs + y, group by i ]
	c := Comprehension{
		Head: TupleExpr{[]Expr{Var{"i"}, BinOp{"+", BinOp{"+", Var{"x"}, Var{"y"}}, Var{"n"}}}},
		Quals: []Qualifier{
			Generator{Pat: PV("x"), Src: BinOp{"+", Var{"xs"}, Var{"y"}}},
			GroupBy{Pat: PV("i")},
		},
	}
	got := SubstExpr(c, map[string]Expr{"x": Var{"z"}, "y": Var{"w"}, "n": Lit{int64(9)}, "i": Var{"k"}}).String()
	if want := "[ (i, ((x + w) + 9)) | x <- (xs + w), group by k ]"; got != want {
		t.Fatalf("substituted to %s, want %s", got, want)
	}
	panics := func(name string, sub map[string]Expr) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		SubstExpr(c, sub)
	}
	panics("captured variable", map[string]Expr{"y": Var{"x"}})
	panics("compound expression", map[string]Expr{"y": BinOp{"*", Var{"a"}, Var{"b"}}})
	// Outside a comprehension anything goes.
	if got := SubstExpr(BinOp{"+", Var{"y"}, Var{"x"}}, map[string]Expr{"y": BinOp{"*", Var{"a"}, Var{"x"}}}).String(); got != "((a * x) + x)" {
		t.Fatalf("flat substitution gave %s", got)
	}
}
