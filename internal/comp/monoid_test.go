package comp

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLookupMonoid(t *testing.T) {
	for _, name := range []string{"+", "*", "min", "max", "&&", "||", "++", "count", "avg"} {
		m, err := LookupMonoid(name)
		if err != nil {
			t.Fatalf("lookup %q: %v", name, err)
		}
		if m.Name != name {
			t.Fatalf("name %q vs %q", m.Name, name)
		}
	}
	if _, err := LookupMonoid("xor"); err == nil {
		t.Fatal("expected unknown-monoid error")
	}
}

func TestMonoidIdentities(t *testing.T) {
	cases := []struct {
		name string
		vals List
		want Value
	}{
		{"+", L(1.0, 2.0, 3.5), 6.5},
		{"*", L(2.0, 3.0), 6.0},
		{"min", L(3.0, 1.0, 2.0), 1.0},
		{"max", L(3.0, 1.0, 2.0), 3.0},
		{"&&", L(true, true), true},
		{"&&", L(true, false), false},
		{"||", L(false, false), false},
		{"||", L(false, true), true},
		{"count", L("a", "b", "c"), int64(3)},
		{"avg", L(2.0, 4.0), 3.0},
	}
	for _, c := range cases {
		got, err := ReduceList(c.name, c.vals)
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(got, c.want) {
			t.Fatalf("%s over %v = %v, want %v", c.name, Render(c.vals), got, c.want)
		}
	}
}

func TestMonoidEmptyList(t *testing.T) {
	cases := map[string]Value{
		"+":     0.0,
		"*":     1.0,
		"count": int64(0),
		"&&":    true,
		"||":    false,
		"avg":   0.0, // finalize of (0,0)
	}
	for name, want := range cases {
		got, err := ReduceList(name, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(got, want) {
			t.Fatalf("%s over [] = %v, want %v", name, got, want)
		}
	}
	minV, _ := ReduceList("min", nil)
	if !math.IsInf(MustFloat(minV), 1) {
		t.Fatal("min identity should be +Inf")
	}
}

func TestConcatMonoid(t *testing.T) {
	got, err := ReduceList("++", L(L(int64(1)), L(int64(2), int64(3))))
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(got, L(int64(1), int64(2), int64(3))) {
		t.Fatalf("concat %v", Render(got))
	}
	// Non-list elements are lifted to singletons.
	got2, err := ReduceList("++", L(int64(1), int64(2)))
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(got2, L(int64(1), int64(2))) {
		t.Fatalf("lifted concat %v", Render(got2))
	}
}

func TestMonoidLiftFinalize(t *testing.T) {
	if MonoidLift("count", "whatever") != int64(1) {
		t.Fatal("count lift")
	}
	if !Equal(MonoidLift("avg", 4.0), T(4.0, int64(1))) {
		t.Fatal("avg lift")
	}
	if MonoidFinalize("avg", T(10.0, int64(4))) != 2.5 {
		t.Fatal("avg finalize")
	}
	if MonoidFinalize("+", 7.0) != 7.0 {
		t.Fatal("plus finalize should be identity")
	}
	if !Equal(MonoidLift("++", int64(5)), L(int64(5))) {
		t.Fatal("concat lift")
	}
}

// Property: the + monoid is associative and commutative over random
// float lists (up to tolerance).
func TestQuickPlusMonoidLaws(t *testing.T) {
	plus, _ := LookupMonoid("+")
	f := func(ra, rb, rc int32) bool {
		// Bounded magnitudes keep float associativity within absolute
		// tolerance.
		a, b, c := float64(ra)/1e3, float64(rb)/1e3, float64(rc)/1e3
		left := plus.Op(plus.Op(a, b), c)
		right := plus.Op(a, plus.Op(b, c))
		comm := plus.Op(a, b)
		comm2 := plus.Op(b, a)
		return math.Abs(MustFloat(left)-MustFloat(right)) < 1e-6 &&
			math.Abs(MustFloat(comm)-MustFloat(comm2)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: min/max are idempotent, associative, commutative.
func TestQuickMinMaxLaws(t *testing.T) {
	for _, name := range []string{"min", "max"} {
		m, _ := LookupMonoid(name)
		f := func(a, b float64) bool {
			if MustFloat(m.Op(a, a)) != a {
				return false
			}
			return Equal(m.Op(a, b), m.Op(b, a))
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}
