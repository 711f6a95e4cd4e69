package comp

import (
	"fmt"
	"math"
)

// Monoid is an associative binary operation with identity, the ⊕ of the
// paper's reductions ⊕/e and the combiner handed to reduceByKey
// (Rule 13). Product monoids (footnote 1 in the paper) combine several
// aggregations into one pass.
type Monoid struct {
	Name string
	// Zero returns the identity 1⊕.
	Zero func() Value
	// Op combines two values.
	Op func(a, b Value) Value
	// Commutative reports whether the monoid commutes; only
	// commutative monoids may be used with reduceByKey.
	Commutative bool
}

// LookupMonoid resolves the monoid named in a reduction. Supported:
// +, *, min, max, &&, ||, ++ (list concat), count, avg.
func LookupMonoid(name string) (Monoid, error) {
	m, ok := monoids[name]
	if !ok {
		return Monoid{}, fmt.Errorf("comp: unknown monoid %q", name)
	}
	return m, nil
}

var monoids = map[string]Monoid{
	"+": {
		Name: "+", Commutative: true,
		Zero: func() Value { return float64(0) },
		Op: func(a, b Value) Value {
			if ai, ok := a.(int64); ok {
				if bi, ok := b.(int64); ok {
					return ai + bi
				}
			}
			return MustFloat(a) + MustFloat(b)
		},
	},
	"*": {
		Name: "*", Commutative: true,
		Zero: func() Value { return float64(1) },
		Op: func(a, b Value) Value {
			if ai, ok := a.(int64); ok {
				if bi, ok := b.(int64); ok {
					return ai * bi
				}
			}
			return MustFloat(a) * MustFloat(b)
		},
	},
	"min": {
		Name: "min", Commutative: true,
		Zero: func() Value { return math.Inf(1) },
		Op:   func(a, b Value) Value { return pickNum(MinFloat, a, b) },
	},
	"max": {
		Name: "max", Commutative: true,
		Zero: func() Value { return math.Inf(-1) },
		Op:   func(a, b Value) Value { return pickNum(MaxFloat, a, b) },
	},
	"&&": {
		Name: "&&", Commutative: true,
		Zero: func() Value { return true },
		Op:   func(a, b Value) Value { return MustBool(a) && MustBool(b) },
	},
	"||": {
		Name: "||", Commutative: true,
		Zero: func() Value { return false },
		Op:   func(a, b Value) Value { return MustBool(a) || MustBool(b) },
	},
	"++": {
		Name: "++", Commutative: false,
		Zero: func() Value { return List(nil) },
		Op: func(a, b Value) Value {
			la, lb := MustList(a), MustList(b)
			out := make(List, 0, len(la)+len(lb))
			out = append(out, la...)
			out = append(out, lb...)
			return out
		},
	},
	"count": {
		Name: "count", Commutative: true,
		Zero: func() Value { return int64(0) },
		Op:   func(a, b Value) Value { return MustInt(a) + MustInt(b) },
	},
	"avg": {
		Name: "avg", Commutative: true,
		// avg accumulates (sum, count) tuples; Finalize divides.
		Zero: func() Value { return T(float64(0), int64(0)) },
		Op: func(a, b Value) Value {
			ta, tb := MustTuple(a), MustTuple(b)
			return T(MustFloat(ta[0])+MustFloat(tb[0]), MustInt(ta[1])+MustInt(tb[1]))
		},
	},
}

// MinFloat and MaxFloat are min and max on float64 as Go's builtins define
// them: a NaN operand makes the result NaN, and -0 is less than +0. They are
// the one float definition that the min and max monoids, the min and max
// builtins and the tile kernels share. Under it both are associative and
// commutative on every float64, NaN included, so partials may combine in
// any order — reduceByKey's, a tiling's, a partition count's — and every
// strategy returns one answer.
func MinFloat(x, y float64) float64 { return min(x, y) }

// MaxFloat: see MinFloat.
func MaxFloat(x, y float64) float64 { return max(x, y) }

// pickNum is min or max (f) of two numbers: f itself for two floats, and
// otherwise the argument f picks, type included — a tie goes to a, and two
// ints compare as floats, as they always have.
func pickNum(f func(x, y float64) float64, a, b Value) Value {
	x, y := MustFloat(a), MustFloat(b)
	w := f(x, y)
	_, af := a.(float64)
	_, bf := b.(float64)
	switch {
	case af && bf:
		return w
	case x != x || w == x && math.Signbit(w) == math.Signbit(x):
		return a
	}
	return b
}

// MonoidLift maps one element into the accumulator domain of the named
// monoid: count maps anything to 1, avg maps x to (x, 1), others are
// the identity.
func MonoidLift(name string, v Value) Value {
	switch name {
	case "count":
		return int64(1)
	case "avg":
		return T(MustFloat(v), int64(1))
	case "++":
		if _, ok := v.(List); ok {
			return v
		}
		return L(v)
	default:
		return v
	}
}

// MonoidFinalize maps the accumulator of the named monoid to its result
// value: avg divides sum by count, others are the identity.
func MonoidFinalize(name string, v Value) Value {
	if name == "avg" {
		t := MustTuple(v)
		n := MustInt(t[1])
		if n == 0 {
			return float64(0)
		}
		return MustFloat(t[0]) / float64(n)
	}
	return v
}

// ReduceList folds a list with the named monoid, applying lift and
// finalize; ⊕/e over a materialized list.
func ReduceList(name string, l List) (Value, error) {
	m, err := LookupMonoid(name)
	if err != nil {
		return nil, err
	}
	acc := m.Zero()
	for _, v := range l {
		acc = m.Op(acc, MonoidLift(name, v))
	}
	return MonoidFinalize(name, acc), nil
}
