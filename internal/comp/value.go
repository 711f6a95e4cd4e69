// Package comp implements the paper's comprehension calculus: the AST
// of array comprehensions (Figure 2), the desugaring rules (Figure 3
// and Rule 3), the group-by translation (Rules 11-12), monoids, and a
// reference in-memory evaluator used both as the semantics oracle for
// the distributed translation and as the per-tile code generator.
//
// The calculus is dynamically typed: values are Go `any` holding
// int64, float64, bool, string, Tuple, or List. Abstract arrays are
// association lists — Lists of (index, value) Tuples — exactly the
// sparse/coordinate representation of Section 1.1.
package comp

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Value is a dynamic calculus value: int64, float64, bool, string,
// Tuple, or List. nil is the unit value.
type Value = any

// Tuple is an immutable product value (p1, ..., pn).
type Tuple []Value

// List is a bag of values; abstract arrays are Lists of
// Tuple{index, value} pairs.
type List []Value

// T constructs a tuple.
func T(vs ...Value) Tuple { return Tuple(vs) }

// L constructs a list.
func L(vs ...Value) List { return List(vs) }

// AsInt coerces numeric values to int64.
func AsInt(v Value) (int64, bool) {
	switch x := v.(type) {
	case int64:
		return x, true
	case int:
		return int64(x), true
	case float64:
		return int64(x), true
	default:
		return 0, false
	}
}

// MustInt coerces to int64 or panics with a calculus type error.
func MustInt(v Value) int64 {
	if i, ok := AsInt(v); ok {
		return i
	}
	panic(typeErr("int", v))
}

// AsFloat coerces numeric values to float64.
func AsFloat(v Value) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case int64:
		return float64(x), true
	case int:
		return float64(x), true
	default:
		return 0, false
	}
}

// MustFloat coerces to float64 or panics.
func MustFloat(v Value) float64 {
	if f, ok := AsFloat(v); ok {
		return f
	}
	panic(typeErr("float", v))
}

// MustBool asserts a bool value.
func MustBool(v Value) bool {
	if b, ok := v.(bool); ok {
		return b
	}
	panic(typeErr("bool", v))
}

// MustTuple asserts a tuple value.
func MustTuple(v Value) Tuple {
	if t, ok := v.(Tuple); ok {
		return t
	}
	panic(typeErr("tuple", v))
}

// MustList asserts a list value.
func MustList(v Value) List {
	if l, ok := v.(List); ok {
		return l
	}
	panic(typeErr("list", v))
}

func typeErr(want string, v Value) error {
	return fmt.Errorf("comp: expected %s, got %T (%v)", want, v, v)
}

// Equal compares two values structurally; ints and floats of equal
// numeric value compare equal (the calculus is numerically coerced).
func Equal(a, b Value) bool {
	switch x := a.(type) {
	case Tuple:
		y, ok := b.(Tuple)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !Equal(x[i], y[i]) {
				return false
			}
		}
		return true
	case List:
		y, ok := b.(List)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !Equal(x[i], y[i]) {
				return false
			}
		}
		return true
	}
	if af, aok := AsFloat(a); aok {
		if bf, bok := AsFloat(b); bok {
			return af == bf
		}
		return false
	}
	return a == b
}

// KeyString renders a value as a canonical string usable as a map key
// for group-by and join hashing. Numerically equal ints and floats
// render identically.
func KeyString(v Value) string {
	var b strings.Builder
	writeKey(&b, v)
	return b.String()
}

func writeKey(b *strings.Builder, v Value) {
	switch x := v.(type) {
	case nil:
		b.WriteString("()")
	case int64:
		b.WriteString(strconv.FormatInt(x, 10))
	case int:
		b.WriteString(strconv.Itoa(x))
	case float64:
		if x == math.Trunc(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e15 {
			b.WriteString(strconv.FormatInt(int64(x), 10))
		} else {
			b.WriteString(strconv.FormatFloat(x, 'g', -1, 64))
		}
	case bool:
		b.WriteString(strconv.FormatBool(x))
	case string:
		b.WriteString(strconv.Quote(x))
	case Tuple:
		b.WriteByte('(')
		for i, e := range x {
			if i > 0 {
				b.WriteByte(',')
			}
			writeKey(b, e)
		}
		b.WriteByte(')')
	case List:
		b.WriteByte('[')
		for i, e := range x {
			if i > 0 {
				b.WriteByte(',')
			}
			writeKey(b, e)
		}
		b.WriteByte(']')
	default:
		fmt.Fprintf(b, "%v", x)
	}
}

// Render pretty-prints a value for diagnostics and CLI output.
func Render(v Value) string {
	switch x := v.(type) {
	case nil:
		return "()"
	case string:
		return strconv.Quote(x)
	case Tuple:
		parts := make([]string, len(x))
		for i, e := range x {
			parts[i] = Render(e)
		}
		return "(" + strings.Join(parts, ", ") + ")"
	case List:
		parts := make([]string, len(x))
		for i, e := range x {
			parts[i] = Render(e)
		}
		return "[" + strings.Join(parts, ", ") + "]"
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	default:
		return fmt.Sprintf("%v", x)
	}
}
