package comp

import (
	"fmt"
	"strings"
)

// The AST mirrors Figure 2 of the paper.
//
//	e ::= [ e | q ]        comprehension
//	    | ⊕/e              reduction by a monoid
//	    | v[e1,...,en]     array indexing
//	    | ...              vars, literals, tuples, binops, calls
//
//	q ::= p <- e           generator
//	    | let p = e        local declaration
//	    | e                filter
//	    | group by p [: e] group-by

// Expr is any expression node.
type Expr interface {
	fmt.Stringer
	exprNode()
}

// Pattern is a variable or tuple pattern.
type Pattern interface {
	fmt.Stringer
	patNode()
	// Vars appends the pattern variables in order.
	Vars([]string) []string
}

// PVar is a pattern variable; "_" matches anything and binds nothing.
type PVar struct{ Name string }

// PTuple is a tuple pattern (p1, ..., pn).
type PTuple struct{ Elems []Pattern }

func (PVar) patNode()   {}
func (PTuple) patNode() {}

func (p PVar) String() string { return p.Name }
func (p PTuple) String() string {
	parts := make([]string, len(p.Elems))
	for i, e := range p.Elems {
		parts[i] = e.String()
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// Vars returns the variables bound by p, in left-to-right order.
func (p PVar) Vars(acc []string) []string {
	if p.Name == "_" {
		return acc
	}
	return append(acc, p.Name)
}

// Vars returns the variables bound by the tuple pattern.
func (p PTuple) Vars(acc []string) []string {
	for _, e := range p.Elems {
		acc = e.Vars(acc)
	}
	return acc
}

// PatternVars returns all variables bound by p.
func PatternVars(p Pattern) []string { return p.Vars(nil) }

// PV is a convenience constructor for PVar.
func PV(name string) PVar { return PVar{Name: name} }

// PT is a convenience constructor for PTuple.
func PT(elems ...Pattern) PTuple { return PTuple{Elems: elems} }

// --- Expressions ---

// Var references a bound variable.
type Var struct{ Name string }

// Lit is a literal constant (int64, float64, bool, or string).
type Lit struct{ Val Value }

// TupleExpr constructs a tuple.
type TupleExpr struct{ Elems []Expr }

// BinOp is a binary operation: + - * / % == != < <= > >= && ||.
type BinOp struct {
	Op   string
	L, R Expr
}

// UnaryOp is negation (-) or logical not (!).
type UnaryOp struct {
	Op string
	E  Expr
}

// Call invokes a builtin function by name (min, max, abs, count, ...).
type Call struct {
	Fn   string
	Args []Expr
}

// Index is array indexing sugar V[e1,...,en]; it is desugared into
// generators plus equality filters before evaluation (Section 2).
type Index struct {
	Arr  Expr
	Idxs []Expr
}

// Reduce is a total reduction ⊕/e over a list-valued expression.
type Reduce struct {
	Monoid string // +, *, max, min, &&, ||, ++, count, avg
	E      Expr
}

// Comprehension is [ Head | Quals ].
type Comprehension struct {
	Head  Expr
	Quals []Qualifier
}

// IfExpr is a conditional expression if(c, t, e).
type IfExpr struct {
	Cond, Then, Else Expr
}

func (Var) exprNode()           {}
func (Lit) exprNode()           {}
func (TupleExpr) exprNode()     {}
func (BinOp) exprNode()         {}
func (UnaryOp) exprNode()       {}
func (Call) exprNode()          {}
func (Index) exprNode()         {}
func (Reduce) exprNode()        {}
func (Comprehension) exprNode() {}
func (IfExpr) exprNode()        {}

// --- Qualifiers ---

// Qualifier is one element of a comprehension's qualifier list.
type Qualifier interface {
	fmt.Stringer
	qualNode()
}

// Generator is p <- e.
type Generator struct {
	Pat Pattern
	Src Expr
}

// LetQual is let p = e.
type LetQual struct {
	Pat Pattern
	E   Expr
}

// Guard is a boolean filter expression.
type Guard struct{ E Expr }

// GroupBy is group by p [: e]. When Of is nil the group-by key is the
// current value of the pattern variables in Pat; otherwise it is
// syntactic sugar for let Pat = Of, group by Pat.
type GroupBy struct {
	Pat Pattern
	Of  Expr
}

func (Generator) qualNode() {}
func (LetQual) qualNode()   {}
func (Guard) qualNode()     {}
func (GroupBy) qualNode()   {}

// --- Printing ---

func (e Var) String() string { return e.Name }
func (e Lit) String() string { return Render(e.Val) }
func (e TupleExpr) String() string {
	parts := make([]string, len(e.Elems))
	for i, x := range e.Elems {
		parts[i] = x.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
func (e BinOp) String() string {
	return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R)
}
func (e UnaryOp) String() string { return fmt.Sprintf("%s%s", e.Op, e.E) }
func (e Call) String() string {
	parts := make([]string, len(e.Args))
	for i, x := range e.Args {
		parts[i] = x.String()
	}
	return fmt.Sprintf("%s(%s)", e.Fn, strings.Join(parts, ", "))
}
func (e Index) String() string {
	parts := make([]string, len(e.Idxs))
	for i, x := range e.Idxs {
		parts[i] = x.String()
	}
	return fmt.Sprintf("%s[%s]", e.Arr, strings.Join(parts, ", "))
}
func (e Reduce) String() string { return fmt.Sprintf("%s/%s", e.Monoid, e.E) }
func (e Comprehension) String() string {
	if len(e.Quals) == 0 {
		return fmt.Sprintf("[ %s ]", e.Head) // the singleton [e]
	}
	quals := make([]string, len(e.Quals))
	for i, q := range e.Quals {
		quals[i] = q.String()
	}
	return fmt.Sprintf("[ %s | %s ]", e.Head, strings.Join(quals, ", "))
}
func (e IfExpr) String() string {
	return fmt.Sprintf("if(%s, %s, %s)", e.Cond, e.Then, e.Else)
}

func (q Generator) String() string { return fmt.Sprintf("%s <- %s", q.Pat, q.Src) }
func (q LetQual) String() string   { return fmt.Sprintf("let %s = %s", q.Pat, q.E) }
func (q Guard) String() string     { return q.E.String() }
func (q GroupBy) String() string {
	if q.Of != nil {
		return fmt.Sprintf("group by %s: %s", q.Pat, q.Of)
	}
	return fmt.Sprintf("group by %s", q.Pat)
}

// FreeVars returns the free variables of e given the set of bound
// names. It is the `vars` function used by the join-detection Rule 14.
func FreeVars(e Expr) map[string]bool {
	out := map[string]bool{}
	collectFree(e, map[string]bool{}, out)
	return out
}

func collectFree(e Expr, bound map[string]bool, out map[string]bool) {
	switch x := e.(type) {
	case Var:
		if !bound[x.Name] {
			out[x.Name] = true
		}
	case Lit:
	case TupleExpr:
		for _, s := range x.Elems {
			collectFree(s, bound, out)
		}
	case BinOp:
		collectFree(x.L, bound, out)
		collectFree(x.R, bound, out)
	case UnaryOp:
		collectFree(x.E, bound, out)
	case Call:
		for _, s := range x.Args {
			collectFree(s, bound, out)
		}
	case Index:
		collectFree(x.Arr, bound, out)
		for _, s := range x.Idxs {
			collectFree(s, bound, out)
		}
	case Reduce:
		collectFree(x.E, bound, out)
	case IfExpr:
		collectFree(x.Cond, bound, out)
		collectFree(x.Then, bound, out)
		collectFree(x.Else, bound, out)
	case Comprehension:
		inner := copyBound(bound)
		for _, q := range x.Quals {
			switch qq := q.(type) {
			case Generator:
				collectFree(qq.Src, inner, out)
				bindPat(qq.Pat, inner)
			case LetQual:
				collectFree(qq.E, inner, out)
				bindPat(qq.Pat, inner)
			case Guard:
				collectFree(qq.E, inner, out)
			case GroupBy:
				if qq.Of != nil {
					collectFree(qq.Of, inner, out)
				}
				bindPat(qq.Pat, inner)
			}
		}
		collectFree(x.Head, inner, out)
	default:
		panic(fmt.Sprintf("comp: unknown expr %T", e))
	}
}

func copyBound(m map[string]bool) map[string]bool {
	c := make(map[string]bool, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

func bindPat(p Pattern, bound map[string]bool) {
	for _, v := range PatternVars(p) {
		bound[v] = true
	}
}
