package comp

import (
	"fmt"
)

// This file implements the paper's source-to-source rules:
//
//   - array-index desugaring (Section 2): V[e1,...,en] inside a
//     comprehension becomes a generator ((k1,...,kn),k0) <- V plus the
//     guards k1 == e1, ..., kn == en, with V[e1,...,en] replaced by k0;
//   - Rule (3): flattening of nested comprehensions;
//   - group by p : e  ==  let p = e, group by p;
//   - fusion of equal range generators (index-bound merging).

// freshCounter generates fresh variable names for desugaring.
type freshCounter struct{ n int }

func (f *freshCounter) fresh(prefix string) string {
	f.n++
	// The `_c` namespace keeps desugaring-generated names disjoint
	// from user variables and from the DIABLO front end's `_d` names.
	return fmt.Sprintf("_c%s%d", prefix, f.n)
}

// Desugar applies all source-to-source rewrites to an expression,
// producing a normalized comprehension ready for planning.
func Desugar(e Expr) Expr {
	f := &freshCounter{}
	e = desugarGroupByOf(e)
	e = desugarIndexing(e, f)
	e = flattenNested(e, f)
	return e
}

// MapExpr applies fn bottom-up over the expression tree: fn sees each
// node after its children were rewritten, and returns its replacement
// (the node itself to leave it, which makes MapExpr a visitor).
func MapExpr(e Expr, fn func(Expr) Expr) Expr {
	switch x := e.(type) {
	case Var, Lit:
		return fn(e)
	case TupleExpr:
		elems := make([]Expr, len(x.Elems))
		for i, s := range x.Elems {
			elems[i] = MapExpr(s, fn)
		}
		return fn(TupleExpr{Elems: elems})
	case BinOp:
		return fn(BinOp{Op: x.Op, L: MapExpr(x.L, fn), R: MapExpr(x.R, fn)})
	case UnaryOp:
		return fn(UnaryOp{Op: x.Op, E: MapExpr(x.E, fn)})
	case Call:
		args := make([]Expr, len(x.Args))
		for i, s := range x.Args {
			args[i] = MapExpr(s, fn)
		}
		return fn(Call{Fn: x.Fn, Args: args})
	case Index:
		idxs := make([]Expr, len(x.Idxs))
		for i, s := range x.Idxs {
			idxs[i] = MapExpr(s, fn)
		}
		return fn(Index{Arr: MapExpr(x.Arr, fn), Idxs: idxs})
	case Reduce:
		return fn(Reduce{Monoid: x.Monoid, E: MapExpr(x.E, fn)})
	case IfExpr:
		return fn(IfExpr{Cond: MapExpr(x.Cond, fn), Then: MapExpr(x.Then, fn), Else: MapExpr(x.Else, fn)})
	case Comprehension:
		quals := make([]Qualifier, len(x.Quals))
		for i, q := range x.Quals {
			quals[i] = mapQual(q, fn)
		}
		return fn(Comprehension{Head: MapExpr(x.Head, fn), Quals: quals})
	case BuildExpr:
		args := make([]Expr, len(x.Args))
		for i, s := range x.Args {
			args[i] = MapExpr(s, fn)
		}
		return fn(BuildExpr{Builder: x.Builder, Args: args, Body: MapExpr(x.Body, fn)})
	default:
		panic(fmt.Sprintf("comp: MapExpr: unknown %T", e))
	}
}

func mapQual(q Qualifier, fn func(Expr) Expr) Qualifier {
	switch qq := q.(type) {
	case Generator:
		return Generator{Pat: qq.Pat, Src: MapExpr(qq.Src, fn)}
	case LetQual:
		return LetQual{Pat: qq.Pat, E: MapExpr(qq.E, fn)}
	case Guard:
		return Guard{E: MapExpr(qq.E, fn)}
	case GroupBy:
		if qq.Of != nil {
			return GroupBy{Pat: qq.Pat, Of: MapExpr(qq.Of, fn)}
		}
		return qq
	default:
		panic(fmt.Sprintf("comp: mapQual: unknown %T", q))
	}
}

// desugarGroupByOf rewrites group by p : e into let p = e, group by p
// everywhere.
func desugarGroupByOf(e Expr) Expr {
	return MapExpr(e, func(x Expr) Expr {
		c, ok := x.(Comprehension)
		if !ok {
			return x
		}
		var quals []Qualifier
		changed := false
		for _, q := range c.Quals {
			if g, ok := q.(GroupBy); ok && g.Of != nil {
				quals = append(quals, LetQual{Pat: g.Pat, E: g.Of}, GroupBy{Pat: g.Pat})
				changed = true
				continue
			}
			quals = append(quals, q)
		}
		if !changed {
			return x
		}
		return Comprehension{Head: c.Head, Quals: quals}
	})
}

// desugarIndexing removes Index expressions from comprehension heads,
// guards, and lets by introducing generators over the indexed array
// plus equality guards (Section 2). Index expressions outside a
// comprehension are left for the evaluator's direct access path.
func desugarIndexing(e Expr, f *freshCounter) Expr {
	return MapExpr(e, func(x Expr) Expr {
		c, ok := x.(Comprehension)
		if !ok {
			return x
		}
		return desugarComprehensionIndexing(c, f)
	})
}

func desugarComprehensionIndexing(c Comprehension, f *freshCounter) Expr {
	var newGens []Qualifier
	// rewrite replaces V[e...] with a fresh variable and queues the
	// generator + guards. Only variable-rooted arrays are rewritten.
	rewrite := func(e Expr) Expr {
		return MapExpr(e, func(x Expr) Expr {
			idx, ok := x.(Index)
			if !ok {
				return x
			}
			if _, isVar := idx.Arr.(Var); !isVar {
				return x
			}
			val := f.fresh("v")
			keyPats := make([]Pattern, len(idx.Idxs))
			for i := range idx.Idxs {
				keyPats[i] = PV(f.fresh("k"))
			}
			var keyPat Pattern
			if len(keyPats) == 1 {
				keyPat = keyPats[0]
			} else {
				keyPat = PT(keyPats...)
			}
			newGens = append(newGens, Generator{Pat: PT(keyPat, PV(val)), Src: idx.Arr})
			for i, ke := range idx.Idxs {
				newGens = append(newGens, Guard{E: BinOp{Op: "==", L: Var{Name: keyPats[i].(PVar).Name}, R: ke}})
			}
			return Var{Name: val}
		})
	}

	var quals []Qualifier
	for _, q := range c.Quals {
		switch qq := q.(type) {
		case Generator:
			quals = append(quals, Generator{Pat: qq.Pat, Src: rewrite(qq.Src)})
		case LetQual:
			quals = append(quals, LetQual{Pat: qq.Pat, E: rewrite(qq.E)})
		case Guard:
			quals = append(quals, Guard{E: rewrite(qq.E)})
		case GroupBy:
			quals = append(quals, qq)
		}
		if len(newGens) > 0 {
			// Insert queued generators right after the qualifier whose
			// expression referenced the array, so bindings are in scope.
			quals = append(quals[:len(quals)-1], append(newGens, quals[len(quals)-1])...)
			newGens = nil
		}
	}
	head := rewrite(c.Head)
	quals = append(quals, newGens...)
	return Comprehension{Head: head, Quals: quals}
}

// flattenNested applies Rule (3):
//
//	[ e1 | q1, p <- [ e2 | q3 ], q2 ] = [ e1 | q1, q3, let p = e2, q2 ]
//
// provided the inner comprehension has no group-by (the rule's side
// condition). Inner variables are renamed to avoid capture.
func flattenNested(e Expr, f *freshCounter) Expr {
	return MapExpr(e, func(x Expr) Expr {
		c, ok := x.(Comprehension)
		if !ok {
			return x
		}
		for {
			changed := false
			var quals []Qualifier
			for _, q := range c.Quals {
				g, ok := q.(Generator)
				if !ok {
					quals = append(quals, q)
					continue
				}
				inner, ok := g.Src.(Comprehension)
				if !ok || hasGroupBy(inner) {
					quals = append(quals, q)
					continue
				}
				renamed := renameComprehension(inner, f)
				quals = append(quals, renamed.Quals...)
				quals = append(quals, LetQual{Pat: g.Pat, E: renamed.Head})
				changed = true
			}
			c = Comprehension{Head: c.Head, Quals: quals}
			if !changed {
				return c
			}
		}
	})
}

func hasGroupBy(c Comprehension) bool {
	for _, q := range c.Quals {
		if _, ok := q.(GroupBy); ok {
			return true
		}
	}
	return false
}

// renameComprehension alpha-renames every variable bound inside c to a
// fresh name, to prevent capture when its qualifiers are spliced into
// an outer comprehension.
func renameComprehension(c Comprehension, f *freshCounter) Comprehension {
	sub := map[string]Expr{}
	var quals []Qualifier
	for _, q := range c.Quals {
		switch qq := q.(type) {
		case Generator:
			src := substitute(qq.Src, sub)
			quals = append(quals, Generator{Pat: renamePattern(qq.Pat, sub, f), Src: src})
		case LetQual:
			e := substitute(qq.E, sub)
			quals = append(quals, LetQual{Pat: renamePattern(qq.Pat, sub, f), E: e})
		case Guard:
			quals = append(quals, Guard{E: substitute(qq.E, sub)})
		case GroupBy:
			// Group-by keys refer to already-bound (renamed) vars.
			quals = append(quals, GroupBy{Pat: renameBoundPattern(qq.Pat, sub)})
		}
	}
	return Comprehension{Head: substitute(c.Head, sub), Quals: quals}
}

// renamePattern gives every variable p binds a fresh name and records
// the renaming in sub.
func renamePattern(p Pattern, sub map[string]Expr, f *freshCounter) Pattern {
	return mapPattern(p, func(name string) string {
		if name == "_" {
			return name
		}
		nn := f.fresh(name)
		sub[name] = Var{Name: nn}
		return nn
	})
}

// renameBoundPattern rewrites a pattern that names variables already
// bound (a group-by key) along with them: a variable sub maps to another
// variable is renamed, anything else stays.
func renameBoundPattern(p Pattern, sub map[string]Expr) Pattern {
	return mapPattern(p, func(name string) string {
		if v, ok := sub[name].(Var); ok {
			return v.Name
		}
		return name
	})
}

// mapPattern rebuilds p with every variable renamed by fn.
func mapPattern(p Pattern, fn func(name string) string) Pattern {
	switch pp := p.(type) {
	case PVar:
		return PV(fn(pp.Name))
	case PTuple:
		elems := make([]Pattern, len(pp.Elems))
		for i, s := range pp.Elems {
			elems[i] = mapPattern(s, fn)
		}
		return PT(elems...)
	default:
		panic(fmt.Sprintf("comp: mapPattern: unknown %T", p))
	}
}

// substitute is the one substitution: it replaces the free variables of
// e that sub names. Inside a comprehension a qualifier that rebinds a
// name shadows it for the qualifiers after it and the head, and a
// group-by pattern — which names variables already bound — is renamed
// with them. It is capture-aware rather than capture-avoiding: a literal
// goes anywhere; a variable is checked against every pattern it is
// carried past and panics if one would capture it; any larger expression
// panics at the first comprehension, since its free variables would each
// need that check (the planner's let-inlined kernel expressions never
// contain one).
func substitute(e Expr, sub map[string]Expr) Expr {
	if len(sub) == 0 {
		return e
	}
	all := func(es []Expr) []Expr {
		out := make([]Expr, len(es))
		for i, s := range es {
			out[i] = substitute(s, sub)
		}
		return out
	}
	switch x := e.(type) {
	case Var:
		if r, ok := sub[x.Name]; ok {
			return r
		}
		return x
	case Lit:
		return x
	case TupleExpr:
		return TupleExpr{Elems: all(x.Elems)}
	case BinOp:
		return BinOp{Op: x.Op, L: substitute(x.L, sub), R: substitute(x.R, sub)}
	case UnaryOp:
		return UnaryOp{Op: x.Op, E: substitute(x.E, sub)}
	case Call:
		return Call{Fn: x.Fn, Args: all(x.Args)}
	case Index:
		return Index{Arr: substitute(x.Arr, sub), Idxs: all(x.Idxs)}
	case Reduce:
		return Reduce{Monoid: x.Monoid, E: substitute(x.E, sub)}
	case IfExpr:
		return IfExpr{Cond: substitute(x.Cond, sub), Then: substitute(x.Then, sub), Else: substitute(x.Else, sub)}
	case BuildExpr:
		return BuildExpr{Builder: x.Builder, Args: all(x.Args), Body: substitute(x.Body, sub)}
	case Comprehension:
		inner := make(map[string]Expr, len(sub))
		for k, r := range sub {
			switch r.(type) {
			case Lit, Var:
				inner[k] = r
			default:
				panic(fmt.Sprintf("comp: cannot substitute %s for %s inside a comprehension", r, k))
			}
		}
		// bind shadows the names p binds and refuses to carry a variable
		// past a pattern that binds its name.
		bind := func(p Pattern) {
			for _, name := range PatternVars(p) {
				delete(inner, name)
				for k, r := range inner {
					if v, ok := r.(Var); ok && v.Name == name {
						panic(fmt.Sprintf("comp: substituting %s for %s would be captured by pattern %s", name, k, p))
					}
				}
			}
		}
		quals := make([]Qualifier, 0, len(x.Quals))
		for _, q := range x.Quals {
			switch qq := q.(type) {
			case Generator:
				src := substitute(qq.Src, inner)
				bind(qq.Pat)
				quals = append(quals, Generator{Pat: qq.Pat, Src: src})
			case LetQual:
				e2 := substitute(qq.E, inner)
				bind(qq.Pat)
				quals = append(quals, LetQual{Pat: qq.Pat, E: e2})
			case Guard:
				quals = append(quals, Guard{E: substitute(qq.E, inner)})
			case GroupBy:
				var of Expr
				if qq.Of != nil {
					of = substitute(qq.Of, inner)
				}
				pat := renameBoundPattern(qq.Pat, inner)
				bind(qq.Pat)
				quals = append(quals, GroupBy{Pat: pat, Of: of})
			}
		}
		return Comprehension{Head: substitute(x.Head, inner), Quals: quals}
	default:
		panic(fmt.Sprintf("comp: substitute: unknown %T", e))
	}
}

// SubstExpr replaces free variables by expressions. It is used by the
// planner to inline let bindings into kernel expressions; replacing a
// variable by anything but a literal or another variable inside a
// comprehension panics (the planner's kernel expressions never contain
// one).
func SubstExpr(e Expr, sub map[string]Expr) Expr { return substitute(e, sub) }

// SubstConsts replaces free occurrences of the given names by literal
// values throughout an expression, respecting shadowing by patterns.
// The planner uses it to fold catalog scalars (dimensions, tile
// counts) into queries so the affine-key analysis of Rule 19 can see
// them.
func SubstConsts(e Expr, consts map[string]Value) Expr {
	sub := make(map[string]Expr, len(consts))
	for k, v := range consts {
		sub[k] = Lit{Val: v}
	}
	return substitute(e, sub)
}

// FoldConstants simplifies literal-only arithmetic subexpressions,
// so (i+1) % n with n folded to a literal becomes (i+1) % 6 in the
// exact shape the affine-key analysis expects.
func FoldConstants(e Expr) Expr {
	return MapExpr(e, func(x Expr) Expr {
		b, ok := x.(BinOp)
		if !ok {
			return x
		}
		l, lok := b.L.(Lit)
		r, rok := b.R.(Lit)
		if !lok || !rok {
			return x
		}
		if b.Op == "until" || b.Op == "to" {
			return x // ranges stay symbolic for generators
		}
		v, err := Eval(b, nil)
		if err != nil {
			return x
		}
		_ = l
		_ = r
		return Lit{Val: v}
	})
}
