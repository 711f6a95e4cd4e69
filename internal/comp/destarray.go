package comp

import "repro/internal/linalg"

// This file implements the Section 3 specialization for local builds:
// when a matrix/vector builder wraps a comprehension whose trailing
// group-by key is exactly the output array index, the group-by is
// evaluated with destination arrays — one per factored monoid
// aggregation, Rule 12 — instead of a hash map:
//
//	matrix(n,m)[ ((i,j), e) | q1, group by (i,j) ]
//	=  { V_k := Array.fill(n*m)(1⊕k);
//	     [ V_k(i*m+j) := V_k(i*m+j) ⊕k g_k(w) | q1 ];
//	     (n, m, f(V_1, ..., V_k)) }
//
// The paper derives that this turns the matrix-multiplication
// comprehension into the textbook triple loop.

// Factored is one recognized reduction ⊕/x over a group-lifted
// variable (Rule 12): the hole variable replaces the reduction in the
// residual expression.
type Factored struct {
	Monoid string
	Var    string
	Hole   string
}

// FactorReductions rewrites reductions over lifted variables into
// placeholder variables, returning the factored aggregations and the
// residual expression. ok is false when a lifted variable survives
// outside a reduction (the general hash-map path must run then).
func FactorReductions(e Expr, lifted map[string]bool) ([]Factored, Expr, bool) {
	var aggs []Factored
	counter := 0
	var rewrite func(Expr) (Expr, bool)
	rewrite = func(x Expr) (Expr, bool) {
		switch v := x.(type) {
		case Reduce:
			if vr, ok := v.E.(Var); ok && lifted[vr.Name] {
				hole := holeName(&counter)
				aggs = append(aggs, Factored{Monoid: v.Monoid, Var: vr.Name, Hole: hole})
				return Var{Name: hole}, true
			}
			return x, false
		case Call:
			if (v.Fn == "count" || v.Fn == "length") && len(v.Args) == 1 {
				if vr, ok := v.Args[0].(Var); ok && lifted[vr.Name] {
					hole := holeName(&counter)
					aggs = append(aggs, Factored{Monoid: "count", Var: vr.Name, Hole: hole})
					return Var{Name: hole}, true
				}
			}
			args := make([]Expr, len(v.Args))
			allOK := true
			for i, a := range v.Args {
				na, ok := rewrite(a)
				args[i] = na
				allOK = allOK && ok
			}
			return Call{Fn: v.Fn, Args: args}, allOK
		case BinOp:
			l, lok := rewrite(v.L)
			r, rok := rewrite(v.R)
			return BinOp{Op: v.Op, L: l, R: r}, lok && rok
		case UnaryOp:
			inner, ok := rewrite(v.E)
			return UnaryOp{Op: v.Op, E: inner}, ok
		case TupleExpr:
			elems := make([]Expr, len(v.Elems))
			allOK := true
			for i, s := range v.Elems {
				ne, ok := rewrite(s)
				elems[i] = ne
				allOK = allOK && ok
			}
			return TupleExpr{Elems: elems}, allOK
		case IfExpr:
			c, cok := rewrite(v.Cond)
			th, tok := rewrite(v.Then)
			el, eok := rewrite(v.Else)
			return IfExpr{Cond: c, Then: th, Else: el}, cok && tok && eok
		default:
			return x, true
		}
	}
	final, _ := rewrite(e)
	for v := range FreeVars(final) {
		if lifted[v] {
			return nil, nil, false
		}
	}
	if len(aggs) == 0 {
		return nil, nil, false
	}
	return aggs, final, true
}

func holeName(counter *int) string {
	*counter++
	return "_hole" + string(rune('0'+*counter))
}

// destArraySpec is a matched destination-array build.
type destArraySpec struct {
	preQuals []Qualifier // qualifiers before the group-by
	keyVars  []string
	aggs     []Factored
	final    Expr
}

// matchDestArray checks the Section 3 shape: a trailing group-by whose
// pattern variables are exactly the head-key variables, with all
// lifted uses factored into reductions.
func matchDestArray(c Comprehension) (*destArraySpec, bool) {
	if len(c.Quals) == 0 {
		return nil, false
	}
	g, ok := c.Quals[len(c.Quals)-1].(GroupBy)
	if !ok || g.Of != nil {
		return nil, false
	}
	head, ok := c.Head.(TupleExpr)
	if !ok || len(head.Elems) != 2 {
		return nil, false
	}
	keyVars := PatternVars(g.Pat)
	// The head key must be the key variables verbatim.
	var keyElems []Expr
	if t, ok := head.Elems[0].(TupleExpr); ok {
		keyElems = t.Elems
	} else {
		keyElems = []Expr{head.Elems[0]}
	}
	if len(keyElems) != len(keyVars) {
		return nil, false
	}
	for i, e := range keyElems {
		v, ok := e.(Var)
		if !ok || v.Name != keyVars[i] {
			return nil, false
		}
	}
	// Lifted variables: everything bound before the group-by except
	// the key variables.
	lifted := map[string]bool{}
	for _, q := range c.Quals[:len(c.Quals)-1] {
		switch qq := q.(type) {
		case Generator:
			for _, v := range PatternVars(qq.Pat) {
				lifted[v] = true
			}
		case LetQual:
			for _, v := range PatternVars(qq.Pat) {
				lifted[v] = true
			}
		}
	}
	for _, k := range keyVars {
		delete(lifted, k)
	}
	aggs, final, ok := FactorReductions(head.Elems[1], lifted)
	if !ok {
		return nil, false
	}
	return &destArraySpec{
		preQuals: c.Quals[:len(c.Quals)-1],
		keyVars:  keyVars,
		aggs:     aggs,
		final:    final,
	}, true
}

// evalDestArrayMatrix runs the destination-array translation for the
// matrix builder. ok is false when the shape does not match.
func evalDestArrayMatrix(x BuildExpr, env *Env) (Value, bool) {
	body, okc := x.Body.(Comprehension)
	if !okc {
		return nil, false
	}
	spec, okm := matchDestArray(body)
	if !okm || len(spec.keyVars) != 2 {
		return nil, false
	}
	n := MustInt(eval(x.Args[0], env))
	m := MustInt(eval(x.Args[1], env))

	monoids := make([]Monoid, len(spec.aggs))
	for i, a := range spec.aggs {
		mo, err := LookupMonoid(a.Monoid)
		if err != nil || a.Monoid == "++" {
			return nil, false
		}
		monoids[i] = mo
	}
	// One destination accumulator per aggregation, plus a touched map
	// distinguishing absent cells (builder default 0) from cells whose
	// accumulated value happens to equal the identity.
	accs := make([][]Value, len(spec.aggs))
	for i, mo := range monoids {
		accs[i] = make([]Value, n*m)
		for j := range accs[i] {
			accs[i][j] = mo.Zero()
		}
	}
	touched := make([]bool, n*m)

	// Stream the pre-group bindings, accumulating in place:
	// [ V_k(i*m+j) ⊕= g_k(w) | q1 ].
	forEachBinding(spec.preQuals, binding{env: env}, func(b binding) {
		keyI, okI := b.env.Lookup(spec.keyVars[0])
		keyJ, okJ := b.env.Lookup(spec.keyVars[1])
		if !okI || !okJ {
			panic(typeErr("bound group key", nil))
		}
		i, j := MustInt(keyI), MustInt(keyJ)
		if i < 0 || i >= n || j < 0 || j >= m {
			return
		}
		cell := int(i*m + j)
		touched[cell] = true
		for k, a := range spec.aggs {
			v, ok := b.env.Lookup(a.Var)
			if !ok {
				panic(typeErr("lifted variable "+a.Var, nil))
			}
			accs[k][cell] = monoids[k].Op(accs[k][cell], MonoidLift(a.Monoid, v))
		}
	})

	out := linalg.NewDense(int(n), int(m))
	for cell := range touched {
		if !touched[cell] {
			continue
		}
		// The residual may read the group key, as after Rule 11.
		fenv := env.Bind(spec.keyVars[0], int64(cell)/m).Bind(spec.keyVars[1], int64(cell)%m)
		for k, a := range spec.aggs {
			fenv = fenv.Bind(a.Hole, MonoidFinalize(a.Monoid, accs[k][cell]))
		}
		out.Data[cell] = MustFloat(eval(spec.final, fenv))
	}
	return MatrixStorage{M: out}, true
}

// evalDestArrayVector is the vector-builder analogue.
func evalDestArrayVector(x BuildExpr, env *Env) (Value, bool) {
	body, okc := x.Body.(Comprehension)
	if !okc {
		return nil, false
	}
	spec, okm := matchDestArray(body)
	if !okm || len(spec.keyVars) != 1 {
		return nil, false
	}
	n := MustInt(eval(x.Args[0], env))

	monoids := make([]Monoid, len(spec.aggs))
	for i, a := range spec.aggs {
		mo, err := LookupMonoid(a.Monoid)
		if err != nil || a.Monoid == "++" {
			return nil, false
		}
		monoids[i] = mo
	}
	accs := make([][]Value, len(spec.aggs))
	for i, mo := range monoids {
		accs[i] = make([]Value, n)
		for j := range accs[i] {
			accs[i][j] = mo.Zero()
		}
	}
	touched := make([]bool, n)

	forEachBinding(spec.preQuals, binding{env: env}, func(b binding) {
		keyI, okI := b.env.Lookup(spec.keyVars[0])
		if !okI {
			panic(typeErr("bound group key", nil))
		}
		i := MustInt(keyI)
		if i < 0 || i >= n {
			return
		}
		touched[i] = true
		for k, a := range spec.aggs {
			v, ok := b.env.Lookup(a.Var)
			if !ok {
				panic(typeErr("lifted variable "+a.Var, nil))
			}
			accs[k][i] = monoids[k].Op(accs[k][i], MonoidLift(a.Monoid, v))
		}
	})

	out := linalg.NewVector(int(n))
	for cell := range touched {
		if !touched[cell] {
			continue
		}
		fenv := env.Bind(spec.keyVars[0], int64(cell))
		for k, a := range spec.aggs {
			fenv = fenv.Bind(a.Hole, MonoidFinalize(a.Monoid, accs[k][cell]))
		}
		out.Data[cell] = MustFloat(eval(spec.final, fenv))
	}
	return VectorStorage{V: out}, true
}

// forEachBinding streams the bindings produced by a qualifier prefix
// (no group-by) without materializing them, calling visit per binding.
func forEachBinding(quals []Qualifier, b binding, visit func(binding)) {
	if len(quals) == 0 {
		visit(b)
		return
	}
	switch q := quals[0].(type) {
	case Generator:
		src := eval(q.Src, b.env)
		iterSource(src, func(v Value) bool {
			nb, ok := b.withPat(q.Pat, v)
			if ok {
				forEachBinding(quals[1:], nb, visit)
			}
			return true
		})
	case LetQual:
		nb, ok := b.withPat(q.Pat, eval(q.E, b.env))
		if ok {
			forEachBinding(quals[1:], nb, visit)
		}
	case Guard:
		if MustBool(eval(q.E, b.env)) {
			forEachBinding(quals[1:], b, visit)
		}
	default:
		panic(typeErr("pre-group qualifier", q))
	}
}
