package comp

import (
	"fmt"
	"math"
)

// Env is a persistent binding environment (linked list of frames).
type Env struct {
	name string
	val  Value
	next *Env
}

// Bind returns a new environment extending e with name=val.
func (e *Env) Bind(name string, val Value) *Env {
	return &Env{name: name, val: val, next: e}
}

// Lookup resolves a variable.
func (e *Env) Lookup(name string) (Value, bool) {
	for f := e; f != nil; f = f.next {
		if f.name == name {
			return f.val, true
		}
	}
	return nil, false
}

// Eval evaluates an expression in env, returning an error instead of
// panicking on calculus type errors.
func Eval(e Expr, env *Env) (v Value, err error) {
	defer func() {
		if r := recover(); r != nil {
			if rerr, ok := r.(error); ok {
				err = rerr
				return
			}
			err = fmt.Errorf("comp: eval: %v", r)
		}
	}()
	return eval(e, env), nil
}

// MustEval evaluates and panics on error (for tests and internal use).
func MustEval(e Expr, env *Env) Value {
	v, err := Eval(e, env)
	if err != nil {
		panic(err)
	}
	return v
}

func eval(e Expr, env *Env) Value {
	switch x := e.(type) {
	case Var:
		v, ok := env.Lookup(x.Name)
		if !ok {
			panic(fmt.Errorf("comp: unbound variable %q", x.Name))
		}
		return v
	case Lit:
		return x.Val
	case TupleExpr:
		t := make(Tuple, len(x.Elems))
		for i, s := range x.Elems {
			t[i] = eval(s, env)
		}
		return t
	case BinOp:
		return evalBinOp(x, env)
	case UnaryOp:
		v := eval(x.E, env)
		switch x.Op {
		case "-":
			if i, ok := v.(int64); ok {
				return -i
			}
			return -MustFloat(v)
		case "!":
			return !MustBool(v)
		}
		panic(fmt.Errorf("comp: unknown unary op %q", x.Op))
	case Call:
		return evalCall(x, env)
	case IfExpr:
		if MustBool(eval(x.Cond, env)) {
			return eval(x.Then, env)
		}
		return eval(x.Else, env)
	case Index:
		return evalIndex(x, env)
	case Reduce:
		l := asList(eval(x.E, env))
		v, err := ReduceList(x.Monoid, l)
		if err != nil {
			panic(err)
		}
		return v
	case Comprehension:
		return evalComprehension(x, env)
	case BuildExpr:
		return evalBuild(x, env)
	default:
		panic(fmt.Errorf("comp: cannot evaluate %T", e))
	}
}

func evalBinOp(x BinOp, env *Env) Value {
	// Short-circuit boolean operators.
	switch x.Op {
	case "&&":
		if !MustBool(eval(x.L, env)) {
			return false
		}
		return MustBool(eval(x.R, env))
	case "||":
		if MustBool(eval(x.L, env)) {
			return true
		}
		return MustBool(eval(x.R, env))
	}
	l := eval(x.L, env)
	r := eval(x.R, env)
	switch x.Op {
	case "until":
		return Range{Lo: MustInt(l), Hi: MustInt(r)}
	case "to":
		return Range{Lo: MustInt(l), Hi: MustInt(r) + 1}
	case "==":
		return Equal(l, r)
	case "!=":
		return !Equal(l, r)
	case "++":
		return append(append(List{}, asList(l)...), asList(r)...)
	}
	// Integer arithmetic stays integral (array indices need this).
	li, lok := l.(int64)
	ri, rok := r.(int64)
	if lok && rok {
		switch x.Op {
		case "+":
			return li + ri
		case "-":
			return li - ri
		case "*":
			return li * ri
		case "/":
			if ri == 0 {
				panic(fmt.Errorf("comp: integer division by zero"))
			}
			return li / ri
		case "%":
			if ri == 0 {
				panic(fmt.Errorf("comp: integer modulo by zero"))
			}
			return li % ri
		case "<":
			return li < ri
		case "<=":
			return li <= ri
		case ">":
			return li > ri
		case ">=":
			return li >= ri
		}
	}
	lf, rf := MustFloat(l), MustFloat(r)
	switch x.Op {
	case "+":
		return lf + rf
	case "-":
		return lf - rf
	case "*":
		return lf * rf
	case "/":
		return lf / rf
	case "%":
		return math.Mod(lf, rf)
	case "<":
		return lf < rf
	case "<=":
		return lf <= rf
	case ">":
		return lf > rf
	case ">=":
		return lf >= rf
	}
	panic(fmt.Errorf("comp: unknown binary op %q", x.Op))
}

func evalCall(x Call, env *Env) Value {
	args := make([]Value, len(x.Args))
	for i, a := range x.Args {
		args[i] = eval(a, env)
	}
	need := func(n int) {
		if len(args) != n {
			panic(fmt.Errorf("comp: %s expects %d args, got %d", x.Fn, n, len(args)))
		}
	}
	switch x.Fn {
	case "abs":
		need(1)
		if i, ok := args[0].(int64); ok {
			if i < 0 {
				return -i
			}
			return i
		}
		return math.Abs(MustFloat(args[0]))
	case "sqrt":
		need(1)
		return math.Sqrt(MustFloat(args[0]))
	case "exp":
		need(1)
		return math.Exp(MustFloat(args[0]))
	case "log":
		need(1)
		return math.Log(MustFloat(args[0]))
	case "pow":
		need(2)
		return math.Pow(MustFloat(args[0]), MustFloat(args[1]))
	case "min":
		need(2)
		return pickNum(MinFloat, args[0], args[1])
	case "max":
		need(2)
		return pickNum(MaxFloat, args[0], args[1])
	case "count", "length":
		need(1)
		return int64(len(asList(args[0])))
	case "sum":
		need(1)
		v, err := ReduceList("+", asList(args[0]))
		if err != nil {
			panic(err)
		}
		return v
	case "avg":
		need(1)
		v, err := ReduceList("avg", asList(args[0]))
		if err != nil {
			panic(err)
		}
		return v
	case "float":
		need(1)
		return MustFloat(args[0])
	case "int":
		need(1)
		return MustInt(args[0])
	default:
		panic(fmt.Errorf("comp: unknown function %q", x.Fn))
	}
}

// evalIndex accesses V[e1,...,en]. Dense storages are accessed in
// O(1); association lists are scanned (the desugared generator+guard
// semantics of Section 2).
func evalIndex(x Index, env *Env) Value {
	arr := eval(x.Arr, env)
	idxs := make([]int64, len(x.Idxs))
	for i, s := range x.Idxs {
		idxs[i] = MustInt(eval(s, env))
	}
	switch a := arr.(type) {
	case MatrixStorage:
		if len(idxs) != 2 {
			panic(fmt.Errorf("comp: matrix indexing needs 2 indices, got %d", len(idxs)))
		}
		return a.At(idxs[0], idxs[1])
	case VectorStorage:
		if len(idxs) != 1 {
			panic(fmt.Errorf("comp: vector indexing needs 1 index, got %d", len(idxs)))
		}
		return a.V.At(int(idxs[0]))
	case List:
		var key Value
		if len(idxs) == 1 {
			key = idxs[0]
		} else {
			t := make(Tuple, len(idxs))
			for i, v := range idxs {
				t[i] = v
			}
			key = t
		}
		for _, e := range a {
			t := MustTuple(e)
			if Equal(t[0], key) {
				return t[1]
			}
		}
		return float64(0) // sparse default
	default:
		panic(fmt.Errorf("comp: cannot index %T", arr))
	}
}

// asList coerces list-like values (List, Range, Storage) to a List.
func asList(v Value) List {
	switch x := v.(type) {
	case List:
		return x
	case Range:
		return x.ToList()
	case Storage:
		return SparsifyAll(x)
	default:
		panic(typeErr("list", v))
	}
}

// iterSource streams the elements a generator draws from.
func iterSource(v Value, yield func(Value) bool) {
	switch x := v.(type) {
	case List:
		for _, e := range x {
			if !yield(e) {
				return
			}
		}
	case Range:
		for i := x.Lo; i < x.Hi; i++ {
			if !yield(i) {
				return
			}
		}
	case Storage:
		x.SparsifyIter(yield)
	default:
		panic(typeErr("generator source", v))
	}
}

// match attempts to bind pattern p against v, extending env. The bool
// result reports structural match; mismatching elements are filtered
// out (standard refutable-pattern comprehension semantics).
func match(p Pattern, v Value, env *Env) (*Env, bool) {
	switch pp := p.(type) {
	case PVar:
		if pp.Name == "_" {
			return env, true
		}
		return env.Bind(pp.Name, v), true
	case PTuple:
		t, ok := v.(Tuple)
		if !ok || len(t) != len(pp.Elems) {
			return env, false
		}
		for i, sub := range pp.Elems {
			env, ok = match(sub, t[i], env)
			if !ok {
				return env, false
			}
		}
		return env, true
	default:
		panic(fmt.Errorf("comp: unknown pattern %T", p))
	}
}

// binding is one evaluation context flowing through the qualifiers,
// plus the ordered list of variables bound so far (needed by group-by
// lifting).
type binding struct {
	env  *Env
	vars []string
}

func (b binding) withPat(p Pattern, v Value) (binding, bool) {
	env, ok := match(p, v, b.env)
	if !ok {
		return b, false
	}
	names := PatternVars(p)
	vars := b.vars
	for _, n := range names {
		vars = appendUnique(vars, n)
	}
	return binding{env: env, vars: vars}, true
}

func appendUnique(xs []string, x string) []string {
	for _, e := range xs {
		if e == x {
			return xs
		}
	}
	out := make([]string, len(xs), len(xs)+1)
	copy(out, xs)
	return append(out, x)
}

// evalComprehension implements the monoid comprehension semantics:
// desugaring rules (4)-(7) plus the group-by semantics of Rule 11.
func evalComprehension(c Comprehension, env *Env) Value {
	bindings := []binding{{env: env}}
	for qi, q := range c.Quals {
		switch qq := q.(type) {
		case Generator:
			var next []binding
			for _, b := range bindings {
				src := eval(qq.Src, b.env)
				iterSource(src, func(v Value) bool {
					nb, ok := b.withPat(qq.Pat, v)
					if ok {
						next = append(next, nb)
					}
					return true
				})
			}
			bindings = next
		case LetQual:
			var next []binding
			for _, b := range bindings {
				nb, ok := b.withPat(qq.Pat, eval(qq.E, b.env))
				if ok {
					next = append(next, nb)
				}
			}
			bindings = next
		case Guard:
			var next []binding
			for _, b := range bindings {
				if MustBool(eval(qq.E, b.env)) {
					next = append(next, b)
				}
			}
			bindings = next
		case GroupBy:
			bindings = evalGroupBy(qq, bindings)
		default:
			panic(fmt.Errorf("comp: unknown qualifier %T at %d", q, qi))
		}
	}
	out := make(List, 0, len(bindings))
	for _, b := range bindings {
		out = append(out, eval(c.Head, b.env))
	}
	return out
}

// evalGroupBy implements Rule 11: group the bindings by the key
// pattern; every variable bound before the group-by and not part of
// the key is lifted to the List of its values within the group.
func evalGroupBy(q GroupBy, bindings []binding) []binding {
	// group by p : e  ==  let p = e, group by p
	if q.Of != nil {
		var next []binding
		for _, b := range bindings {
			nb, ok := b.withPat(q.Pat, eval(q.Of, b.env))
			if ok {
				next = append(next, nb)
			}
		}
		bindings = next
	}
	keyVars := PatternVars(q.Pat)
	isKey := map[string]bool{}
	for _, k := range keyVars {
		isKey[k] = true
	}

	type group struct {
		keyVals []Value
		lifted  map[string]List
		vars    []string
	}
	order := []string{}
	groups := map[string]*group{}

	for _, b := range bindings {
		keyVals := make([]Value, len(keyVars))
		keyParts := make(Tuple, len(keyVars))
		for i, k := range keyVars {
			v, ok := b.env.Lookup(k)
			if !ok {
				panic(fmt.Errorf("comp: group-by key variable %q unbound", k))
			}
			keyVals[i] = v
			keyParts[i] = v
		}
		ks := KeyString(keyParts)
		g, ok := groups[ks]
		if !ok {
			g = &group{keyVals: keyVals, lifted: map[string]List{}, vars: b.vars}
			groups[ks] = g
			order = append(order, ks)
		}
		for _, name := range b.vars {
			if isKey[name] {
				continue
			}
			v, _ := b.env.Lookup(name)
			g.lifted[name] = append(g.lifted[name], v)
		}
	}

	out := make([]binding, 0, len(groups))
	for _, ks := range order {
		g := groups[ks]
		env := (*Env)(nil)
		vars := []string{}
		for _, name := range g.vars {
			if !isKey[name] {
				env = env.Bind(name, g.lifted[name])
				vars = append(vars, name)
			}
		}
		for i, k := range keyVars {
			env = env.Bind(k, g.keyVals[i])
			vars = appendUnique(vars, k)
		}
		out = append(out, binding{env: env, vars: vars})
	}
	return out
}

// evalBuild applies an array builder to its comprehension result.
// Matrix and vector builds over trailing group-by comprehensions first
// try the Section 3 destination-array translation, which accumulates
// into the output storage directly instead of a hash map.
func evalBuild(x BuildExpr, env *Env) Value {
	switch x.Builder {
	case "matrix":
		if len(x.Args) == 2 {
			if v, ok := evalDestArrayMatrix(x, env); ok {
				return v
			}
		}
	case "vector":
		if len(x.Args) == 1 {
			if v, ok := evalDestArrayVector(x, env); ok {
				return v
			}
		}
	}
	body := asList(eval(x.Body, env))
	argv := make([]int64, len(x.Args))
	for i, a := range x.Args {
		argv[i] = MustInt(eval(a, env))
	}
	switch x.Builder {
	case "matrix":
		if len(argv) != 2 {
			panic(fmt.Errorf("comp: matrix builder needs 2 args"))
		}
		return BuildMatrix(argv[0], argv[1], body)
	case "vector":
		if len(argv) != 1 {
			panic(fmt.Errorf("comp: vector builder needs 1 arg"))
		}
		return BuildVector(argv[0], body)
	case "coo":
		if len(argv) != 2 {
			panic(fmt.Errorf("comp: coo builder needs 2 args"))
		}
		return BuildCOO(argv[0], argv[1], body)
	case "list", "rdd":
		return body
	case "set":
		seen := map[string]bool{}
		out := List{}
		for _, v := range body {
			k := KeyString(v)
			if !seen[k] {
				seen[k] = true
				out = append(out, v)
			}
		}
		return out
	default:
		panic(fmt.Errorf("comp: unknown builder %q (tiled queries go through the plan package)", x.Builder))
	}
}

// EvalFast evaluates without the panic-recovery wrapper of Eval; the
// planner's inner loops call it once per element, where the deferred
// recover of Eval would dominate. Calculus type errors panic.
func EvalFast(e Expr, env *Env) Value { return eval(e, env) }

// MatchPattern exposes pattern matching for the planner: it binds p
// against v on top of env, reporting structural match.
func MatchPattern(p Pattern, v Value, env *Env) (*Env, bool) {
	return match(p, v, env)
}
