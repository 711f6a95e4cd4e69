package plan

import (
	"fmt"
	"sort"

	"repro/internal/comp"
	"repro/internal/dataflow"
	"repro/internal/tiled"
)

// This file implements the Section 4 coordinate-format translation: the
// correct-for-everything fallback that sparsifies block arrays into
// element rows, evaluates the comprehension qualifiers per row on the
// dataflow engine (joins derived by Rule 14, group-by as reduceByKey by
// Rules 12-13 or groupByKey by Rule 11), and rebuilds the requested
// storage. Like the tile strategies it is planned once, inside Compile
// (planCoord); Execute only resolves arrays and wires datasets, and
// Explain formats the plan it is given. Every row the pipeline shuffles
// is a comp.Value or a Pair[string, comp.Value] (codecs.go), so the
// fallback runs under a memory budget and on a cluster like any other
// strategy.

// coordGen is a generator over a catalog-bound distributed array.
type coordGen struct {
	pat  comp.Pattern
	name string
}

// coordJoin is one Rule 14 step: the chain built so far and the joining
// generator's rows are keyed by the left and right sides of the equality
// guards that link them.
type coordJoin struct{ left, right []comp.Expr }

// coordPlan is the coordinate translation of one comprehension. It is
// symbolic — names, patterns and expressions with the catalog scalars
// folded in, no datasets — because an array's tile size and partition
// count are facts of whatever is bound under its name when the plan
// runs: a cached plan survives a same-shape re-registration. It is
// immutable after Compile. Lowering its expressions onto the kernel IR
// (ROADMAP 2a) would attach here.
type coordPlan struct {
	gens []coordGen // distributed generators, in chain order
	// seedVars, when non-empty, are scalar-bounded range variables whose
	// cartesian product (seedRanges) seeds the chain, every generator
	// joining in; otherwise gens[0] seeds it.
	seedVars   []string
	seedRanges []comp.Range
	joins      []coordJoin // one per generator after the seed
	// expand holds the residual qualifiers in source order; its head is the
	// pre-group row (key, payload).
	expand  comp.Comprehension
	group   []string        // group-by variables; nil without a group-by
	aggs    []comp.Factored // non-nil: reduceByKey over these (Rules 12-13)
	monoids []comp.Monoid   // the monoid of each of aggs
	// payload names what a pre-group row carries beside its key: the
	// variables aggs reduce, or every lifted variable (groupByKey, Rule 11).
	payload []string
	// final yields the output row(s) of one group: a (key, value) tuple over
	// the holes of aggs, or a comprehension over the lifted lists that also
	// runs the qualifiers after the group-by.
	final comp.Expr
}

// String is the detail Explain appends to the strategy line.
func (p *coordPlan) String() string {
	detail := fmt.Sprintf("%d generator(s)", len(p.gens))
	if len(p.gens) > 1 {
		detail += fmt.Sprintf(", %d-way join chain (Rule 14)", len(p.gens))
	}
	if len(p.seedVars) > 0 {
		detail += fmt.Sprintf(", seeded by the range product of %v", p.seedVars)
	}
	switch {
	case p.group == nil:
	case p.aggs != nil:
		detail += fmt.Sprintf(", group-by via reduceByKey with %d factored aggregation(s) (Rules 12-13)", len(p.aggs))
	default:
		detail += ", group-by via groupByKey (general Rule 11)"
	}
	return detail
}

// planCoord builds the coordinate plan from the query's one analysis.
// Everything that does not depend on the data fails here: a cartesian
// product, an unbound variable, a head key of the wrong arity.
func (q *Compiled) planCoord() (*coordPlan, error) {
	info := q.info
	p := &coordPlan{group: info.GroupBy}
	var local []comp.Qualifier
	var bound []string // the variables the qualifiers bind, in source order
	for _, qq := range info.Quals {
		switch g := qq.(type) {
		case comp.LetQual:
			bound = g.Pat.Vars(bound)
		case comp.Generator:
			bound = g.Pat.Vars(bound)
			if v, ok := g.Src.(comp.Var); ok && q.cat.isArray(v.Name) {
				p.gens = append(p.gens, coordGen{pat: g.Pat, name: v.Name})
				continue
			}
		}
		local = append(local, qq)
	}
	head := comp.TupleExpr{Elems: []comp.Expr{info.HeadKey, info.HeadVal}}

	// Scope check: with the joins binding every distributed generator
	// first, each variable must be bound by a generator, let or range.
	scope := make([]comp.Qualifier, 0, len(info.Quals)+len(info.PostQuals))
	for _, g := range p.gens {
		scope = append(scope, comp.LetQual{Pat: g.pat, E: comp.Lit{}})
	}
	scope = append(append(scope, local...), info.PostQuals...)
	if free := comp.FreeVars(comp.Comprehension{Head: head, Quals: scope}); len(free) > 0 {
		names := make([]string, 0, len(free))
		for v := range free {
			names = append(names, v)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("plan: unbound variable %q", names[0])
	}
	if len(p.gens) == 0 {
		return nil, fmt.Errorf("plan: cannot infer tile size: no generator ranges over a registered array")
	}
	if key, ok := info.HeadKey.(comp.TupleExpr); ok && len(q.dims) > 0 && len(key.Elems) != len(q.dims) {
		return nil, fmt.Errorf("plan: %s key must have %d component(s), got %s", q.builder, len(q.dims), info.HeadKey)
	}

	// Seed choice. The first generator seeds the chain unless that fails —
	// generators that only connect through loop (range) variables:
	// stencils — or leaves a scalar-bounded range join-linked to generator
	// variables: expanding such a range per joined row multiplies the work
	// by the full range size before the guard filters it back. Then the
	// range product seeds it, if that chain links.
	var err error
	if p.joins, p.expand.Quals, err = linkChain(p.gens, nil, local); err != nil || leavesLinkedRanges(p.expand.Quals) {
		vars, ranges, rest := scalarRanges(local)
		joins, quals, serr := linkChain(p.gens, vars, rest)
		if len(vars) == 0 {
			serr = fmt.Errorf("plan: no scalar-bounded range generators to seed the join chain")
		}
		switch {
		case serr == nil:
			p.seedVars, p.seedRanges, p.joins, p.expand.Quals = vars, ranges, joins, quals
		case err != nil:
			return nil, fmt.Errorf("%w (range-seeded retry: %v)", err, serr)
		}
	}

	if p.group == nil {
		p.expand.Head = head
		return p, nil
	}
	// Rule 12: factor the head into monoid reductions over the lifted
	// variables. When every occurrence of one is inside such a reduction,
	// each monoid commutes and nothing follows the group-by, the group-by
	// is a reduceByKey (Rule 13); otherwise the groups are collected and
	// each variable lifted to the list of its values (Rule 11).
	p.final = comp.Comprehension{Head: head, Quals: info.PostQuals}
	isLifted := map[string]bool{}
	for _, v := range bound {
		isLifted[v] = true
	}
	for _, v := range p.group {
		delete(isLifted, v)
	}
	for _, v := range bound {
		if isLifted[v] {
			p.payload = append(p.payload, v)
		}
	}
	if aggs, final, ok := comp.FactorReductions(info.HeadVal, isLifted); ok && len(info.PostQuals) == 0 {
		commutative := true
		monoids, vars := make([]comp.Monoid, len(aggs)), make([]string, len(aggs))
		for i, a := range aggs {
			if monoids[i], err = comp.LookupMonoid(a.Monoid); err != nil {
				return nil, err
			}
			commutative = commutative && monoids[i].Commutative
			vars[i] = a.Var
		}
		if commutative {
			p.aggs, p.monoids, p.payload = aggs, monoids, vars
			p.final = comp.TupleExpr{Elems: []comp.Expr{info.HeadKey, final}}
		}
	}
	p.expand.Head = comp.TupleExpr{Elems: []comp.Expr{varTuple(p.group), varTuple(p.payload)}}
	return p, nil
}

// linkChain derives the Rule 14 joins that bring every generator after
// the seed — seedVars, or gens[0] when there are none — into the chain:
// the equality guards with one side over the variables bound so far and
// the other over the joining generator's. It returns the joins and the
// qualifiers they did not consume.
func linkChain(gens []coordGen, seedVars []string, local []comp.Qualifier) ([]coordJoin, []comp.Qualifier, error) {
	bound := map[string]bool{}
	for _, v := range seedVars {
		bound[v] = true
	}
	var joins []coordJoin
	for k, g := range gens {
		vars := map[string]bool{}
		for _, v := range comp.PatternVars(g.pat) {
			vars[v] = true
		}
		if k > 0 || len(seedVars) > 0 {
			var j coordJoin
			var rest []comp.Qualifier
			links := func(chain, joining map[string]bool) bool {
				return len(chain) > 0 && len(joining) > 0 && subset(chain, bound) && subset(joining, vars)
			}
			for _, qq := range local {
				if l, r, ok := equality(qq); ok {
					lv, rv := comp.FreeVars(l), comp.FreeVars(r)
					if !links(lv, rv) {
						l, r, lv, rv = r, l, rv, lv
					}
					if links(lv, rv) {
						j.left, j.right = append(j.left, l), append(j.right, r)
						continue
					}
				}
				rest = append(rest, qq)
			}
			if len(j.left) == 0 {
				return nil, nil, fmt.Errorf("plan: no equi-join condition linking %s into the chain (cartesian products unsupported)", g.name)
			}
			joins, local = append(joins, j), rest
		}
		for v := range vars {
			bound[v] = true
		}
	}
	return joins, local, nil
}

// equality matches a guard of the form l == r.
func equality(qq comp.Qualifier) (l, r comp.Expr, ok bool) {
	if g, isGuard := qq.(comp.Guard); isGuard {
		if b, isBin := g.E.(comp.BinOp); isBin && b.Op == "==" {
			return b.L, b.R, true
		}
	}
	return nil, nil, false
}

func subset(a, b map[string]bool) bool {
	for v := range a {
		if !b[v] {
			return false
		}
	}
	return true
}

// scalarRanges splits the qualifiers into the range generators whose
// bounds are constants — the catalog scalars are folded in by Compile, so
// bounds that fail to evaluate read generator variables — and the rest.
func scalarRanges(local []comp.Qualifier) (vars []string, ranges []comp.Range, rest []comp.Qualifier) {
	for _, qq := range local {
		if g, ok := qq.(comp.Generator); ok {
			pv, isVar := g.Pat.(comp.PVar)
			if b, isBin := g.Src.(comp.BinOp); isVar && isBin && (b.Op == "until" || b.Op == "to") {
				if v, err := comp.Eval(g.Src, nil); err == nil {
					vars, ranges = append(vars, pv.Name), append(ranges, v.(comp.Range))
					continue
				}
			}
		}
		rest = append(rest, qq)
	}
	return vars, ranges, rest
}

// leavesLinkedRanges reports whether a chain's remaining qualifiers hold a
// scalar-bounded range whose variable an equality guard constrains — the
// signature of a join the range-seeded chain would have used.
func leavesLinkedRanges(local []comp.Qualifier) bool {
	vars, _, rest := scalarRanges(local)
	isRange := map[string]bool{}
	for _, v := range vars {
		isRange[v] = true
	}
	for _, qq := range rest {
		if l, r, ok := equality(qq); ok {
			for v := range comp.FreeVars(comp.TupleExpr{Elems: []comp.Expr{l, r}}) {
				if isRange[v] {
					return true
				}
			}
		}
	}
	return false
}

// varTuple is the tuple expression (v1, ..., vn).
func varTuple(vars []string) comp.Expr {
	elems := make([]comp.Expr, len(vars))
	for i, v := range vars {
		elems[i] = comp.Var{Name: v}
	}
	return comp.TupleExpr{Elems: elems}
}

// bind rebuilds the environment of a chain tuple — the seed values, if
// any, then one entry per joined generator — for its first n generators.
func (p *coordPlan) bind(tuple comp.Value, n int) (*comp.Env, bool) {
	entries := comp.MustTuple(tuple)
	var env *comp.Env
	if len(p.seedVars) > 0 {
		vals := comp.MustTuple(entries[0])
		for i, name := range p.seedVars {
			env = env.Bind(name, vals[i])
		}
		entries = entries[1:]
	}
	for i, g := range p.gens[:n] {
		var ok bool
		if env, ok = comp.MatchPattern(g.pat, entries[i], env); !ok {
			return nil, false
		}
	}
	return env, true
}

// coordSource streams the array bound under name as calculus entries and
// reports its tile size.
func (q *Compiled) coordSource(name string) (*dataflow.Dataset[comp.Value], int, error) {
	switch arr := q.cat.vals[name].(type) {
	case *tiled.Matrix:
		return dataflow.Map(arr.Sparsify(), func(e tiled.Entry) comp.Value {
			return comp.T(comp.T(e.I, e.J), e.V)
		}), arr.N, nil
	case *tiled.Vector:
		n, size := arr.N, arr.Size
		return dataflow.FlatMap(arr.Blocks, func(b tiled.VBlock) []comp.Value {
			var out []comp.Value
			off := b.Key * int64(n)
			for i := 0; i < n; i++ {
				gi := off + int64(i)
				if gi >= size {
					break
				}
				out = append(out, comp.T(gi, b.Value.At(i)))
			}
			return out
		}), arr.N, nil
	default:
		return nil, 0, fmt.Errorf("plan: %q is not a distributed array", name)
	}
}

// runCoord wires the plan onto the arrays bound now: the dataset of
// (key, value) rows after the join chain, the residual qualifiers and the
// group-by, plus the tile size of the first input.
func (q *Compiled) runCoord() (*dataflow.Dataset[comp.Value], int, error) {
	p := q.coord
	srcs := make([]*dataflow.Dataset[comp.Value], len(p.gens))
	var tile int
	for i, g := range p.gens {
		src, n, err := q.coordSource(g.name)
		if err != nil {
			return nil, 0, err
		}
		if srcs[i] = src; i == 0 {
			tile = n
		}
	}

	var base *dataflow.Dataset[comp.Value]
	if len(p.seedVars) > 0 {
		base = seedProduct(q.cat.ctx, p.seedRanges)
	} else {
		g0 := p.gens[0]
		base = dataflow.FlatMap(srcs[0], func(e comp.Value) []comp.Value {
			if _, ok := comp.MatchPattern(g0.pat, e, nil); !ok {
				return nil
			}
			return []comp.Value{comp.Value(comp.T(e))}
		})
	}
	for i, j := range p.joins {
		k := len(p.gens) - len(p.joins) + i
		base = p.join(base, srcs[k], k, j)
	}
	rows := dataflow.FlatMap(base, func(tuple comp.Value) []comp.Value {
		env, ok := p.bind(tuple, len(p.gens))
		if !ok {
			return nil
		}
		return comp.MustList(comp.EvalFast(p.expand, env))
	})
	switch {
	case p.group == nil:
	case p.aggs != nil:
		rows = p.reduceGrouped(rows)
	default:
		rows = p.collectGrouped(rows)
	}
	return rows, tile, nil
}

// seedProduct materializes the cartesian product of the seed ranges, one
// chain tuple per index combination (loop-domain-driven, the DIABLO
// stencil case).
func seedProduct(ctx *dataflow.Context, ranges []comp.Range) *dataflow.Dataset[comp.Value] {
	total := int64(1)
	for _, r := range ranges {
		total *= r.Len()
	}
	parts := ctx.DefaultPartitions()
	if int64(parts) > total && total > 0 {
		parts = int(total)
	}
	if parts < 1 {
		parts = 1
	}
	return dataflow.Generate(ctx, parts, func(p int) []comp.Value {
		lo := int64(p) * total / int64(parts)
		hi := int64(p+1) * total / int64(parts)
		out := make([]comp.Value, 0, hi-lo)
		for flat := lo; flat < hi; flat++ {
			vals := make(comp.Tuple, len(ranges))
			rem := flat
			for i := len(ranges) - 1; i >= 0; i-- {
				span := ranges[i].Len()
				vals[i] = ranges[i].Lo + rem%span
				rem /= span
			}
			out = append(out, comp.Value(comp.T(comp.Value(vals))))
		}
		return out
	})
}

// join runs one Rule 14 step: generator k's rows join the chain on the
// step's key expressions, extending each matching tuple by the entry.
func (p *coordPlan) join(base, src *dataflow.Dataset[comp.Value], k int, j coordJoin) *dataflow.Dataset[comp.Value] {
	key := func(keys []comp.Expr, env *comp.Env) string {
		t := make(comp.Tuple, len(keys))
		for i, ke := range keys {
			t[i] = comp.EvalFast(ke, env)
		}
		return comp.KeyString(t)
	}
	left := dataflow.FlatMap(base, func(tuple comp.Value) []dataflow.Pair[string, comp.Value] {
		env, ok := p.bind(tuple, k)
		if !ok {
			return nil
		}
		return []dataflow.Pair[string, comp.Value]{dataflow.KV(key(j.left, env), tuple)}
	})
	pat := p.gens[k].pat
	right := dataflow.FlatMap(src, func(e comp.Value) []dataflow.Pair[string, comp.Value] {
		env, ok := comp.MatchPattern(pat, e, nil)
		if !ok {
			return nil
		}
		return []dataflow.Pair[string, comp.Value]{dataflow.KV(key(j.right, env), e)}
	})
	joined := dataflow.Join(left, right, left.NumPartitions())
	return dataflow.Map(joined, func(m dataflow.Pair[string, dataflow.JoinedPair[comp.Value, comp.Value]]) comp.Value {
		prev := comp.MustTuple(m.Value.Left)
		out := make(comp.Tuple, len(prev)+1)
		copy(out, prev)
		out[len(prev)] = m.Value.Right
		return out
	})
}

// bindGroup binds the group-by variables to a group's key.
func (p *coordPlan) bindGroup(env *comp.Env, key comp.Value) *comp.Env {
	for i, v := range comp.MustTuple(key) {
		env = env.Bind(p.group[i], v)
	}
	return env
}

// reduceGrouped implements the Rule 13 path: rows carry
// (key, (x1..xm)); reduceByKey with the product monoid; finalize.
func (p *coordPlan) reduceGrouped(rows *dataflow.Dataset[comp.Value]) *dataflow.Dataset[comp.Value] {
	aggs, monoids := p.aggs, p.monoids
	keyed := dataflow.Map(rows, func(row comp.Value) dataflow.Pair[string, comp.Value] {
		t := comp.MustTuple(row)
		payload := comp.MustTuple(t[1])
		lifted := make(comp.Tuple, len(aggs))
		for i, a := range aggs {
			lifted[i] = comp.MonoidLift(a.Monoid, payload[i])
		}
		return dataflow.KV(comp.KeyString(t[0]), comp.Value(comp.T(t[0], lifted)))
	})
	combined := dataflow.ReduceByKey(keyed, func(a, b comp.Value) comp.Value {
		ta, tb := comp.MustTuple(a), comp.MustTuple(b)
		pa, pb := comp.MustTuple(ta[1]), comp.MustTuple(tb[1])
		out := make(comp.Tuple, len(monoids))
		for i, m := range monoids {
			out[i] = m.Op(pa[i], pb[i])
		}
		return comp.T(ta[0], out)
	}, rows.NumPartitions())
	return dataflow.Map(combined, func(kv dataflow.Pair[string, comp.Value]) comp.Value {
		t := comp.MustTuple(kv.Value)
		env := p.bindGroup(nil, t[0])
		for i, acc := range comp.MustTuple(t[1]) {
			env = env.Bind(aggs[i].Hole, comp.MonoidFinalize(aggs[i].Monoid, acc))
		}
		return comp.EvalFast(p.final, env)
	})
}

// collectGrouped implements the general group-by: groupByKey, lift
// each variable to the list of its group values (Rule 11), evaluate
// the post-group qualifiers and head per group.
func (p *coordPlan) collectGrouped(rows *dataflow.Dataset[comp.Value]) *dataflow.Dataset[comp.Value] {
	keyed := dataflow.Map(rows, func(row comp.Value) dataflow.Pair[string, comp.Value] {
		return dataflow.KV(comp.KeyString(comp.MustTuple(row)[0]), row)
	})
	grouped := dataflow.GroupByKey(keyed, rows.NumPartitions())
	return dataflow.FlatMap(grouped, func(g dataflow.Pair[string, []comp.Value]) []comp.Value {
		if len(g.Value) == 0 {
			return nil
		}
		lists := make([]comp.List, len(p.payload))
		for _, row := range g.Value {
			payload := comp.MustTuple(comp.MustTuple(row)[1])
			for i := range lists {
				lists[i] = append(lists[i], payload[i])
			}
		}
		var env *comp.Env
		for i, v := range p.payload {
			env = env.Bind(v, lists[i])
		}
		env = p.bindGroup(env, comp.MustTuple(g.Value[0])[0])
		return comp.MustList(comp.EvalFast(p.final, env))
	})
}

// execTotalReduce evaluates ⊕/[ e | q ] by running the coordinate
// pipeline to produce the lifted values and aggregating them.
func (q *Compiled) execTotalReduce() (*Result, error) {
	vals, _, err := q.runCoord()
	if err != nil {
		return nil, err
	}
	mono, err := comp.LookupMonoid(q.reduce)
	if err != nil {
		return nil, err
	}
	name := q.reduce
	acc := dataflow.Aggregate(vals, mono.Zero(),
		func(a comp.Value, row comp.Value) comp.Value {
			t := comp.MustTuple(row)
			return mono.Op(a, comp.MonoidLift(name, t[1]))
		},
		func(a, b comp.Value) comp.Value { return mono.Op(a, b) })
	return &Result{Scalar: comp.MonoidFinalize(name, acc)}, nil
}

// execCoord runs the fallback strategy end to end and builds the
// requested output storage.
func (q *Compiled) execCoord() (*Result, error) {
	rows, n, err := q.runCoord()
	if err != nil {
		return nil, err
	}
	switch q.builder {
	case "tiled":
		entries := dataflow.FlatMap(rows, func(row comp.Value) []tiled.Entry {
			t := comp.MustTuple(row)
			key := comp.MustTuple(t[0])
			i, j := comp.MustInt(key[0]), comp.MustInt(key[1])
			if i < 0 || i >= q.dims[0] || j < 0 || j >= q.dims[1] {
				return nil
			}
			return []tiled.Entry{{I: i, J: j, V: comp.MustFloat(t[1])}}
		})
		m := tiled.Build(q.cat.ctx, q.dims[0], q.dims[1], n, entries, rows.NumPartitions())
		return &Result{Matrix: m}, nil
	case "tiledvec":
		size := q.dims[0]
		elems := dataflow.FlatMap(rows, func(row comp.Value) []dataflow.Pair[int64, float64] {
			t := comp.MustTuple(row)
			key := t[0]
			// A key bound to a tuple by a pattern is data the plan cannot see.
			if k, ok := key.(comp.Tuple); ok {
				if len(k) != 1 {
					panic(fmt.Errorf("plan: vector key must have one component, got %v", comp.Render(key)))
				}
				key = k[0]
			}
			i := comp.MustInt(key)
			if i < 0 || i >= size {
				return nil
			}
			return []dataflow.Pair[int64, float64]{dataflow.KV(i, comp.MustFloat(t[1]))}
		})
		return &Result{Vector: tiled.BuildVector(size, n, elems, elems.NumPartitions())}, nil
	default: // rdd, list
		out := append(comp.List{}, dataflow.Collect(rows)...)
		if q.bare {
			for i, row := range out {
				out[i] = comp.MustTuple(row)[1]
			}
		}
		return &Result{List: out}, nil
	}
}
