// Package opt analyzes desugared array comprehensions and selects the
// physical translation strategy of Section 5: tiling-preserving join
// (Rule 17), replication with destination index sets I_f(K) (Rule 19),
// per-tile partial aggregation + reduceByKey (Section 5.3, Rule 13),
// the SUMMA-style group-by-join (Section 5.4), or the coordinate-format
// fallback (Section 4). The decisions are structural — they look only
// at generators, equality predicates, group-by keys and monoid
// reductions, never at linear-algebra operation names.
package opt

import (
	"fmt"

	"repro/internal/comp"
)

// ArrayGen is a generator over a named distributed array:
// ((i,j),v) <- A  or  (i,v) <- V.
type ArrayGen struct {
	Name      string   // array variable
	IndexVars []string // ["i","j"] for matrices, ["i"] for vectors
	ValueVar  string   // bound element value (may be "_")
}

// RangeGen is a generator over an integer range: i <- e1 until e2.
type RangeGen struct {
	Var string
	Src comp.Expr
}

// QueryInfo is the normalized structure of one comprehension body.
type QueryInfo struct {
	Gens      []ArrayGen
	RangeGens []RangeGen
	Lets      []comp.LetQual
	Filters   []comp.Expr // guards that are not var==var join conditions
	JoinConds [][2]string // equality predicates between index variables
	GroupBy   []string    // group-by key variables (nil when absent)
	HeadKey   comp.Expr
	HeadVal   comp.Expr
	// Quals are the qualifiers before the group-by and PostQuals the lets
	// and guards after it (a HAVING clause), both in source order: what
	// the Section 4 coordinate translation evaluates per row and per
	// group. The fields above classify Quals for the block rules, which
	// have no per-group step — a query with PostQuals takes the fallback.
	Quals, PostQuals []comp.Qualifier
}

// Extract normalizes a desugared comprehension whose head is a
// (key, value) pair. It fails on shapes outside the calculus subset
// (nested group-bys, non-pair heads, exotic generators).
func Extract(c comp.Comprehension) (*QueryInfo, error) {
	head, ok := c.Head.(comp.TupleExpr)
	if !ok || len(head.Elems) != 2 {
		return nil, fmt.Errorf("opt: comprehension head must be a (key, value) pair, got %s", c.Head)
	}
	info := &QueryInfo{HeadKey: head.Elems[0], HeadVal: head.Elems[1]}

	indexVars := map[string]bool{}
	seenGroupBy := false
	for _, q := range c.Quals {
		_, isGen := q.(comp.Generator)
		_, isGroupBy := q.(comp.GroupBy)
		switch {
		case isGroupBy:
		case !seenGroupBy:
			info.Quals = append(info.Quals, q)
		case isGen:
			return nil, fmt.Errorf("opt: generators after group-by are unsupported: %s", q)
		default:
			info.PostQuals = append(info.PostQuals, q)
			continue
		}
		switch qq := q.(type) {
		case comp.Generator:
			switch src := qq.Src.(type) {
			case comp.Var:
				g, err := parseArrayGen(src.Name, qq.Pat)
				if err != nil {
					return nil, err
				}
				info.Gens = append(info.Gens, *g)
				for _, v := range g.IndexVars {
					indexVars[v] = true
				}
			case comp.BinOp:
				if src.Op != "until" && src.Op != "to" {
					return nil, fmt.Errorf("opt: unsupported generator source %s", qq.Src)
				}
				pv, ok := qq.Pat.(comp.PVar)
				if !ok {
					return nil, fmt.Errorf("opt: range generator needs a variable pattern: %s", qq)
				}
				info.RangeGens = append(info.RangeGens, RangeGen{Var: pv.Name, Src: src})
				indexVars[pv.Name] = true
			default:
				return nil, fmt.Errorf("opt: unsupported generator source %s", qq.Src)
			}
		case comp.LetQual:
			info.Lets = append(info.Lets, qq)
		case comp.Guard:
			if a, b, ok := asVarEquality(qq.E); ok && indexVars[a] && indexVars[b] {
				info.JoinConds = append(info.JoinConds, [2]string{a, b})
			} else {
				info.Filters = append(info.Filters, qq.E)
			}
		case comp.GroupBy:
			if seenGroupBy {
				return nil, fmt.Errorf("opt: multiple group-bys are unsupported")
			}
			if qq.Of != nil {
				return nil, fmt.Errorf("opt: group by p : e must be desugared first")
			}
			seenGroupBy = true
			info.GroupBy = comp.PatternVars(qq.Pat)
		default:
			return nil, fmt.Errorf("opt: unknown qualifier %T", q)
		}
	}
	if len(info.Gens) == 0 {
		return nil, fmt.Errorf("opt: no distributed array generator")
	}
	return info, nil
}

// guards lists, in source order, the guards before the group-by that
// select elements of g, the query's one generator. Those are its Filters
// and the index equalities Extract files under JoinConds that constrain two
// of g's indices to be equal — a diagonal's i == j — which, with nothing to
// join, only select elements; each is written over g's own index variables,
// the only ones a tile kernel binds. An equality that ties a fused range
// variable to an index (A[i,j]'s v1 == i) only names it and is left out, so
// A[i,j] over i == j filters v1 == v2.
func (info *QueryInfo) guards(g ArrayGen) []comp.Expr {
	joins := map[[2]string]bool{}
	for _, jc := range info.JoinConds {
		joins[jc] = true
	}
	u, index := newUnionFind(), map[string]string{} // class -> g's index in it
	for _, v := range g.IndexVars {
		index[u.find(v)] = v
	}
	var out []comp.Expr
	for _, q := range info.Quals {
		gd, ok := q.(comp.Guard)
		if !ok {
			continue
		}
		a, b, ok := asVarEquality(gd.E)
		if !ok || !joins[[2]string{a, b}] {
			out = append(out, gd.E)
			continue
		}
		ca, cb := u.find(a), u.find(b)
		if ca == cb {
			continue
		}
		ia, ib := index[ca], index[cb]
		if ia != "" && ib != "" {
			out = append(out, comp.BinOp{Op: "==", L: comp.Var{Name: ia}, R: comp.Var{Name: ib}})
		}
		u.union(a, b)
		index[u.find(a)] = max(ia, ib) // the one that is set; either, when both are

	}
	return out
}

// FuseRanges implements the paper's index-traversal merging
// (Section 2): a range generator whose variable is equated to an array
// generator's index variable is redundant when the range provably
// spans that array dimension — the traversal already enumerates those
// values. dimOf reports the extent of an array's index position; a
// range is fused only when its bounds are literal [0, dim). The join
// condition stays, keeping the variables unified for the strategy
// matchers.
func (info *QueryInfo) FuseRanges(dimOf func(array string, pos int) (int64, bool)) {
	u := info.varClasses()
	// For every class, the smallest array dimension it indexes.
	classDim := map[string]int64{}
	for _, g := range info.Gens {
		for pos, v := range g.IndexVars {
			dim, ok := dimOf(g.Name, pos)
			if !ok {
				continue
			}
			cls := u.find(v)
			if cur, seen := classDim[cls]; !seen || dim < cur {
				classDim[cls] = dim
			}
		}
	}
	var kept []RangeGen
	for _, r := range info.RangeGens {
		dim, linked := classDim[u.find(r.Var)]
		if linked && rangeSpans(r.Src, dim) {
			continue
		}
		kept = append(kept, r)
	}
	info.RangeGens = kept
}

// rangeSpans reports whether a literal range covers exactly [0, dim).
func rangeSpans(src comp.Expr, dim int64) bool {
	b, ok := src.(comp.BinOp)
	if !ok || (b.Op != "until" && b.Op != "to") {
		return false
	}
	lo, lok := b.L.(comp.Lit)
	hi, hok := b.R.(comp.Lit)
	if !lok || !hok {
		return false
	}
	loV, ok1 := comp.AsInt(lo.Val)
	hiV, ok2 := comp.AsInt(hi.Val)
	if !ok1 || !ok2 || loV != 0 {
		return false
	}
	if b.Op == "to" {
		hiV++
	}
	return hiV == dim
}

// parseArrayGen matches the patterns ((i,j),v) and (i,v).
func parseArrayGen(name string, p comp.Pattern) (*ArrayGen, error) {
	pt, ok := p.(comp.PTuple)
	if !ok || len(pt.Elems) != 2 {
		return nil, fmt.Errorf("opt: array generator pattern must be (index, value): %s", p)
	}
	valVar, ok := pt.Elems[1].(comp.PVar)
	if !ok {
		return nil, fmt.Errorf("opt: array value pattern must be a variable: %s", p)
	}
	switch idx := pt.Elems[0].(type) {
	case comp.PVar:
		return &ArrayGen{Name: name, IndexVars: []string{idx.Name}, ValueVar: valVar.Name}, nil
	case comp.PTuple:
		vars := make([]string, len(idx.Elems))
		for i, e := range idx.Elems {
			pv, ok := e.(comp.PVar)
			if !ok {
				return nil, fmt.Errorf("opt: nested index patterns unsupported: %s", p)
			}
			vars[i] = pv.Name
		}
		return &ArrayGen{Name: name, IndexVars: vars, ValueVar: valVar.Name}, nil
	default:
		return nil, fmt.Errorf("opt: bad index pattern %s", p)
	}
}

// asVarEquality matches guards of the form x == y on two variables.
func asVarEquality(e comp.Expr) (string, string, bool) {
	b, ok := e.(comp.BinOp)
	if !ok || b.Op != "==" {
		return "", "", false
	}
	l, lok := b.L.(comp.Var)
	r, rok := b.R.(comp.Var)
	if !lok || !rok {
		return "", "", false
	}
	return l.Name, r.Name, true
}

// unionFind groups index variables related by equality predicates.
type unionFind struct{ parent map[string]string }

func newUnionFind() *unionFind { return &unionFind{parent: map[string]string{}} }

func (u *unionFind) find(x string) string {
	p, ok := u.parent[x]
	if !ok || p == x {
		if !ok {
			u.parent[x] = x
		}
		return x
	}
	root := u.find(p)
	u.parent[x] = root
	return root
}

func (u *unionFind) union(a, b string) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		u.parent[ra] = rb
	}
}

// varClasses builds the equivalence classes of index variables induced
// by the join conditions.
func (info *QueryInfo) varClasses() *unionFind {
	u := newUnionFind()
	for _, g := range info.Gens {
		for _, v := range g.IndexVars {
			u.find(v)
		}
	}
	for _, r := range info.RangeGens {
		u.find(r.Var)
	}
	for _, jc := range info.JoinConds {
		u.union(jc[0], jc[1])
	}
	return u
}
