package opt

import (
	"fmt"
	"strings"

	"repro/internal/comp"
)

// Strategy is a chosen physical translation for a block-array
// comprehension.
type Strategy interface {
	Kind() string
	Describe() string
}

// AffineKey is one output key component of the restricted affine form
// the Rule 19 index-set analysis handles: (Var + Off) % Mod, with
// Mod == 0 meaning no modulus.
type AffineKey struct {
	Var string
	Off int64
	Mod int64
}

// Identity reports whether the component is the plain variable.
func (a AffineKey) Identity() bool { return a.Off == 0 && a.Mod == 0 }

func (a AffineKey) String() string {
	s := a.Var
	if a.Off > 0 {
		s = fmt.Sprintf("%s+%d", s, a.Off)
	} else if a.Off < 0 {
		s = fmt.Sprintf("%s%d", s, a.Off)
	}
	if a.Mod != 0 {
		s = fmt.Sprintf("(%s)%%%d", s, a.Mod)
	}
	return s
}

// MapStrategy: a single array generator whose output key is a
// permutation of its index variables — a narrow per-tile map
// (Rule 17 degenerate case; includes transpose via key permutation,
// and Rule 15 group-by elimination when an injective group-by was
// removed).
type MapStrategy struct {
	Gen       ArrayGen
	KeyPerm   []int // output key position -> index var position
	ValExpr   comp.Expr
	Lets      []comp.LetQual
	Filters   []comp.Expr
	ViaRule15 bool // true when an injective group-by was eliminated
}

// Kind identifies the strategy.
func (s *MapStrategy) Kind() string { return "tile-map" }

// Describe renders the Explain line.
func (s *MapStrategy) Describe() string {
	note := ""
	if s.ViaRule15 {
		note = " (group-by eliminated: injective key, Rule 15)"
	}
	perm := "identity"
	if !isIdentityPerm(s.KeyPerm) {
		perm = fmt.Sprintf("%v", s.KeyPerm)
	}
	return fmt.Sprintf("tiling-preserving map over %s, key permutation %s%s", s.Gen.Name, perm, note)
}

// ZipStrategy: two generators with all index variables equated — the
// Rule 17 join of tile datasets with a per-tile elementwise kernel
// (matrix addition shape).
type ZipStrategy struct {
	GenA, GenB ArrayGen
	ValExpr    comp.Expr
	Lets       []comp.LetQual
	Filters    []comp.Expr
}

// Kind identifies the strategy.
func (s *ZipStrategy) Kind() string { return "tile-zip" }

// Describe renders the Explain line.
func (s *ZipStrategy) Describe() string {
	return fmt.Sprintf("tiling-preserving join of %s and %s with elementwise kernel (Rule 17)", s.GenA.Name, s.GenB.Name)
}

// GroupByJoinStrategy: the Section 5.4 pattern — a join of two arrays
// followed by a group-by whose key pairs one surviving index from each
// side, with a monoid aggregation. Execution uses either the SUMMA
// group-by-join or the Section 5.3 join+reduceByKey, as configured.
type GroupByJoinStrategy struct {
	GenA, GenB ArrayGen
	// TransA: GenA binds (k,i), contracting its row index, rather than
	// (i,k); TransB: GenB binds (j,k) rather than (k,j). The product is
	// op(A)·op(B) with op transposing where the flag is set.
	TransA, TransB bool
	Monoid         string
	CombineExpr    comp.Expr // h(a, b)
	Lets           []comp.LetQual
	UseGBJ         bool
	UseReduceBy    bool // false = groupByKey (ablation of Rule 13)
	// Decision, when non-nil, records the cost-model ranking that chose
	// (or confirmed) this translation; see ChooseWithStats.
	Decision *Decision
}

// Kind identifies the strategy.
func (s *GroupByJoinStrategy) Kind() string {
	if s.UseGBJ {
		return "group-by-join"
	}
	return "join-reduce"
}

// Describe renders the Explain line.
func (s *GroupByJoinStrategy) Describe() string {
	if s.UseGBJ {
		return fmt.Sprintf("SUMMA group-by-join of %s and %s (Section 5.4), monoid %s", s.GenA.Name, s.GenB.Name, s.Monoid)
	}
	shuffle := "reduceByKey (Rule 13)"
	if !s.UseReduceBy {
		shuffle = "groupByKey (Rule 13 disabled)"
	}
	return fmt.Sprintf("join of %s and %s on the contracted index, per-tile products, %s", s.GenA.Name, s.GenB.Name, shuffle)
}

// TileAggStrategy: one generator grouped by a subset of its index
// variables with monoid aggregations — per-tile partial aggregation
// followed by reduceByKey (Section 5.3; Figure 1 row sums). Multiple
// aggregations in the head run as one pass over a product monoid
// (Rule 12), finalized by FinalExpr over the hole variables. The empty
// key is a total (ChooseTotal): one group, so the partials merge without
// a shuffle.
type TileAggStrategy struct {
	Gen         ArrayGen
	KeyPos      []int           // positions of the grouped index vars; none for a total
	Aggs        []comp.Factored // +, *, count, min or max: an avg is split into + and count
	FinalExpr   comp.Expr
	Lets        []comp.LetQual
	Filters     []comp.Expr // element filters applied before aggregating
	UseReduceBy bool
	// Decision, when non-nil, records the cost-model ranking for the
	// aggregation's shuffle; see ChooseWithStats.
	Decision *Decision
}

// Kind identifies the strategy.
func (s *TileAggStrategy) Kind() string { return "tile-aggregate" }

// Describe renders the Explain line.
func (s *TileAggStrategy) Describe() string {
	names := make([]string, len(s.Aggs))
	for i, a := range s.Aggs {
		names[i] = a.Monoid
	}
	partial := fmt.Sprintf("per-tile partial {%s}-aggregation of %s", strings.Join(names, ","), s.Gen.Name)
	if len(s.KeyPos) == 0 {
		return partial + ", partials merged in partition order (no shuffle)"
	}
	shuffle := "reduceByKey (Rule 13)"
	if !s.UseReduceBy {
		shuffle = "groupByKey (Rule 13 disabled)"
	}
	return fmt.Sprintf("%s grouped by %v, %s", partial, s.KeyPos, shuffle)
}

// ReplicateStrategy: a single generator whose output key is affine but
// not a permutation — tiles are replicated to the destination index
// set I_f(K) and re-grouped (Rule 19).
type ReplicateStrategy struct {
	Gen     ArrayGen
	Keys    []AffineKey
	ValExpr comp.Expr
	Lets    []comp.LetQual
	Filters []comp.Expr
}

// Kind identifies the strategy.
func (s *ReplicateStrategy) Kind() string { return "tile-replicate" }

// Describe renders the Explain line.
func (s *ReplicateStrategy) Describe() string {
	ks := make([]string, len(s.Keys))
	for i, k := range s.Keys {
		ks[i] = k.String()
	}
	return fmt.Sprintf("tile replication of %s to I_f(K) destinations for key (%s), group-by over tiles (Rule 19)",
		s.Gen.Name, strings.Join(ks, ", "))
}

// CoordStrategy: the Section 4 fallback — sparsify the inputs to
// coordinate entries and evaluate the comprehension element-wise on
// the dataflow engine.
type CoordStrategy struct{ Reason string }

// Kind identifies the strategy.
func (s *CoordStrategy) Kind() string { return "coordinate" }

// Describe renders the Explain line.
func (s *CoordStrategy) Describe() string {
	return fmt.Sprintf("coordinate-format fallback (Section 4): %s", s.Reason)
}

// Options steer strategy selection; the defaults enable every paper
// optimization. Disabling one reproduces the ablations.
type Options struct {
	// DisableGBJ turns off the Section 5.4 group-by-join, falling back
	// to join + reduceByKey (the paper's "SAC" multiplication line).
	DisableGBJ bool
	// DisableReduceByKey turns off Rule 13, using groupByKey for
	// aggregations (the unoptimized translation).
	DisableReduceByKey bool
	// DisableTilingPreservation turns off Rule 17 and Rule 19
	// specializations, forcing the coordinate fallback.
	DisableTilingPreservation bool
}

// Choose selects the physical strategy for an extracted query.
func Choose(info *QueryInfo, opts Options) (Strategy, error) {
	if opts.DisableTilingPreservation {
		return &CoordStrategy{Reason: "tiling preservation disabled"}, nil
	}
	if info.GroupBy == nil {
		if s := chooseNonGrouped(info); s != nil {
			return s, nil
		}
		return &CoordStrategy{Reason: "no block translation matched"}, nil
	}
	if len(info.PostQuals) > 0 {
		return &CoordStrategy{Reason: "qualifiers after the group-by"}, nil
	}
	if s := chooseMatVec(info, opts); s != nil {
		return s, nil
	}
	if s := chooseGrouped(info, opts); s != nil {
		return s, nil
	}
	return &CoordStrategy{Reason: "group-by shape outside block rules"}, nil
}

func chooseNonGrouped(info *QueryInfo) Strategy {
	keys, ok := affineKeyComponents(info.HeadKey)
	if !ok {
		return nil
	}
	u := info.varClasses()

	if len(info.Gens) == 1 && len(info.RangeGens) == 0 {
		g := info.Gens[0]
		// Try a permutation of the generator's index variables.
		if perm, ok := keyPermutation(keys, g.IndexVars, u); ok {
			return &MapStrategy{Gen: g, KeyPerm: perm, ValExpr: info.HeadVal,
				Lets: info.Lets, Filters: info.guards(g)}
		}
		// Rule 19 replication: affine keys over this generator's vars.
		if allVarsOf(keys, g.IndexVars, u) && len(keys) == len(g.IndexVars) {
			return &ReplicateStrategy{Gen: g, Keys: keys, ValExpr: info.HeadVal,
				Lets: info.Lets, Filters: info.guards(g)}
		}
		return nil
	}

	if len(info.Gens) == 2 && len(info.RangeGens) == 0 && len(info.Filters) == 0 {
		a, b := info.Gens[0], info.Gens[1]
		if len(a.IndexVars) != len(b.IndexVars) {
			return nil
		}
		// All index positions equated pairwise?
		for k := range a.IndexVars {
			if u.find(a.IndexVars[k]) != u.find(b.IndexVars[k]) {
				return nil
			}
		}
		if perm, ok := keyPermutation(keys, a.IndexVars, u); ok && isIdentityPerm(perm) {
			return &ZipStrategy{GenA: a, GenB: b, ValExpr: info.HeadVal, Lets: info.Lets}
		}
		return nil
	}
	return nil
}

func chooseGrouped(info *QueryInfo, opts Options) Strategy {
	u := info.varClasses()

	// Rule 15: if the group-by key covers every index variable of a
	// single generator, the key is unique and the group-by can be
	// eliminated — each group is a singleton.
	if len(info.Gens) == 1 && len(info.RangeGens) == 0 {
		g := info.Gens[0]
		if sameClasses(info.GroupBy, g.IndexVars, u) {
			keys, ok := affineKeyComponents(info.HeadKey)
			if !ok {
				return nil
			}
			if perm, ok := keyPermutation(keys, g.IndexVars, u); ok {
				return &MapStrategy{Gen: g, KeyPerm: perm,
					ValExpr: rewriteSingletonReductions(info.HeadVal),
					Lets:    info.Lets, Filters: info.guards(g),
					ViaRule15: true}
			}
			return nil
		}
		// Aggregation grouped by a strict subset of index vars
		// (e.g. row sums grouped by i). Multiple head aggregations are
		// factored into one product-monoid pass (Rule 12). The executor
		// writes group i at position i, so the head key must be the group
		// key itself; a computed one ((i+1, ...), (0, ...), (i, 0)) is the
		// coordinate fallback's to shift or reject.
		if keyPos, ok := subsetPositions(info.GroupBy, g.IndexVars, u); ok {
			keys, ok := affineKeyComponents(info.HeadKey)
			if !ok || len(keys) != len(info.GroupBy) {
				return nil
			}
			for x, k := range keys {
				if !k.Identity() || u.find(k.Var) != u.find(info.GroupBy[x]) {
					return nil
				}
			}
			lifted := map[string]bool{}
			for _, v := range g.IndexVars {
				lifted[v] = true
			}
			if g.ValueVar != "_" {
				lifted[g.ValueVar] = true
			}
			for _, l := range info.Lets {
				for _, v := range comp.PatternVars(l.Pat) {
					lifted[v] = true
				}
			}
			for _, k := range info.GroupBy {
				delete(lifted, u.find(k))
				delete(lifted, k)
			}
			aggs, final, ok := comp.FactorReductions(info.HeadVal, lifted)
			if !ok {
				return nil
			}
			for _, a := range aggs {
				if !scalarAggMonoid(a.Monoid) {
					return nil // e.g. ++: handled by the coordinate fallback
				}
			}
			// The finalize expression may reference the group key var.
			for v := range comp.FreeVars(final) {
				allowed := false
				for _, k := range info.GroupBy {
					if v == k {
						allowed = true
					}
				}
				if !allowed && !isHole(aggs, v) {
					return nil
				}
			}
			if aggs, final, ok = splitAvg(aggs, final); !ok {
				return nil
			}
			return &TileAggStrategy{Gen: g, KeyPos: keyPos,
				Aggs: aggs, FinalExpr: final,
				Lets: info.Lets, Filters: info.guards(g),
				UseReduceBy: !opts.DisableReduceByKey}
		}
		return nil
	}

	// Section 5.4 group-by-join shape: two generators, one contracted
	// index pair, group key = one surviving index from each side.
	if len(info.Gens) == 2 && len(info.RangeGens) == 0 && len(info.Filters) == 0 &&
		len(info.GroupBy) == 2 && len(info.JoinConds) >= 1 {
		a, b := info.Gens[0], info.Gens[1]
		if len(a.IndexVars) != 2 || len(b.IndexVars) != 2 {
			return nil
		}
		monoid, val, ok := singleReduction(info.HeadVal)
		if !ok {
			return nil
		}
		// The block group-by-join kernels contract with +; other
		// monoids run through the coordinate fallback's Rule 12/13
		// machinery instead.
		if monoid != "+" {
			return nil
		}
		m, err := comp.LookupMonoid(monoid)
		if err != nil || !m.Commutative {
			return nil
		}
		// Locate the group-by vars on each side; the generator that
		// binds the first key component plays the A role (output
		// rows), swapping if the query listed the generators in the
		// other order.
		outA := positionOf(info.GroupBy[0], a.IndexVars, u)
		outB := positionOf(info.GroupBy[1], b.IndexVars, u)
		if outA < 0 || outB < 0 {
			outA = positionOf(info.GroupBy[0], b.IndexVars, u)
			outB = positionOf(info.GroupBy[1], a.IndexVars, u)
			if outA < 0 || outB < 0 {
				return nil
			}
			a, b = b, a
		}
		joinA, joinB := 1-outA, 1-outB
		// The remaining index vars must be equated by a join condition.
		if u.find(a.IndexVars[joinA]) != u.find(b.IndexVars[joinB]) {
			return nil
		}
		// The head key must be exactly the group-by pair.
		keys, ok := affineKeyComponents(info.HeadKey)
		if !ok || len(keys) != 2 || !keys[0].Identity() || !keys[1].Identity() {
			return nil
		}
		if u.find(keys[0].Var) != u.find(a.IndexVars[outA]) ||
			u.find(keys[1].Var) != u.find(b.IndexVars[outB]) {
			return nil
		}
		return &GroupByJoinStrategy{
			GenA: a, GenB: b,
			TransA: outA == 1, TransB: outB == 0,
			Monoid: monoid, CombineExpr: val, Lets: info.Lets,
			UseGBJ:      !opts.DisableGBJ,
			UseReduceBy: !opts.DisableReduceByKey,
		}
	}
	return nil
}

// --- helpers ---

// affineKeyComponents parses the output key into affine components.
// A non-tuple key is treated as a single component.
func affineKeyComponents(key comp.Expr) ([]AffineKey, bool) {
	var elems []comp.Expr
	if t, ok := key.(comp.TupleExpr); ok {
		elems = t.Elems
	} else {
		elems = []comp.Expr{key}
	}
	out := make([]AffineKey, len(elems))
	for i, e := range elems {
		a, ok := affineComponent(e)
		if !ok {
			return nil, false
		}
		out[i] = a
	}
	return out, true
}

func affineComponent(e comp.Expr) (AffineKey, bool) {
	switch x := e.(type) {
	case comp.Var:
		return AffineKey{Var: x.Name}, true
	case comp.BinOp:
		switch x.Op {
		case "+", "-":
			v, vok := x.L.(comp.Var)
			c, cok := x.R.(comp.Lit)
			if !vok || !cok {
				return AffineKey{}, false
			}
			off, ok := comp.AsInt(c.Val)
			if !ok {
				return AffineKey{}, false
			}
			if x.Op == "-" {
				off = -off
			}
			return AffineKey{Var: v.Name, Off: off}, true
		case "%":
			inner, ok := affineComponent(x.L)
			if !ok || inner.Mod != 0 {
				return AffineKey{}, false
			}
			c, cok := x.R.(comp.Lit)
			if !cok {
				return AffineKey{}, false
			}
			mod, ok := comp.AsInt(c.Val)
			if !ok || mod <= 0 {
				return AffineKey{}, false
			}
			inner.Mod = mod
			return inner, true
		}
	}
	return AffineKey{}, false
}

// keyPermutation checks that the key components are exactly the
// identity-affine index variables of the generator, in some order,
// and returns the permutation.
func keyPermutation(keys []AffineKey, indexVars []string, u *unionFind) ([]int, bool) {
	if len(keys) != len(indexVars) {
		return nil, false
	}
	perm := make([]int, len(keys))
	used := make([]bool, len(indexVars))
	for i, k := range keys {
		if !k.Identity() {
			return nil, false
		}
		found := -1
		for j, v := range indexVars {
			if !used[j] && u.find(v) == u.find(k.Var) {
				found = j
				break
			}
		}
		if found < 0 {
			return nil, false
		}
		used[found] = true
		perm[i] = found
	}
	return perm, true
}

func isIdentityPerm(p []int) bool {
	for i, v := range p {
		if i != v {
			return false
		}
	}
	return true
}

// allVarsOf checks every key variable belongs to the generator's
// index classes.
func allVarsOf(keys []AffineKey, indexVars []string, u *unionFind) bool {
	for _, k := range keys {
		found := false
		for _, v := range indexVars {
			if u.find(v) == u.find(k.Var) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// sameClasses checks the two variable sets induce the same class set.
func sameClasses(a, b []string, u *unionFind) bool {
	if len(a) != len(b) {
		return false
	}
	ca := map[string]bool{}
	for _, v := range a {
		ca[u.find(v)] = true
	}
	for _, v := range b {
		if !ca[u.find(v)] {
			return false
		}
	}
	return true
}

// subsetPositions maps group-by vars to their positions in indexVars,
// requiring a strict subset.
func subsetPositions(groupVars, indexVars []string, u *unionFind) ([]int, bool) {
	if len(groupVars) >= len(indexVars) {
		return nil, false
	}
	pos := make([]int, len(groupVars))
	for i, gv := range groupVars {
		p := positionOf(gv, indexVars, u)
		if p < 0 {
			return nil, false
		}
		pos[i] = p
	}
	return pos, true
}

func positionOf(v string, indexVars []string, u *unionFind) int {
	for i, iv := range indexVars {
		if u.find(iv) == u.find(v) {
			return i
		}
	}
	return -1
}

// singleReduction matches head values of the form ⊕/e (optionally a
// bare lifted variable, which is ++/v per Section 3).
func singleReduction(e comp.Expr) (string, comp.Expr, bool) {
	if r, ok := e.(comp.Reduce); ok {
		return r.Monoid, r.E, true
	}
	return "", nil, false
}

// rewriteSingletonReductions rewrites reductions over singleton groups
// after Rule 15 group-by elimination: ⊕/x becomes x (count becomes 1,
// avg becomes x).
func rewriteSingletonReductions(e comp.Expr) comp.Expr {
	switch x := e.(type) {
	case comp.Reduce:
		inner := rewriteSingletonReductions(x.E)
		switch x.Monoid {
		case "count":
			return comp.Lit{Val: int64(1)}
		default:
			return inner
		}
	case comp.BinOp:
		return comp.BinOp{Op: x.Op, L: rewriteSingletonReductions(x.L), R: rewriteSingletonReductions(x.R)}
	case comp.UnaryOp:
		return comp.UnaryOp{Op: x.Op, E: rewriteSingletonReductions(x.E)}
	case comp.TupleExpr:
		elems := make([]comp.Expr, len(x.Elems))
		for i, s := range x.Elems {
			elems[i] = rewriteSingletonReductions(s)
		}
		return comp.TupleExpr{Elems: elems}
	case comp.Call:
		args := make([]comp.Expr, len(x.Args))
		for i, s := range x.Args {
			args[i] = rewriteSingletonReductions(s)
		}
		return comp.Call{Fn: x.Fn, Args: args}
	case comp.IfExpr:
		return comp.IfExpr{
			Cond: rewriteSingletonReductions(x.Cond),
			Then: rewriteSingletonReductions(x.Then),
			Else: rewriteSingletonReductions(x.Else),
		}
	default:
		return e
	}
}

// isHole reports whether v is one of the aggregation placeholders.
func isHole(aggs []comp.Factored, v string) bool {
	for _, a := range aggs {
		if a.Hole == v {
			return true
		}
	}
	return false
}

// scalarAggMonoid reports whether the tile-aggregation executor folds this
// monoid in float accumulators — avg once splitAvg has made it a sum and a
// count.
func scalarAggMonoid(name string) bool {
	switch name {
	case "+", "*", "min", "max", "count", "avg":
		return true
	}
	return false
}

// splitAvg rewrites each avg/x among the factored aggregations into comp's
// (sum, count) pair, +/x and count/x, and its hole in the finalize into
// their quotient — 0 when nothing was counted, as comp.MonoidFinalize
// gives — so the tile executor folds only +, *, count, min and max. ok is
// false when the finalize holds a comprehension, into which comp cannot
// substitute the quotient.
func splitAvg(aggs []comp.Factored, final comp.Expr) (out []comp.Factored, _ comp.Expr, ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	sub := map[string]comp.Expr{}
	for _, a := range aggs {
		if a.Monoid != "avg" {
			out = append(out, a)
			continue
		}
		s, c := comp.Var{Name: a.Hole + "s"}, comp.Var{Name: a.Hole + "c"}
		out = append(out, comp.Factored{Monoid: "+", Var: a.Var, Hole: s.Name},
			comp.Factored{Monoid: "count", Var: a.Var, Hole: c.Name})
		sub[a.Hole] = comp.IfExpr{
			Cond: comp.BinOp{Op: "==", L: c, R: comp.Lit{Val: int64(0)}},
			Then: comp.Lit{Val: 0.0},
			Else: comp.BinOp{Op: "/", L: s, R: comp.Call{Fn: "float", Args: []comp.Expr{c}}}}
	}
	return out, comp.SubstExpr(final, sub), true
}

// ChooseTotal selects the strategy of a total reduction ⊕/[ e | quals ],
// analysed by Extract under a unit key. A total is a tile aggregation
// with the empty key (Section 5.3): when the quals draw from one array —
// no second generator, no range — and ⊕ has float accumulators, each
// partition folds its tiles' e into one partial and the partials merge,
// with no shuffle. Anything else is the coordinate fallback's, as is a
// total whose e the tile kernel cannot type as the number the monoid folds
// (plan decides that when it lowers e).
func ChooseTotal(info *QueryInfo, monoid string, opts Options, prov StatsProvider) Strategy {
	if opts.DisableTilingPreservation {
		return &CoordStrategy{Reason: "tiling preservation disabled"}
	}
	if len(info.Gens) != 1 || len(info.RangeGens) > 0 || info.GroupBy != nil || !scalarAggMonoid(monoid) {
		return &CoordStrategy{Reason: "total aggregation outside the tile rules"}
	}
	// e is folded as the value of a let, the form FactorReductions gives a
	// grouped aggregation's operand.
	const v, hole = "_total", "_hole"
	g := info.Gens[0]
	aggs, final, _ := splitAvg([]comp.Factored{{Monoid: monoid, Var: v, Hole: hole}}, comp.Var{Name: hole})
	s := &TileAggStrategy{Gen: g, Aggs: aggs, FinalExpr: final,
		Lets:    append(info.Lets[:len(info.Lets):len(info.Lets)], comp.LetQual{Pat: comp.PVar{Name: v}, E: info.HeadVal}),
		Filters: info.guards(g)}
	if prov != nil {
		s.Decision = decideTileAgg(s, opts, prov)
	}
	return s
}

// MatVecStrategy: the group-by-join shape with a vector operand —
// matrix-vector multiplication. Matrix tiles join vector blocks on the
// contracted index; partial result blocks reduce by destination.
type MatVecStrategy struct {
	MatGen, VecGen ArrayGen
	// Trans contracts the matrix's row index (y = M^T x) rather than its
	// column index (y = M x).
	Trans       bool
	Monoid      string
	CombineExpr comp.Expr
	Lets        []comp.LetQual
	UseReduceBy bool
}

// Kind identifies the strategy.
func (s *MatVecStrategy) Kind() string { return "matvec" }

// Describe renders the Explain line.
func (s *MatVecStrategy) Describe() string {
	form := "M x"
	if s.Trans {
		form = "M^T x"
	}
	return fmt.Sprintf("matrix-vector group-by-join of %s and %s (%s), per-block partials + reduceByKey",
		s.MatGen.Name, s.VecGen.Name, form)
}

// chooseMatVec matches the matrix-vector instance of the group-by-join
// shape: one 2-index generator, one 1-index generator, a join on the
// contracted index, group-by on the surviving matrix index.
func chooseMatVec(info *QueryInfo, opts Options) Strategy {
	if len(info.Gens) != 2 || len(info.RangeGens) != 0 || len(info.Filters) != 0 ||
		len(info.GroupBy) != 1 || len(info.JoinConds) < 1 {
		return nil
	}
	var mat, vec ArrayGen
	switch {
	case len(info.Gens[0].IndexVars) == 2 && len(info.Gens[1].IndexVars) == 1:
		mat, vec = info.Gens[0], info.Gens[1]
	case len(info.Gens[0].IndexVars) == 1 && len(info.Gens[1].IndexVars) == 2:
		mat, vec = info.Gens[1], info.Gens[0]
	default:
		return nil
	}
	monoid, val, ok := singleReduction(info.HeadVal)
	if !ok || monoid != "+" {
		return nil
	}
	u := info.varClasses()
	out := positionOf(info.GroupBy[0], mat.IndexVars, u)
	if out < 0 {
		return nil
	}
	join := 1 - out
	if u.find(mat.IndexVars[join]) != u.find(vec.IndexVars[0]) {
		return nil
	}
	keys, kok := affineKeyComponents(info.HeadKey)
	if !kok || len(keys) != 1 || !keys[0].Identity() ||
		u.find(keys[0].Var) != u.find(mat.IndexVars[out]) {
		return nil
	}
	return &MatVecStrategy{MatGen: mat, VecGen: vec, Trans: join == 0,
		Monoid: monoid, CombineExpr: val, Lets: info.Lets,
		UseReduceBy: !opts.DisableReduceByKey}
}
