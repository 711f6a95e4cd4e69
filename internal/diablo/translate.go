package diablo

import (
	"fmt"

	"repro/internal/comp"
)

// Translate converts every update statement of the program into a SAC
// comprehension (the DIABLO-to-comprehension step the paper's
// Section 1.1 describes). mode selects the builders: "tiled" for the
// distributed back end, "local" for the single-node reference
// storages.
func Translate(prog *Program, mode string) ([]Assignment, error) {
	decls := map[string]Decl{}
	for _, d := range prog.Decls {
		decls[d.Name] = d
	}
	tr := &translator{decls: decls, mode: mode}
	var out []Assignment
	for _, s := range prog.Stmts {
		if err := tr.stmt(s, nil, &out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// loopCtx is one enclosing loop binding.
type loopCtx struct {
	Var    string
	Lo, Hi comp.Expr
}

type translator struct {
	decls map[string]Decl
	mode  string
	fresh int
}

func (t *translator) freshVar(prefix string) string {
	t.fresh++
	// `_d` namespace: disjoint from comp.Desugar's `_c` fresh names.
	return fmt.Sprintf("_d%s%d", prefix, t.fresh)
}

func (t *translator) stmt(s Stmt, loops []loopCtx, out *[]Assignment) error {
	switch st := s.(type) {
	case ForStmt:
		for _, lc := range loops {
			if lc.Var == st.Var {
				return fmt.Errorf("diablo: loop variable %q shadows an outer loop", st.Var)
			}
		}
		inner := append(append([]loopCtx{}, loops...), loopCtx{Var: st.Var, Lo: st.Lo, Hi: st.Hi})
		for _, b := range st.Body {
			if err := t.stmt(b, inner, out); err != nil {
				return err
			}
		}
		return nil
	case UpdateStmt:
		a, err := t.update(st, loops)
		if err != nil {
			return err
		}
		*out = append(*out, *a)
		return nil
	default:
		return fmt.Errorf("diablo: unknown statement %T", s)
	}
}

// update translates one array update into a comprehension.
func (t *translator) update(st UpdateStmt, loops []loopCtx) (*Assignment, error) {
	decl, ok := t.decls[st.Array]
	if !ok {
		return nil, fmt.Errorf("diablo: update of undeclared array %q", st.Array)
	}
	if len(loops) == 0 {
		return nil, fmt.Errorf("diablo: update of %q outside any loop", st.Array)
	}
	wantDims := 1
	if decl.Kind == "matrix" {
		wantDims = 2
	}
	if len(st.Idxs) != wantDims {
		return nil, fmt.Errorf("diablo: %q is a %s but indexed with %d subscripts", st.Array, decl.Kind, len(st.Idxs))
	}
	if readsArray(st.Rhs, st.Array) {
		return nil, fmt.Errorf("diablo: recurrence on %q (read on its own right-hand side) is unsupported", st.Array)
	}

	loopOf := map[string]loopCtx{}
	for _, lc := range loops {
		loopOf[lc.Var] = lc
	}

	// Choose traversal generators: array reads whose subscripts are
	// distinct, uncovered, zero-based loop variables become full
	// traversals ((i,j),v) <- M; everything else stays an index
	// expression desugared later into a join (Section 2).
	covered := map[string]bool{}
	type genInfo struct {
		read    comp.Index
		valVar  string
		idxVars []string
	}
	var gens []genInfo
	for _, read := range collectReads(st.Rhs) {
		vars, ok := plainLoopVars(read, loopOf)
		if !ok {
			continue
		}
		fresh := true
		for _, v := range vars {
			if covered[v] {
				fresh = false
			}
			if lit, isLit := loopOf[v].Lo.(comp.Lit); !isLit || !comp.Equal(lit.Val, int64(0)) {
				fresh = false // non-zero lower bound: keep explicit range
			}
		}
		if !fresh {
			continue
		}
		for _, v := range vars {
			covered[v] = true
		}
		gens = append(gens, genInfo{read: read, valVar: t.freshVar("v"), idxVars: vars})
	}

	// Replace chosen reads by their value variables throughout the rhs.
	rhs := st.Rhs
	for _, g := range gens {
		rhs = replaceRead(rhs, g.read, comp.Var{Name: g.valVar})
	}

	var quals []comp.Qualifier
	for _, g := range gens {
		idxPats := make([]comp.Pattern, len(g.idxVars))
		for i, v := range g.idxVars {
			idxPats[i] = comp.PV(v)
		}
		var idxPat comp.Pattern
		if len(idxPats) == 1 {
			idxPat = idxPats[0]
		} else {
			idxPat = comp.PT(idxPats...)
		}
		arr := g.read.Arr.(comp.Var)
		quals = append(quals, comp.Generator{
			Pat: comp.PT(idxPat, comp.PV(g.valVar)),
			Src: arr,
		})
	}
	// Remaining loop variables iterate their ranges explicitly.
	for _, lc := range loops {
		if covered[lc.Var] {
			continue
		}
		quals = append(quals, comp.Generator{
			Pat: comp.PV(lc.Var),
			Src: comp.BinOp{Op: "to", L: lc.Lo, R: lc.Hi},
		})
	}

	// Destination key and aggregation.
	keyExpr := comp.Expr(comp.TupleExpr{Elems: st.Idxs})
	if len(st.Idxs) == 1 {
		keyExpr = st.Idxs[0]
	}
	var head comp.Expr
	switch st.Op {
	case ":=":
		head = comp.TupleExpr{Elems: []comp.Expr{keyExpr, rhs}}
	case "+=", "*=", "min=", "max=":
		monoid := map[string]string{"+=": "+", "*=": "*", "min=": "min", "max=": "max"}[st.Op]
		valVar := t.freshVar("w")
		quals = append(quals, comp.LetQual{Pat: comp.PV(valVar), E: rhs})
		keyPat, keyOf, keyRef := t.groupKey(st.Idxs)
		quals = append(quals, comp.GroupBy{Pat: keyPat, Of: keyOf})
		head = comp.TupleExpr{Elems: []comp.Expr{keyRef, comp.Reduce{Monoid: monoid, E: comp.Var{Name: valVar}}}}
	default:
		return nil, fmt.Errorf("diablo: unknown update operator %q", st.Op)
	}

	builder := map[[2]string]string{
		{"matrix", "tiled"}: "tiled", {"vector", "tiled"}: "tiledvec",
		{"matrix", "local"}: "matrix", {"vector", "local"}: "vector",
	}[[2]string{decl.Kind, t.mode}]
	if builder == "" {
		return nil, fmt.Errorf("diablo: unknown mode %q", t.mode)
	}
	return &Assignment{
		Dest: st.Array,
		Query: comp.BuildExpr{
			Builder: builder,
			Args:    decl.Dims,
			Body:    comp.Comprehension{Head: head, Quals: quals},
		},
	}, nil
}

// groupKey builds the group-by pattern for the destination subscripts:
// plain variables group directly; computed subscripts group through
// fresh variables via `group by k: e`.
func (t *translator) groupKey(idxs []comp.Expr) (comp.Pattern, comp.Expr, comp.Expr) {
	allVars := true
	for _, e := range idxs {
		if _, ok := e.(comp.Var); !ok {
			allVars = false
		}
	}
	if allVars {
		pats := make([]comp.Pattern, len(idxs))
		refs := make([]comp.Expr, len(idxs))
		for i, e := range idxs {
			pats[i] = comp.PV(e.(comp.Var).Name)
			refs[i] = e
		}
		if len(idxs) == 1 {
			return pats[0], nil, refs[0]
		}
		return comp.PT(pats...), nil, comp.TupleExpr{Elems: refs}
	}
	// Computed key: group by (k1,...,kd) : (e1,...,ed).
	pats := make([]comp.Pattern, len(idxs))
	refs := make([]comp.Expr, len(idxs))
	for i := range idxs {
		name := t.freshVar("k")
		pats[i] = comp.PV(name)
		refs[i] = comp.Var{Name: name}
	}
	if len(idxs) == 1 {
		return pats[0], idxs[0], refs[0]
	}
	return comp.PT(pats...), comp.TupleExpr{Elems: idxs}, comp.TupleExpr{Elems: refs}
}

// collectReads gathers the Index expressions over named arrays, in
// evaluation order.
func collectReads(e comp.Expr) []comp.Index {
	var out []comp.Index
	comp.MapExpr(e, func(x comp.Expr) comp.Expr {
		if idx, ok := x.(comp.Index); ok {
			if _, named := idx.Arr.(comp.Var); named {
				out = append(out, idx)
			}
		}
		return x
	})
	return out
}

// plainLoopVars reports the subscript variables of a read when they
// are all distinct loop variables.
func plainLoopVars(read comp.Index, loops map[string]loopCtx) ([]string, bool) {
	seen := map[string]bool{}
	vars := make([]string, len(read.Idxs))
	for i, e := range read.Idxs {
		v, ok := e.(comp.Var)
		if !ok {
			return nil, false
		}
		if _, isLoop := loops[v.Name]; !isLoop || seen[v.Name] {
			return nil, false
		}
		seen[v.Name] = true
		vars[i] = v.Name
	}
	return vars, true
}

// replaceRead substitutes a structurally equal Index read.
func replaceRead(e comp.Expr, read comp.Index, with comp.Expr) comp.Expr {
	return comp.MapExpr(e, func(x comp.Expr) comp.Expr {
		if idx, ok := x.(comp.Index); ok && exprEqual(idx, read) {
			return with
		}
		return x
	})
}

// exprEqual compares expressions by printed form (sufficient for the
// small subscript expressions involved).
func exprEqual(a, b comp.Expr) bool { return a.String() == b.String() }

// readsArray reports whether e reads the named array.
func readsArray(e comp.Expr, name string) bool {
	for _, r := range collectReads(e) {
		if v, ok := r.Arr.(comp.Var); ok && v.Name == name {
			return true
		}
	}
	return false
}
