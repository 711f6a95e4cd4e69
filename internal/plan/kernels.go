package plan

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/comp"
)

// This file is the tile-kernel compiler of the Section 5 translations:
// the paper's generated per-tile Scala loops. Compile lowers the
// let-inlined head, filter, combine and finalize expressions of a tile
// strategy once into a small typed IR; execution evaluates that IR a
// tile row at a time — one tight loop per node over per-task scratch —
// behind one row driver (kernel.run) that every strategy shares.
// DESIGN.md "Tile kernels" states the contract.

// inlineLets substitutes let bindings (in order) into an expression so
// kernels only reference generator-bound variables. Tuple-pattern lets
// are taken apart when their right side is a tuple expression; one that
// cannot be is a lowering error (fail).
func inlineLets(e comp.Expr, lets []comp.LetQual) comp.Expr {
	sub := map[string]comp.Expr{}
	for _, l := range lets {
		rhs := comp.SubstExpr(l.E, sub)
		switch p := l.Pat.(type) {
		case comp.PVar:
			if p.Name != "_" {
				sub[p.Name] = rhs
			}
		case comp.PTuple:
			t, ok := rhs.(comp.TupleExpr)
			if !ok || len(t.Elems) != len(p.Elems) {
				fail("cannot inline tuple let %s", l)
			}
			for i, sp := range p.Elems {
				pv, ok := sp.(comp.PVar)
				if !ok {
					fail("nested tuple let unsupported: %s", l)
				}
				if pv.Name != "_" {
					sub[pv.Name] = t.Elems[i]
				}
			}
		}
	}
	return comp.SubstExpr(e, sub)
}

// isMulOfValues reports whether the let-inlined combine expression is
// exactly a*b of the two generator values — the shape that lets the
// group-by-join and the matrix-vector product go straight to GEMM.
func isMulOfValues(e comp.Expr, aVar, bVar string) bool {
	b, ok := e.(comp.BinOp)
	if !ok || b.Op != "*" {
		return false
	}
	l, lok := b.L.(comp.Var)
	r, rok := b.R.(comp.Var)
	if !lok || !rok {
		return false
	}
	return (l.Name == aVar && r.Name == bVar) || (l.Name == bVar && r.Name == aVar)
}

// typ is the static type of an IR node. tDyn marks an opaque leaf whose
// type is only known per element: the consumer either coerces it (as)
// or becomes opaque itself.
type typ uint8

const (
	tInt typ = iota
	tFloat
	tBool
	tDyn
)

func (t typ) String() string { return [...]string{"int", "float", "bool", "value"}[t] }

// slot says where a comprehension variable lives at run time: element
// values are float rows, index variables are int64s that either stay
// constant over a row or advance by one per lane (iota).
type slot struct {
	index, iota bool
	id          int
}

// What a node's value varies with; it decides which guards hoist.
const (
	depVal  = 1 << iota // an element value
	depIota             // the index that advances along the row
	depRow              // an index that is constant over the row
)

func (s slot) deps() uint8 {
	switch {
	case !s.index:
		return depVal
	case s.iota:
		return depIota
	}
	return depRow
}

// node is one typed IR expression. op is the comp operator or builtin
// it computes, or one of val, idx, lit, opaque, if, neg, not, float,
// int. id names its scratch row in the frame.
type node struct {
	op       string
	typ      typ
	args     []*node
	id       int
	slot     slot            // val, idx: the input it reads
	lit      comp.Value      // lit
	expr     comp.Expr       // opaque: the subtree comp.EvalFast interprets
	free     []string        // opaque: its free variables, sorted,
	slots    map[string]slot // and where they live
	deps     uint8
	fallible bool // can raise: integer / and % by a non-constant, opaque
}

// lowerer lowers expressions over one variable->slot map. Its methods
// report a user error by panicking, as comp's do; lowerKernel returns
// it.
type lowerer struct {
	slots map[string]slot
	next  int
}

func fail(format string, args ...any) { panic(fmt.Errorf(format, args...)) }

func (c *lowerer) mk(op string, t typ, args ...*node) *node {
	n := &node{op: op, typ: t, args: args, id: c.next}
	c.next++
	for _, a := range args {
		n.deps |= a.deps
		n.fallible = n.fallible || a.fallible
	}
	return n
}

// opaque keeps e as a single leaf the reference evaluator interprets
// per element: the kinds the IR cannot type (tuples, lists, Index,
// nested reductions) and operators whose result type depends on the
// data.
func (c *lowerer) opaque(e comp.Expr) *node {
	n := c.mk("opaque", tDyn)
	n.expr, n.slots, n.fallible = e, c.slots, true
	for v := range comp.FreeVars(e) {
		s, ok := c.slots[v]
		if !ok {
			fail("unbound variable %q in %s", v, e)
		}
		n.free = append(n.free, v)
		n.deps |= s.deps()
	}
	sort.Strings(n.free)
	return n
}

// lazy guards an operator that reaches some arguments only for some
// elements (if, &&, ||). Rows compute every lane, so when such an
// argument can raise the operator is left to the interpreter.
func (c *lowerer) lazy(e comp.Expr, n *node) *node {
	for _, a := range n.args[1:] {
		if a.fallible {
			o := c.opaque(e)
			o.typ = n.typ
			return o
		}
	}
	return n
}

// as coerces n to the type its consumer demands, the way comp.MustFloat
// and MustBool would per element; a mismatch is a compile error.
func (c *lowerer) as(n *node, want typ, e comp.Expr) *node {
	switch {
	case n.typ == tDyn:
		n.typ = want
	case n.typ == tInt && want == tFloat:
		return c.mk("float", tFloat, n)
	case n.typ != want:
		fail("expected %s, got %s: %s", want, n.typ, e)
	}
	return n
}

func (c *lowerer) lower(e comp.Expr) *node {
	switch x := e.(type) {
	case comp.Var:
		s, ok := c.slots[x.Name]
		if !ok {
			fail("unbound variable %q", x.Name)
		}
		n := c.mk("val", tFloat)
		if s.index {
			n.op, n.typ = "idx", tInt
		}
		n.slot, n.deps = s, s.deps()
		return n
	case comp.Lit:
		n := c.mk("lit", tDyn)
		switch n.lit = x.Val; x.Val.(type) {
		case int64:
			n.typ = tInt
		case float64:
			n.typ = tFloat
		case bool:
			n.typ = tBool
		default:
			return c.opaque(e)
		}
		return n
	case comp.UnaryOp:
		a := c.lower(x.E)
		if x.Op == "!" {
			return c.mk("not", tBool, c.as(a, tBool, e))
		}
		if x.Op == "-" && a.typ != tDyn {
			if a.typ == tBool {
				a = c.as(a, tFloat, e)
			}
			return c.mk("neg", a.typ, a)
		}
	case comp.BinOp:
		return c.binOp(x)
	case comp.Call:
		return c.call(x)
	case comp.IfExpr:
		cond, a, b := c.as(c.lower(x.Cond), tBool, x.Cond), c.lower(x.Then), c.lower(x.Else)
		if a.typ == b.typ && a.typ != tDyn { // else the branch taken decides the type
			return c.lazy(e, c.mk("if", a.typ, cond, a, b))
		}
	}
	return c.opaque(e)
}

// binOp types an operator the way comp.evalBinOp computes it: int op int
// stays integral, any other numeric pair is float, == compares numbers
// as floats.
func (c *lowerer) binOp(x comp.BinOp) *node {
	l, r := c.lower(x.L), c.lower(x.R)
	switch x.Op {
	case "&&", "||":
		return c.lazy(x, c.mk(x.Op, tBool, c.as(l, tBool, x), c.as(r, tBool, x)))
	case "==", "!=":
		if l.typ == tBool && r.typ == tBool {
			return c.mk(x.Op, tBool, l, r)
		}
		if l.typ >= tBool || r.typ >= tBool {
			return c.opaque(x) // comp.Equal across kinds
		}
		return c.mk(x.Op, tBool, c.as(l, tFloat, x), c.as(r, tFloat, x))
	case "+", "-", "*", "/", "%", "<", "<=", ">", ">=":
		if l.typ != tInt || r.typ != tInt {
			if l.typ == tDyn && r.typ != tFloat || r.typ == tDyn && l.typ != tFloat {
				return c.opaque(x) // int or float: the operand decides per element
			}
			l, r = c.as(l, tFloat, x), c.as(r, tFloat, x)
		}
		t := l.typ
		if x.Op[0] == '<' || x.Op[0] == '>' {
			t = tBool
		}
		n := c.mk(x.Op, t, l, r)
		if d, isLit := r.lit.(int64); l.typ == tInt && (x.Op == "/" || x.Op == "%") && !(isLit && d != 0) {
			n.fallible = true
		}
		return n
	}
	return c.opaque(x) // until, to, ++
}

var arity = map[string]int{"abs": 1, "sqrt": 1, "exp": 1, "log": 1, "float": 1, "int": 1, "pow": 2, "min": 2, "max": 2}

// call types the numeric builtins as comp.evalCall computes them; the
// list builtins, unknown names and wrong arities stay with comp.
func (c *lowerer) call(x comp.Call) *node {
	args := make([]*node, len(x.Args))
	for i, a := range x.Args {
		args[i] = c.lower(a)
	}
	if arity[x.Fn] != len(args) {
		return c.opaque(x)
	}
	t := tFloat
	switch x.Fn {
	case "int":
		if args[0].typ == tFloat {
			return c.mk("int", tInt, args[0])
		}
		return c.as(args[0], tInt, x)
	case "abs", "min", "max": // return an argument, type included
		if t = args[0].typ; t == tDyn || t != args[len(args)-1].typ {
			return c.opaque(x)
		}
		if t != tInt {
			t = tFloat
		}
	}
	for i, a := range args {
		args[i] = c.as(a, t, x)
	}
	if x.Fn == "float" {
		return args[0]
	}
	return c.mk(x.Fn, t, args...)
}

// kernel is a lowered (filters, values) pair: the per-element code of
// one tile strategy. The filters are split by what they read so the row
// driver can hoist them.
type kernel struct {
	rowGuard *node   // && of those reading only row-constant indices: decided once per row
	colGuard *node   // && of those reading only the advancing index: decided once per tile
	filters  []*node // the rest, in order: each narrows the live lanes for the next
	vals     []*node // float-typed results, one row each
	types    []typ   // each value's own type, before the coercion to float
	nval     int     // value slots
	nidx     int     // index slots
	nbuf     int     // scratch rows: one per node plus the driver's two masks
	pass     bool    // no guard or filter, every value a bare value slot: rows need no evaluation
	frames   sync.Pool
}

// lowerKernel is the compiler's entry point: filters and vals are
// expressions over the variables in slots, after lets are inlined.
func lowerKernel(slots map[string]slot, lets []comp.LetQual, filters []comp.Expr, vals ...comp.Expr) (k *kernel, err error) {
	defer asError(&err, "kernel lowering")
	c := &lowerer{slots: slots}
	root := func(e comp.Expr, want typ) *node {
		e = inlineLets(e, lets)
		return c.as(c.lower(e), want, e)
	}
	k = &kernel{nidx: 2}
	for _, s := range slots {
		if s.index {
			k.nidx = max(k.nidx, s.id+1)
		} else {
			k.nval = max(k.nval, s.id+1)
		}
	}
	fallible := false // once a filter can raise, hoisting a later one would skip elements it raises on
	for _, f := range filters {
		n, chain := root(f, tBool), &k.rowGuard
		switch fallible = fallible || n.fallible; {
		case fallible || n.deps&depVal != 0 || n.deps == depIota|depRow:
			k.filters = append(k.filters, n)
			continue
		case n.deps == depIota:
			chain = &k.colGuard
		}
		if *chain != nil {
			n = c.mk("&&", tBool, *chain, n)
		}
		*chain = n
	}
	for _, v := range vals {
		v = inlineLets(v, lets)
		n := c.lower(v)
		k.types = append(k.types, n.typ)
		k.vals = append(k.vals, c.as(n, tFloat, v))
	}
	k.nbuf = c.next + 2
	k.pass = k.rowGuard == nil && k.colGuard == nil && len(k.filters) == 0 &&
		!slices.ContainsFunc(k.vals, func(n *node) bool { return n.op != "val" })
	return k, nil
}

// frame is one task's scratch for a kernel: the current row's inputs
// and one reusable row per IR node. Frames are pooled per kernel, so a
// tile costs no scratch allocation once the pool is warm.
type frame struct {
	w    int         // lanes in the current row
	val  [][]float64 // value slot -> the row's elements
	idx  []int64     // index slot -> its value at lane 0
	live []bool      // lanes a fallible node may evaluate (nil = all)
	out  [][]float64 // kernel.vals' results for the current row
	f    [][]float64 // node scratch, by node id
	i    [][]int64
	b    [][]bool
}

func (k *kernel) frame() *frame {
	if fr, ok := k.frames.Get().(*frame); ok {
		return fr
	}
	return &frame{val: make([][]float64, k.nval), idx: make([]int64, k.nidx), out: make([][]float64, len(k.vals)),
		f: make([][]float64, k.nbuf), i: make([][]int64, k.nbuf), b: make([][]bool, k.nbuf)}
}

// release returns fr to the pool without the tiles it points into.
func (k *kernel) release(fr *frame) {
	clear(fr.val)
	clear(fr.out)
	fr.live = nil
	k.frames.Put(fr)
}

func buf[T any](tab [][]T, id, w int) []T {
	if cap(tab[id]) < w {
		tab[id] = make([]T, w)
	}
	return tab[id][:w]
}

// row evaluates the filters and then the values over fr's current row
// and returns the lanes that hold a value (nil = all of them). in, when
// non-nil, marks the lanes the caller wants. A fallible node runs on
// live lanes only: exactly the elements the interpreter would reach.
func (k *kernel) row(fr *frame, in []bool) []bool {
	fr.live = in
	for _, f := range k.filters {
		fr.live = both(buf(fr.b, k.nbuf-1, fr.w), fr.live, f.bools(fr))
	}
	for x, v := range k.vals {
		fr.out[x] = v.floats(fr)
	}
	return fr.live
}

// both intersects two lane masks into d; nil means every lane.
func both(d, a, b []bool) []bool {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	for j := range d {
		d[j] = a[j] && b[j]
	}
	return d
}

// span is one source tile (or vector block, as a one-row tile) as the
// row driver sees it.
type span struct {
	src    [][]float64 // value slot -> row-major data
	dst    []float64   // optional: where vals[0] of each element goes
	stride int
	gi, gj int64 // global indices of element (0,0): index slots 0 and 1
	h, w   int   // in-bounds rows and columns (edge tiles are clipped)
}

// clip is the in-bounds extent of the tile at block coordinate key
// along a dimension of size dim.
func clip(dim, key int64, n int) int {
	return int(max(0, min(int64(n), dim-key*int64(n))))
}

// run is the shared tile-loop driver. For each in-bounds row it binds
// the inputs and indices, applies the hoisted guards (a false row guard
// skips the row; the column guard narrows every row to [lo,hi) once per
// tile), evaluates the kernel, and hands the row over: written to s.dst
// if set — rejected lanes keep the builder default 0 — and passed to
// emit (row i, first lane lo, the value rows, live lanes; nil = all).
// in, if non-nil, pre-selects row i's lanes. A pass-through kernel takes
// no frame and evaluates nothing: its value rows are the source rows
// themselves, which is what evaluating a bare value slot returns.
func (k *kernel) run(s span, in func(i int) []bool, emit func(i, lo int, vals [][]float64, mask []bool)) {
	if k.pass {
		vals := make([][]float64, len(k.vals))
		for i := 0; i < s.h && s.w > 0; i++ {
			off := i * s.stride
			for x, v := range k.vals {
				vals[x] = s.src[v.slot.id][off : off+s.w]
			}
			var mask []bool
			if in != nil {
				mask = in(i)[:s.w]
			}
			if s.dst != nil {
				store(s.dst[off:], vals[0], mask)
			}
			if emit != nil {
				emit(i, 0, vals, mask)
			}
		}
		return
	}
	fr := k.frame()
	defer k.release(fr)
	lo, hi := 0, s.w
	var cols []bool
	if k.colGuard != nil {
		fr.w, fr.idx[1] = s.w, s.gj
		cols = k.colGuard.bools(fr)
		for lo < hi && !cols[lo] {
			lo++
		}
		for hi > lo && !cols[hi-1] {
			hi--
		}
		if cols = cols[lo:hi]; !slices.Contains(cols, false) {
			cols = nil
		}
	}
	w := hi - lo
	fr.idx[1] = s.gj + int64(lo)
	for i := 0; i < s.h && w > 0; i++ {
		fr.idx[0] = s.gi + int64(i)
		if fr.w, fr.live = 1, nil; k.rowGuard != nil && !k.rowGuard.bools(fr)[0] {
			continue
		}
		fr.w = w
		live := cols
		if in != nil {
			live = both(buf(fr.b, k.nbuf-2, w), cols, in(i)[lo:hi])
		}
		off := i*s.stride + lo
		for v, data := range s.src {
			fr.val[v] = data[off : off+w]
		}
		mask := k.row(fr, live)
		if s.dst != nil {
			store(s.dst[off:], fr.out[0], mask)
		}
		if emit != nil {
			emit(i, lo, fr.out, mask)
		}
	}
}

// store writes a row's values to dst, rejected lanes as the builder
// default 0.
func store(dst, v []float64, mask []bool) {
	dst = dst[:len(v)]
	copy(dst, v)
	for j, ok := range mask {
		if !ok {
			dst[j] = 0
		}
	}
}

// contract is the group-by-join's tile kernel for a combine h that is
// not a*b: out[i,j] += h(op(x)[i,k], op(y)[k,j]) over h x kw x w in-bounds
// elements of n x n tiles, op transposing a tile whose flag is set, with
// the first elements' global indices gi, gk, gj (index slots 0, 1 and the
// advancing 2). Row k of op(y) meets op(x)[i,k] broadcast along it, k
// ascending for every output element; a row of a transposed y is a
// column of the stored tile, gathered into scratch.
func (k *kernel) contract(out, x, y []float64, transA, transB bool, n int, gi, gk, gj int64, h, kw, w int) {
	fr := k.frame()
	defer k.release(fr)
	fr.w, fr.idx[2] = w, gj
	// op(x)[i,kk] is x[i*xi+kk*xk]; row kk of op(y) starts at y[kk*yk].
	xi, xk, yk := n, 1, n
	if transA {
		xi, xk = 1, n
	}
	if transB {
		yk = 1
	}
	bcast := buf(fr.f, k.nbuf-1, w) // the driver's ids are free in the float table
	col := buf(fr.f, k.nbuf-2, w)
	for i := 0; i < h; i++ {
		fr.idx[0] = gi + int64(i)
		o := out[i*n : i*n+w]
		for kk := 0; kk < kw; kk++ {
			fr.idx[1] = gk + int64(kk)
			for j := range bcast {
				bcast[j] = x[i*xi+kk*xk]
			}
			row := y[kk*yk:]
			if transB {
				for j := range col {
					col[j] = row[j*n]
				}
				row = col
			}
			fr.val[0], fr.val[1] = bcast, row[:w]
			k.row(fr, nil)
			for j, v := range fr.out[0] {
				o[j] += v
			}
		}
	}
}

// --- row evaluation: one loop per node ---

type number interface{ int64 | float64 }

func arith[T number](op string, d, l, r []T) {
	l, r = l[:len(d)], r[:len(d)]
	switch op {
	case "+":
		for j := range d {
			d[j] = l[j] + r[j]
		}
	case "-":
		for j := range d {
			d[j] = l[j] - r[j]
		}
	case "*":
		for j := range d {
			d[j] = l[j] * r[j]
		}
	case "/": // floats only: ints check the divisor first
		for j := range d {
			d[j] = l[j] / r[j]
		}
	}
}

func compare[T number](op string, d []bool, l, r []T) []bool {
	l, r = l[:len(d)], r[:len(d)]
	switch op {
	case "<":
		for j := range d {
			d[j] = l[j] < r[j]
		}
	case "<=":
		for j := range d {
			d[j] = l[j] <= r[j]
		}
	case ">":
		for j := range d {
			d[j] = l[j] > r[j]
		}
	case ">=":
		for j := range d {
			d[j] = l[j] >= r[j]
		}
	case "==":
		for j := range d {
			d[j] = l[j] == r[j]
		}
	case "!=":
		for j := range d {
			d[j] = l[j] != r[j]
		}
	}
	return d
}

// The builtins and operators that are not worth a loop of their own,
// with comp.evalCall's exact semantics: min and max of floats are comp's
// one float definition, and of ints compare as floats and return the
// winning argument.
var (
	float1 = map[string]func(float64) float64{
		"neg": func(x float64) float64 { return -x }, "abs": math.Abs, "sqrt": math.Sqrt, "exp": math.Exp, "log": math.Log}
	float2 = map[string]func(a, b float64) float64{"%": math.Mod, "pow": math.Pow, "min": comp.MinFloat, "max": comp.MaxFloat}
	int1   = map[string]func(int64) int64{
		"neg": func(x int64) int64 { return -x }, "abs": func(x int64) int64 { return max(x, -x) }}
	int2 = map[string]func(a, b int64) int64{
		"min": func(a, b int64) int64 {
			if float64(a) <= float64(b) {
				return a
			}
			return b
		},
		"max": func(a, b int64) int64 {
			if float64(a) >= float64(b) {
				return a
			}
			return b
		}}
)

// shared evaluates the node kinds every type has — lit, opaque, if —
// into d, and reports whether n was one of them. A literal's row is
// filled once per frame.
func shared[T any](n *node, fr *frame, tab [][]T, rec func(*node, *frame) []T, must func(comp.Value) T) ([]T, bool) {
	if n.op == "lit" && len(tab[n.id]) >= fr.w {
		return tab[n.id][:fr.w], true
	}
	d := buf(tab, n.id, fr.w)
	switch n.op {
	case "lit":
		for j := range d {
			d[j] = n.lit.(T)
		}
	case "opaque": // the reference evaluator, on each live lane
		for j := range d {
			if fr.live != nil && !fr.live[j] {
				continue
			}
			var env *comp.Env
			for _, v := range n.free {
				switch s := n.slots[v]; {
				case !s.index:
					env = env.Bind(v, fr.val[s.id][j])
				case s.iota:
					env = env.Bind(v, fr.idx[s.id]+int64(j))
				default:
					env = env.Bind(v, fr.idx[s.id])
				}
			}
			d[j] = must(comp.EvalFast(n.expr, env))
		}
	case "if":
		c, a, b := n.args[0].bools(fr), rec(n.args[1], fr), rec(n.args[2], fr)
		for j := range d {
			if d[j] = b[j]; c[j] {
				d[j] = a[j]
			}
		}
	default:
		return d, false
	}
	return d, true
}

// nums evaluates the node kinds ints and floats share.
func nums[T number](n *node, fr *frame, tab [][]T, rec func(*node, *frame) []T, must func(comp.Value) T,
	fn1 map[string]func(T) T, fn2 map[string]func(T, T) T) []T {
	d, done := shared(n, fr, tab, rec, must)
	if done {
		return d
	}
	l := rec(n.args[0], fr)
	if len(n.args) == 1 {
		f := fn1[n.op]
		for j, v := range l {
			d[j] = f(v)
		}
		return d
	}
	r := rec(n.args[1], fr)
	if f := fn2[n.op]; f != nil {
		for j := range d {
			d[j] = f(l[j], r[j])
		}
		return d
	}
	arith(n.op, d, l, r)
	return d
}

func (n *node) floats(fr *frame) []float64 {
	switch n.op {
	case "val":
		return fr.val[n.slot.id]
	case "float":
		d := buf(fr.f, n.id, fr.w)
		for j, v := range n.args[0].ints(fr) {
			d[j] = float64(v)
		}
		return d
	}
	return nums(n, fr, fr.f, (*node).floats, comp.MustFloat, float1, float2)
}

func (n *node) ints(fr *frame) []int64 {
	switch n.op {
	case "idx":
		d := buf(fr.i, n.id, fr.w)
		base, step := fr.idx[n.slot.id], int64(0)
		if n.slot.iota {
			step = 1
		}
		for j := range d {
			d[j] = base + step*int64(j)
		}
		return d
	case "int":
		d := buf(fr.i, n.id, fr.w)
		for j, v := range n.args[0].floats(fr) {
			d[j] = int64(v)
		}
		return d
	case "/", "%":
		d, l, r := buf(fr.i, n.id, fr.w), n.args[0].ints(fr), n.args[1].ints(fr)
		for j := range d {
			switch {
			case n.fallible && fr.live != nil && !fr.live[j]: // a lane the interpreter never reaches
			case r[j] == 0 && n.op == "/":
				panic(fmt.Errorf("comp: integer division by zero"))
			case r[j] == 0:
				panic(fmt.Errorf("comp: integer modulo by zero"))
			case n.op == "/":
				d[j] = l[j] / r[j]
			default:
				d[j] = l[j] % r[j]
			}
		}
		return d
	}
	return nums(n, fr, fr.i, (*node).ints, comp.MustInt, int1, int2)
}

func (n *node) bools(fr *frame) []bool {
	d, done := shared(n, fr, fr.b, (*node).bools, comp.MustBool)
	switch {
	case done:
	case n.op == "not":
		for j, v := range n.args[0].bools(fr) {
			d[j] = !v
		}
	case n.args[0].typ == tInt:
		compare(n.op, d, n.args[0].ints(fr), n.args[1].ints(fr))
	case n.args[0].typ == tFloat:
		compare(n.op, d, n.args[0].floats(fr), n.args[1].floats(fr))
	default: // && || == != on bools; lazy() made the right side safe to compute
		l, r := n.args[0].bools(fr), n.args[1].bools(fr)
		for j := range d {
			switch n.op {
			case "&&":
				d[j] = l[j] && r[j]
			case "||":
				d[j] = l[j] || r[j]
			default:
				d[j] = (l[j] == r[j]) == (n.op == "==")
			}
		}
	}
	return d
}
