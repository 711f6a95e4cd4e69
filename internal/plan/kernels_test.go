package plan

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/comp"
	"repro/internal/dataflow"
	"repro/internal/linalg"
	"repro/internal/opt"
	"repro/internal/sacparser"
	"repro/internal/tiled"
)

// choices is a stream of decisions for the expression generator: a
// seeded rng in the tests, the fuzzer's bytes in
// FuzzKernelMatchesInterpreter.
type choices interface{ Intn(n int) int }

type byteChoices struct {
	b []byte
	p int
}

func (c *byteChoices) Intn(n int) int {
	if c.p >= len(c.b) {
		return 0 // an exhausted stream picks leaves: generation terminates
	}
	v := int(c.b[c.p]) % n
	c.p++
	return v
}

// exprGen generates well-typed comprehension expressions over element
// values (float), index variables (int) and literals — every operator
// and builtin the kernel IR types, plus data-dependent types and nested
// reductions that must stay opaque leaves.
type exprGen struct {
	c    choices
	vals []string
	idxs []string
	flat bool // no nested comprehension: comp.SubstExpr cannot inline a let into one
}

func v(name string) comp.Expr                  { return comp.Var{Name: name} }
func lit(x comp.Value) comp.Expr               { return comp.Lit{Val: x} }
func bin(op string, l, r comp.Expr) comp.Expr  { return comp.BinOp{Op: op, L: l, R: r} }
func call(fn string, a ...comp.Expr) comp.Expr { return comp.Call{Fn: fn, Args: a} }

func (g *exprGen) pick(xs ...string) string { return xs[g.c.Intn(len(xs))] }

func (g *exprGen) intLeaf() comp.Expr {
	if g.c.Intn(2) == 0 {
		return v(g.pick(g.idxs...))
	}
	return lit(int64(g.c.Intn(7) - 2))
}

func (g *exprGen) floatLeaf() comp.Expr {
	if g.c.Intn(3) != 0 {
		return v(g.pick(g.vals...))
	}
	return lit([]float64{0.5, 2, -1.5, 0, 3.25}[g.c.Intn(5)])
}

// num is an int or a float expression (mixed arithmetic promotes).
func (g *exprGen) num(d int) comp.Expr {
	switch g.c.Intn(5) {
	case 0, 1:
		return g.int(d)
	case 2:
		return g.dyn(d)
	}
	return g.float(d)
}

func (g *exprGen) int(d int) comp.Expr {
	if d <= 0 {
		return g.intLeaf()
	}
	switch g.c.Intn(9) {
	case 0:
		return bin(g.pick("+", "-", "*"), g.int(d-1), g.int(d-1))
	case 1: // a divisor that is never zero
		return bin(g.pick("/", "%"), g.int(d-1), lit(int64(1+g.c.Intn(4))))
	case 2:
		return bin(g.pick("/", "%"), g.int(d-1), bin("+", call("abs", g.int(d-1)), lit(int64(1))))
	case 3: // one that can be: raises unless a guard protects it
		return bin(g.pick("/", "%"), g.int(d-1), g.int(d-1))
	case 4:
		return call(g.pick("min", "max"), g.int(d-1), g.int(d-1))
	case 5:
		return call("abs", g.int(d-1))
	case 6:
		return comp.IfExpr{Cond: g.bool(d - 1), Then: g.int(d - 1), Else: g.int(d - 1)}
	case 7:
		return call("int", g.float(d-1))
	}
	return comp.UnaryOp{Op: "-", E: g.int(d - 1)}
}

func (g *exprGen) float(d int) comp.Expr {
	if d <= 0 {
		return g.floatLeaf()
	}
	switch g.c.Intn(9) {
	case 0, 1:
		return bin(g.pick("+", "-", "*", "/", "%"), g.float(d-1), g.num(d-1))
	case 2:
		return bin(g.pick("+", "-", "*", "/"), g.num(d-1), g.float(d-1))
	case 3:
		return call(g.pick("sqrt", "exp", "log", "abs", "float"), g.num(d-1))
	case 4:
		return call("pow", g.num(d-1), g.num(d-1))
	case 5:
		return call(g.pick("min", "max"), g.float(d-1), g.float(d-1))
	case 6:
		return comp.IfExpr{Cond: g.bool(d - 1), Then: g.float(d - 1), Else: g.float(d - 1)}
	case 7:
		return comp.UnaryOp{Op: "-", E: g.float(d - 1)}
	}
	return g.floatLeaf()
}

// dyn is numeric with a type only the data decides, or a kind the IR
// does not model: each must come out as an opaque leaf.
func (g *exprGen) dyn(d int) comp.Expr {
	switch c := g.c.Intn(4); {
	case c == 0 || c == 2 && g.flat:
		return call(g.pick("min", "max"), g.int(d-1), g.float(d-1))
	case c == 1:
		return comp.IfExpr{Cond: g.bool(d - 1), Then: g.int(d - 1), Else: g.float(d - 1)}
	case c == 2: // +/[ x * idx | x <- 0 until 3 ]
		return comp.Reduce{Monoid: "+", E: comp.Comprehension{
			Head:  bin("*", v("x"), g.intLeaf()),
			Quals: []comp.Qualifier{comp.Generator{Pat: comp.PV("x"), Src: bin("until", lit(int64(0)), lit(int64(3)))}}}}
	}
	return call("abs", call(g.pick("min", "max"), g.intLeaf(), g.floatLeaf()))
}

func (g *exprGen) bool(d int) comp.Expr {
	if d <= 0 {
		return bin(g.pick("<", "<=", ">", ">=", "==", "!="), g.num(0), g.num(0))
	}
	switch g.c.Intn(8) {
	case 0:
		return bin(g.pick("&&", "||"), g.bool(d-1), g.bool(d-1))
	case 1:
		return comp.UnaryOp{Op: "!", E: g.bool(d - 1)}
	case 2:
		return bin(g.pick("==", "!="), g.bool(d-1), g.bool(d-1))
	case 3:
		return lit(g.c.Intn(2) == 0)
	case 4:
		return comp.IfExpr{Cond: g.bool(d - 1), Then: g.bool(d - 1), Else: g.bool(d - 1)}
	case 5: // an index-only guard: hoisted to a row or a column range
		return bin(g.pick("<", "<=", ">", ">=", "==", "!="), v(g.pick(g.idxs...)), lit(int64(g.c.Intn(6))))
	}
	return bin(g.pick("<", "<=", ">", ">=", "==", "!="), g.num(d-1), g.num(d-1))
}

// kernelCase is one generated kernel: guards and a head over one or two
// inputs.
type kernelCase struct {
	inputs  int
	filters []comp.Expr
	head    comp.Expr
}

func genKernelCase(c choices) kernelCase {
	kc := kernelCase{inputs: 1 + c.Intn(2)}
	g := &exprGen{c: c, vals: []string{"a", "b"}[:kc.inputs], idxs: []string{"i", "j"}}
	for n := c.Intn(3); n > 0; n-- {
		kc.filters = append(kc.filters, g.bool(1+c.Intn(2)))
	}
	kc.head = g.num(1 + c.Intn(3))
	return kc
}

func (kc kernelCase) String() string {
	fs := make([]string, len(kc.filters))
	for i, f := range kc.filters {
		fs[i] = f.String()
	}
	return fmt.Sprintf("head %s | guards [%s]", kc.head, strings.Join(fs, ", "))
}

var matrixSlots = map[string]slot{
	"i": {index: true, id: 0}, "j": {index: true, id: 1, iota: true}, "a": {id: 0}, "b": {id: 1}}

// testData is a rows x cols matrix of values chosen to collide with the
// generator's literals (equalities fire, divisors hit zero).
func testData(rng *rand.Rand, rows, cols int) []float64 {
	d := make([]float64, rows*cols)
	for x := range d {
		d[x] = []float64{0, 1, 2, -1.5, 2.5, 3, 0.5}[rng.Intn(7)]
	}
	return d
}

// checkKernelCase compiles kc and runs it tile by tile over rows x cols
// inputs at tile size n, through the dst path or the emit path, with an
// optional caller lane selection, and compares every element bit for bit
// with comp.Eval on that element. Where the interpreter raises, the
// kernel must raise one of the same errors.
func checkKernelCase(t testing.TB, kc kernelCase, rng *rand.Rand, rows, cols, n int) {
	k, err := lowerKernel(matrixSlots, nil, kc.filters, kc.head)
	if err != nil {
		t.Fatalf("%s: well-typed case does not lower: %v", kc, err)
	}
	data := [][]float64{testData(rng, rows, cols), testData(rng, rows, cols)}[:kc.inputs]
	var sel []bool // lanes the caller pre-selects, as finalize and Rule 19 do
	if rng.Intn(3) == 0 {
		sel = make([]bool, rows*cols)
		for x := range sel {
			sel[x] = rng.Intn(4) != 0
		}
	}
	useEmit := rng.Intn(2) == 0

	want := make([]float64, rows*cols)
	refErrs := map[string]bool{}
	for gi := 0; gi < rows; gi++ {
	element:
		for gj := 0; gj < cols; gj++ {
			x := gi*cols + gj
			if sel != nil && !sel[x] {
				continue
			}
			env := (*comp.Env)(nil).Bind("i", int64(gi)).Bind("j", int64(gj)).Bind("a", data[0][x])
			if kc.inputs == 2 {
				env = env.Bind("b", data[1][x])
			}
			for _, f := range kc.filters {
				pass, err := comp.Eval(f, env)
				if err != nil {
					refErrs[err.Error()] = true
					continue element
				}
				if !comp.MustBool(pass) {
					continue element
				}
			}
			val, err := comp.Eval(kc.head, env)
			if err != nil {
				refErrs[err.Error()] = true
				continue
			}
			want[x] = comp.MustFloat(val)
		}
	}

	got := make([]float64, rows*cols)
	var raised any
	func() {
		defer func() { raised = recover() }()
		for ti := 0; ti*n < rows; ti++ {
			for tj := 0; tj*n < cols; tj++ {
				// Padded n x n tiles, as tiled.FromDense lays them out.
				tiles := make([][]float64, kc.inputs)
				for s := range tiles {
					tiles[s] = make([]float64, n*n)
				}
				tsel := make([]bool, n*n)
				for i := 0; i < n && ti*n+i < rows; i++ {
					for j := 0; j < n && tj*n+j < cols; j++ {
						src := (ti*n+i)*cols + tj*n + j
						for s := range tiles {
							tiles[s][i*n+j] = data[s][src]
						}
						tsel[i*n+j] = sel == nil || sel[src]
					}
				}
				out := make([]float64, n*n)
				sp := tileSpan(tiled.Coord{I: int64(ti), J: int64(tj)}, n, int64(rows), int64(cols), out, tiles...)
				var in func(int) []bool
				if sel != nil {
					in = func(i int) []bool { return tsel[i*n : (i+1)*n] }
				}
				var emit func(i, lo int, vals [][]float64, mask []bool)
				if useEmit {
					sp.dst = nil
					emit = func(i, lo int, vals [][]float64, mask []bool) {
						for j, x := range vals[0] {
							if mask == nil || mask[j] {
								out[i*n+lo+j] = x
							}
						}
					}
				}
				k.run(sp, in, emit)
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						if gi, gj := ti*n+i, tj*n+j; gi < rows && gj < cols {
							got[gi*cols+gj] = out[i*n+j]
						} else if out[i*n+j] != 0 {
							t.Fatalf("%s: tile (%d,%d) wrote %v into padding at (%d,%d)", kc, ti, tj, out[i*n+j], i, j)
						}
					}
				}
			}
		}
	}()
	if len(refErrs) > 0 {
		if raised == nil || !refErrs[fmt.Sprint(raised)] {
			t.Fatalf("%s (%dx%d tile %d): interpreter raises %v, kernel raised %v", kc, rows, cols, n, refErrs, raised)
		}
		return
	}
	if raised != nil {
		t.Fatalf("%s (%dx%d tile %d): kernel raised %v, interpreter does not", kc, rows, cols, n, raised)
	}
	for x := range want {
		if math.Float64bits(got[x]) != math.Float64bits(want[x]) {
			t.Fatalf("%s (%dx%d tile %d emit=%v): element (%d,%d) = %v (%#x), interpreter %v (%#x)", kc, rows, cols, n, useEmit,
				x/cols, x%cols, got[x], math.Float64bits(got[x]), want[x], math.Float64bits(want[x]))
		}
	}
}

// The kernel compiler's safety net (ROADMAP 7c): generated heads and
// guards, compiled row kernel vs the reference evaluator per element,
// bit for bit, over tile sizes and dims that leave ragged edge tiles.
func TestKernelMatchesInterpreter(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for round := 0; round < 1500; round++ {
		kc := genKernelCase(rng)
		n := []int{1, 3, 7, 16}[rng.Intn(4)]
		checkKernelCase(t, kc, rng, 1+rng.Intn(18), 1+rng.Intn(18), n)
	}
}

// Native fuzz target over the same generator: the bytes are the
// generator's decisions. Seeded with streams that reach every node kind.
func FuzzKernelMatchesInterpreter(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	for s := 0; s < 32; s++ {
		b := make([]byte, 48)
		rng.Read(b)
		f.Add(b)
	}
	// A NaN through min: one input, no guards, head min(sqrt(-1.5), a), on
	// a ragged 7 x 5 matrix in 3 x 3 tiles.
	f.Add([]byte{0, 0, 1, 3, 5, 0, 3, 0, 3, 0, 2, 8, 1, 0, 1, 6, 4})
	f.Fuzz(func(t *testing.T, b []byte) {
		c := &byteChoices{b: b}
		kc := genKernelCase(c)
		n := []int{1, 3, 7, 16}[c.Intn(4)]
		checkKernelCase(t, kc, rand.New(rand.NewSource(int64(len(b)))), 1+c.Intn(18), 1+c.Intn(18), n)
	})
}

// sameBits compares two results exactly; NaNs match each other.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b
}

func approx(a, b float64) bool {
	return sameBits(a, b) || math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// runBoth executes a query AST through the planner and through the
// reference evaluator (the same comprehension under the local builder)
// and returns both as row-major values, or the errors.
func runBoth(cat *Catalog, env *comp.Env, builder, local string, dims []int64, body comp.Comprehension, opts opt.Options) (got, want []float64, gotErr, wantErr error) {
	args := make([]comp.Expr, len(dims))
	for i, d := range dims {
		args[i] = lit(d)
	}
	ref, wantErr := comp.Eval(comp.Desugar(comp.BuildExpr{Builder: local, Args: args, Body: body}), env)
	switch r := ref.(type) {
	case comp.MatrixStorage:
		want = r.M.Data
	case comp.VectorStorage:
		want = r.V.Data
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				gotErr = fmt.Errorf("%v", r)
			}
		}()
		var res *Result
		if res, gotErr = Run(comp.BuildExpr{Builder: builder, Args: args, Body: body}, cat, opts); gotErr == nil {
			if res.Matrix != nil {
				got = res.Matrix.ToDense().Data
			} else {
				got = res.Vector.ToDense().Data
			}
		}
	}()
	return got, want, gotErr, wantErr
}

// Every tile strategy that runs a kernel, on generated heads: both key
// orders of the map, the two-input zip, and the tile aggregation with
// each monoid grouped by row and by column, single aggregates and
// multi-aggregate heads with a finalize that reads the group key. One
// tile per fold fixes the fold order, so those compare bit for bit, as
// do min, max and count at any tiling; + and * across tiles compare to
// 1e-9 (the partials' combine order is the engine's, not the
// interpreter's).
func TestTileStrategiesMatchInterpreter(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	arrayGen := func(name, i, j, val string) comp.Qualifier {
		return comp.Generator{Pat: comp.PT(comp.PT(comp.PV(i), comp.PV(j)), comp.PV(val)), Src: v(name)}
	}
	key := func(names ...string) comp.Expr {
		es := make([]comp.Expr, len(names))
		for i, n := range names {
			es[i] = v(n)
		}
		return comp.TupleExpr{Elems: es}
	}
	pair := func(k, val comp.Expr) comp.Expr { return comp.TupleExpr{Elems: []comp.Expr{k, val}} }
	letV := func(name string, e comp.Expr) comp.Qualifier { return comp.LetQual{Pat: comp.PV(name), E: e} }

	for round := 0; round < 400; round++ {
		rows, cols := 1+rng.Intn(12), 1+rng.Intn(12)
		n := []int{1, 3, 7, 16}[rng.Intn(4)]
		oneTilePerFold := n >= rows && n >= cols
		da, db := linalg.NewDenseFrom(rows, cols, testData(rng, rows, cols)), linalg.NewDenseFrom(rows, cols, testData(rng, rows, cols))
		ctx := dataflow.NewLocalContext()
		parts := 1 + rng.Intn(3)
		cat := NewCatalog(ctx).BindMatrix("A", tiled.FromDense(ctx, da, n, parts)).BindMatrix("B", tiled.FromDense(ctx, db, n, parts))
		env := (*comp.Env)(nil).Bind("A", comp.MatrixStorage{M: da}).Bind("B", comp.MatrixStorage{M: db})
		g := &exprGen{c: rng, vals: []string{"a"}, idxs: []string{"i", "j"}}
		opts := opt.Options{DisableReduceByKey: rng.Intn(4) == 0}

		var (
			body           comp.Comprehension
			builder, local = "tiled", "matrix"
			dims           = []int64{int64(rows), int64(cols)}
			exact          = true
			kind           string
		)
		switch shape := rng.Intn(4); shape {
		case 0, 1: // map, identity or swapped key, with guards
			kind = "map"
			quals := []comp.Qualifier{arrayGen("A", "i", "j", "a")}
			for f := rng.Intn(3); f > 0; f-- {
				quals = append(quals, comp.Guard{E: g.bool(1)})
			}
			k := key("i", "j")
			if shape == 1 {
				kind, k, dims = "transposed map", key("j", "i"), []int64{int64(cols), int64(rows)}
			}
			body = comp.Comprehension{Head: pair(k, g.num(2)), Quals: quals}
		case 2:
			kind = "zip"
			g.vals = []string{"a", "b"}
			body = comp.Comprehension{Head: pair(key("i", "j"), g.num(2)), Quals: []comp.Qualifier{
				arrayGen("A", "i", "j", "a"), arrayGen("B", "ii", "jj", "b"),
				comp.Guard{E: bin("==", v("ii"), v("i"))}, comp.Guard{E: bin("==", v("jj"), v("j"))}}}
		default: // tile aggregation
			builder, local = "tiledvec", "vector"
			g.flat = true
			by := g.pick("i", "j")
			dims = []int64{int64(rows)}
			if by == "j" {
				dims = []int64{int64(cols)}
			}
			quals := []comp.Qualifier{arrayGen("A", "i", "j", "a")}
			if rng.Intn(2) == 0 {
				quals = append(quals, comp.Guard{E: g.bool(1)})
			}
			m1, m2 := g.pick("+", "*", "min", "max", "count"), g.pick("+", "*", "min", "max", "count")
			quals = append(quals, letV("v", g.float(2)), letV("w", g.float(1)), comp.GroupBy{Pat: comp.PV(by)})
			head := comp.Expr(comp.Reduce{Monoid: m1, E: v("v")})
			kind = m1 + " by " + by
			if rng.Intn(2) == 0 { // Rule 12: two aggregates, finalized with the group key
				kind += ", " + m2 + " finalized"
				head = bin("+", bin("*", head, lit(0.5)), bin("-", comp.Reduce{Monoid: m2, E: v("w")}, v(by)))
				exact = exact && (oneTilePerFold || m2 != "+" && m2 != "*")
			}
			exact = exact && (oneTilePerFold || m1 != "+" && m1 != "*")
			body = comp.Comprehension{Head: pair(v(by), head), Quals: quals}
		}

		got, want, gotErr, wantErr := runBoth(cat, env, builder, local, dims, body, opts)
		ctx.Close()
		desc := fmt.Sprintf("round %d %s (%dx%d tile %d parts %d opts %+v)\nquery: %s", round, kind, rows, cols, n, parts, opts, body)
		if wantErr != nil {
			if gotErr == nil {
				t.Fatalf("%s\ninterpreter raises %v, plan does not", desc, wantErr)
			}
			continue
		}
		if gotErr != nil {
			t.Fatalf("%s\nplan raised %v, interpreter does not", desc, gotErr)
		}
		for x := range want {
			if !sameBits(got[x], want[x]) && (exact || !approx(got[x], want[x])) {
				t.Fatalf("%s\nelement %d = %v (%#x), interpreter %v (%#x), exact=%v", desc, x,
					got[x], math.Float64bits(got[x]), want[x], math.Float64bits(want[x]), exact)
			}
		}
	}
}

// Bugfix: a group-by-join whose combine expression reads an index
// variable used to panic in a task with `unbound variable "k"`, and one
// that is not zero-preserving summed the padding of edge tiles. The
// contraction kernel gets the global i, k, j and is clipped.
func TestGroupByJoinCombineReadsIndexVars(t *testing.T) {
	const n, m, l = 6, 5, 7
	for _, gens := range []struct {
		a, b                       string
		aRows, aCols, bRows, bCols int
	}{
		{"((i,k),a) <- A", "((kk,j),b) <- B", n, m, m, l},
		{"((k,i),a) <- A", "((j,kk),b) <- B", m, n, l, m}, // both inputs transposed into position
	} {
		for _, combine := range []string{"a*b*k", "a*b*(i+1) - j", "a + b + 1.0"} {
			for _, tile := range []int{2, 3, 4, 5} {
				da, db := linalg.RandDense(gens.aRows, gens.aCols, -2, 2, 11), linalg.RandDense(gens.bRows, gens.bCols, -2, 2, 12)
				src := fmt.Sprintf(`[ ((i,j), +/v) | %s, %s, kk == k, let v = %s, group by (i,j) ]`, gens.a, gens.b, combine)
				ref, err := comp.Eval(comp.Desugar(sacparser.MustParse(fmt.Sprintf("matrix(%d,%d)", n, l)+src)),
					(*comp.Env)(nil).Bind("A", comp.MatrixStorage{M: da}).Bind("B", comp.MatrixStorage{M: db}))
				if err != nil {
					t.Fatal(err)
				}
				want := ref.(comp.MatrixStorage).M
				for _, opts := range []opt.Options{{}, {DisableGBJ: true}, {DisableGBJ: true, DisableReduceByKey: true}} {
					ctx := dataflow.NewLocalContext()
					cat := NewCatalog(ctx).
						BindMatrix("A", tiled.FromDense(ctx, da, tile, 2)).
						BindMatrix("B", tiled.FromDense(ctx, db, tile, 2))
					q, err := Compile(sacparser.MustParse(fmt.Sprintf("tiled(%d,%d)", n, l)+src), cat, opts)
					if err != nil {
						t.Fatalf("%s: %v", src, err)
					}
					if k := q.strategy.Kind(); k != "group-by-join" && k != "join-reduce" {
						t.Fatalf("%s: strategy %s", src, k)
					}
					res, _, err := q.Force(false)
					if err != nil {
						t.Fatalf("%s tile %d opts %+v: %v", src, tile, opts, err)
					}
					if got := res.Matrix.ToDense(); !got.EqualApprox(want, 1e-9) {
						t.Fatalf("%s tile %d opts %+v diverged\nplan:\n%v\ninterpreter:\n%v", src, tile, opts, got, want)
					}
					ctx.Close()
				}
			}
		}
	}
}

// The per-element closures and their heap-allocated index pairs are gone: what
// one query allocates does not depend on how many elements a tile holds.
// No clock: one tile, one partition, allocation counts only.
func TestTileKernelAllocsIndependentOfTileSize(t *testing.T) {
	allocs := func(src string, n int) float64 {
		ctx := dataflow.NewContext(dataflow.Config{Parallelism: 1})
		defer ctx.Close()
		cat := NewCatalog(ctx).BindScalar("n", int64(n)).
			BindMatrix("A", tiled.RandMatrix(ctx, int64(n), int64(n), n, 1, 0, 10, 1).Persist()).
			BindMatrix("B", tiled.RandMatrix(ctx, int64(n), int64(n), n, 1, 0, 10, 2).Persist())
		q, err := Compile(sacparser.MustParse(src), cat, opt.Options{})
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			if _, _, err := q.Force(false); err != nil {
				t.Fatal(err)
			}
		}
		run() // persist the inputs, warm the frame pool
		return testing.AllocsPerRun(20, run)
	}
	for _, src := range []string{
		"tiled(n,n)[ ((i,j), a+b) | ((i,j),a) <- A, ((ii,jj),b) <- B, ii == i, jj == j ]",
		"tiled(n,n)[ ((j,i), a) | ((i,j),a) <- A ]",
		"tiledvec(n)[ (i, +/a) | ((i,j),a) <- A, group by i ]",
		"tiled(n,n)[ ((i,j), a*i) | ((i,j),a) <- A, a > 2.5, j < 5 ]",
	} {
		small, large := allocs(src, 8), allocs(src, 64)
		if d := large - small; d > 8 || d < -8 {
			t.Errorf("%s:\n%v allocations at tile 8, %v at tile 64: the kernel allocates per element", src, small, large)
		}
	}
}
