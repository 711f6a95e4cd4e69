package plan

import (
	"fmt"
	"math"

	"repro/internal/comp"
	"repro/internal/dataflow"
	"repro/internal/linalg"
	"repro/internal/opt"
	"repro/internal/tiled"
)

// execMap runs a tiling-preserving map (Rule 17 degenerate case): a
// narrow per-tile operation, with the tile coordinate permuted like
// the element key.
func (q *Compiled) execMap(s *opt.MapStrategy) (*Result, error) {
	if len(s.Gen.IndexVars) == 1 {
		return q.execVectorMap(s)
	}
	m, err := q.cat.matrix(s.Gen.Name)
	if err != nil {
		return nil, err
	}
	if q.builder != "tiled" {
		return nil, fmt.Errorf("plan: map over a matrix must build tiled, got %s", q.builder)
	}
	cell := compileCell1(s.Gen, s.Lets, s.Filters, s.ValExpr)
	n := m.N
	rows, cols := m.Rows, m.Cols
	swap := len(s.KeyPerm) == 2 && s.KeyPerm[0] == 1

	tiles := dataflow.Map(m.Tiles, func(b tiled.Block) tiled.Block {
		out := linalg.NewDense(n, n)
		rowOff := b.Key.I * int64(n)
		colOff := b.Key.J * int64(n)
		for i := 0; i < n; i++ {
			gi := rowOff + int64(i)
			if gi >= rows {
				break
			}
			for j := 0; j < n; j++ {
				gj := colOff + int64(j)
				if gj >= cols {
					break
				}
				v, ok := cell([]int64{gi, gj}, b.Value.At(i, j))
				if !ok {
					continue
				}
				if swap {
					out.Set(j, i, v)
				} else {
					out.Set(i, j, v)
				}
			}
		}
		key := b.Key
		if swap {
			key = tiled.Coord{I: b.Key.J, J: b.Key.I}
		}
		return dataflow.KV(key, out)
	})
	outRows, outCols := rows, cols
	if swap {
		outRows, outCols = cols, rows
	}
	return &Result{Matrix: &tiled.Matrix{Rows: outRows, Cols: outCols, N: n, Tiles: tiles}}, nil
}

// execVectorMap maps over a tiled vector.
func (q *Compiled) execVectorMap(s *opt.MapStrategy) (*Result, error) {
	v, ok := q.cat.vals[s.Gen.Name].(*tiled.Vector)
	if !ok {
		return nil, fmt.Errorf("plan: %q is not a tiled vector", s.Gen.Name)
	}
	if q.builder != "tiledvec" {
		return nil, fmt.Errorf("plan: map over a vector must build tiledvec, got %s", q.builder)
	}
	cell := compileCell1(s.Gen, s.Lets, s.Filters, s.ValExpr)
	n, size := v.N, v.Size
	blocks := dataflow.Map(v.Blocks, func(b tiled.VBlock) tiled.VBlock {
		out := linalg.NewVector(n)
		off := b.Key * int64(n)
		for i := 0; i < n; i++ {
			gi := off + int64(i)
			if gi >= size {
				break
			}
			x, ok := cell([]int64{gi}, b.Value.At(i))
			if ok {
				out.Set(i, x)
			}
		}
		return dataflow.KV(b.Key, out)
	})
	return &Result{Vector: &tiled.Vector{Size: size, N: n, Blocks: blocks}}, nil
}

// execZip runs the Rule 17 join of two tile datasets with an
// elementwise kernel (matrix addition shape); one-dimensional inputs
// zip block vectors.
func (q *Compiled) execZip(s *opt.ZipStrategy) (*Result, error) {
	if len(s.GenA.IndexVars) == 1 {
		return q.execVectorZip(s)
	}
	a, err := q.cat.matrix(s.GenA.Name)
	if err != nil {
		return nil, err
	}
	b, err := q.cat.matrix(s.GenB.Name)
	if err != nil {
		return nil, err
	}
	if a.Rows != b.Rows || a.Cols != b.Cols || a.N != b.N {
		return nil, fmt.Errorf("plan: zip on incompatible matrices")
	}
	cell := compileCell2(s.GenA, s.GenB, s.Lets, s.ValExpr)
	n, rows, cols := a.N, a.Rows, a.Cols

	j := dataflow.Join(a.Tiles, b.Tiles, a.Tiles.NumPartitions())
	tiles := dataflow.Map(j, func(p dataflow.Pair[tiled.Coord, dataflow.JoinedPair[*linalg.Dense, *linalg.Dense]]) tiled.Block {
		out := linalg.NewDense(n, n)
		rowOff := p.Key.I * int64(n)
		colOff := p.Key.J * int64(n)
		for i := 0; i < n; i++ {
			gi := rowOff + int64(i)
			if gi >= rows {
				break
			}
			for jj := 0; jj < n; jj++ {
				gj := colOff + int64(jj)
				if gj >= cols {
					break
				}
				out.Set(i, jj, cell([]int64{gi, gj}, p.Value.Left.At(i, jj), p.Value.Right.At(i, jj)))
			}
		}
		return dataflow.KV(p.Key, out)
	})
	return &Result{Matrix: &tiled.Matrix{Rows: rows, Cols: cols, N: n, Tiles: tiles}}, nil
}

// execVectorZip joins two block vectors element-wise.
func (q *Compiled) execVectorZip(s *opt.ZipStrategy) (*Result, error) {
	a, ok := q.cat.vals[s.GenA.Name].(*tiled.Vector)
	if !ok {
		return nil, fmt.Errorf("plan: %q is not a tiled vector", s.GenA.Name)
	}
	b, ok := q.cat.vals[s.GenB.Name].(*tiled.Vector)
	if !ok {
		return nil, fmt.Errorf("plan: %q is not a tiled vector", s.GenB.Name)
	}
	if a.Size != b.Size || a.N != b.N {
		return nil, fmt.Errorf("plan: zip on incompatible vectors")
	}
	if q.builder != "tiledvec" {
		return nil, fmt.Errorf("plan: vector zip builds a tiledvec, got %s", q.builder)
	}
	cell := compileCell2(s.GenA, s.GenB, s.Lets, s.ValExpr)
	n, size := a.N, a.Size

	j := dataflow.Join(a.Blocks, b.Blocks, a.Blocks.NumPartitions())
	blocks := dataflow.Map(j, func(p dataflow.Pair[int64, dataflow.JoinedPair[*linalg.Vector, *linalg.Vector]]) tiled.VBlock {
		out := linalg.NewVector(n)
		off := p.Key * int64(n)
		for i := 0; i < n; i++ {
			gi := off + int64(i)
			if gi >= size {
				break
			}
			out.Set(i, cell([]int64{gi}, p.Value.Left.At(i), p.Value.Right.At(i)))
		}
		return dataflow.KV(p.Key, out)
	})
	return &Result{Vector: &tiled.Vector{Size: size, N: n, Blocks: blocks}}, nil
}

// execGroupByJoin runs the Section 5.4 / 5.3 translations of
// join + group-by + aggregation queries (matrix multiplication shape).
// Non-standard orientations are normalized by transposing inputs
// (a narrow operation).
func (q *Compiled) execGroupByJoin(s *opt.GroupByJoinStrategy) (*Result, error) {
	a, err := q.cat.matrix(s.GenA.Name)
	if err != nil {
		return nil, err
	}
	b, err := q.cat.matrix(s.GenB.Name)
	if err != nil {
		return nil, err
	}
	if s.Monoid != "+" {
		return nil, fmt.Errorf("plan: group-by-join supports the + monoid, got %s", s.Monoid)
	}
	// Normalize to out = A' * B' with A' joined on columns, B' on rows.
	if s.JoinA == 0 {
		a = a.Transpose()
	}
	if s.JoinB == 1 {
		b = b.Transpose()
	}
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("plan: contracted dimensions differ: %d vs %d", a.Cols, b.Rows)
	}

	// The partition count is zero (the inputs') unless adaptive planning
	// picked one. The SUMMA grid is not passed down: GroupByJoin derives
	// it from the partition count it runs with, and the Decision's grid
	// is that same derivation, recorded for Explain.
	var pickedParts int
	if d := s.Decision; d != nil {
		pickedParts = d.Parts
	}

	if isMulOfValues(s.CombineExpr, s.Lets, s.GenA.ValueVar, s.GenB.ValueVar) {
		var out *tiled.Matrix
		switch {
		case s.UseGBJ:
			out = a.MultiplyGBJTuned(b, 0, 0, pickedParts)
		case s.UseReduceBy:
			out = a.Multiply(b)
		default:
			out = a.MultiplyGroupByKey(b)
		}
		return &Result{Matrix: out}, nil
	}

	// Generic combine h(a,b) with + monoid: same plans with an
	// interpreted contraction kernel.
	h := compileCell2(s.GenA, s.GenB, s.Lets, s.CombineExpr)
	contract := func(out, x, y *linalg.Dense) {
		for i := 0; i < x.Rows; i++ {
			for k := 0; k < x.Cols; k++ {
				a := x.At(i, k)
				for j := 0; j < y.Cols; j++ {
					out.Add(i, j, h(nil, a, y.At(k, j)))
				}
			}
		}
	}
	if s.UseGBJ {
		out := tiled.GroupByJoin(a, b, tiled.GBJSpec{
			Parts:   pickedParts,
			OutRows: a.Rows, OutCols: b.Cols,
			GroupsX: b.BlockCols(), GroupsY: a.BlockRows(),
			GX: func(c tiled.Coord) int64 { return c.I },
			KX: func(c tiled.Coord) int64 { return c.J },
			GY: func(c tiled.Coord) int64 { return c.J },
			KY: func(c tiled.Coord) int64 { return c.I },
			H: func(out, x, y *linalg.Dense, _ int) {
				// Interpreted kernel: serial regardless of budget.
				contract(out, x, y)
			},
		})
		return &Result{Matrix: out}, nil
	}
	// Join + reduceByKey with the interpreted kernel. Partial-product
	// tiles come from the context's tile pool and the dead reduce
	// operand goes back (same ownership argument as tiled.Multiply).
	parts := a.Tiles.NumPartitions()
	if pickedParts > 0 {
		parts = pickedParts
	}
	pool := a.Tiles.Context().TilePool()
	left := dataflow.Map(a.Tiles, func(t tiled.Block) dataflow.Pair[int64, tiled.Block] {
		return dataflow.KV(t.Key.J, t)
	})
	right := dataflow.Map(b.Tiles, func(t tiled.Block) dataflow.Pair[int64, tiled.Block] {
		return dataflow.KV(t.Key.I, t)
	})
	joined := dataflow.Join(left, right, parts)
	products := dataflow.Map(joined, func(p dataflow.Pair[int64, dataflow.JoinedPair[tiled.Block, tiled.Block]]) tiled.Block {
		at, bt := p.Value.Left, p.Value.Right
		c := pool.Get(a.N, a.N)
		contract(c, at.Value, bt.Value)
		return dataflow.KV(tiled.Coord{I: at.Key.I, J: bt.Key.J}, c)
	})
	var reduced *dataflow.Dataset[tiled.Block]
	if s.UseReduceBy {
		reduced = dataflow.ReduceByKey(products, func(x, y *linalg.Dense) *linalg.Dense {
			linalg.AddInPlace(x, y)
			pool.Put(y)
			return x
		}, parts)
	} else {
		grouped := dataflow.GroupByKey(products, parts)
		reduced = dataflow.Map(grouped, func(g dataflow.Pair[tiled.Coord, []*linalg.Dense]) tiled.Block {
			acc := pool.Get(a.N, a.N)
			for _, t := range g.Value {
				linalg.AddInPlace(acc, t)
			}
			return dataflow.KV(g.Key, acc)
		})
	}
	return &Result{Matrix: &tiled.Matrix{Rows: a.Rows, Cols: b.Cols, N: a.N, Tiles: reduced}}, nil
}

// aggMonoid resolves the scalar accumulation for TileAgg strategies.
func aggMonoid(name string) (zero float64, op func(a, b float64) float64, lift func(v float64) float64, err error) {
	switch name {
	case "+":
		return 0, func(a, b float64) float64 { return a + b }, func(v float64) float64 { return v }, nil
	case "count":
		return 0, func(a, b float64) float64 { return a + b }, func(float64) float64 { return 1 }, nil
	case "*":
		return 1, func(a, b float64) float64 { return a * b }, func(v float64) float64 { return v }, nil
	case "min":
		return inf, minF, func(v float64) float64 { return v }, nil
	case "max":
		return -inf, maxF, func(v float64) float64 { return v }, nil
	default:
		return 0, nil, nil, fmt.Errorf("plan: unsupported tile aggregation monoid %q", name)
	}
}

var inf = math.Inf(1)

func minF(a, b float64) float64 {
	if a <= b {
		return a
	}
	return b
}

func maxF(a, b float64) float64 {
	if a >= b {
		return a
	}
	return b
}

// aggBlock is the partial state of one output block position range:
// one accumulator vector per factored aggregation plus a touched mask
// (untouched positions finalize to the builder default 0, not the
// monoid identity).
type aggBlock struct {
	Accs    []*linalg.Vector
	Touched []bool
}

// NumBytes implements shuffle accounting.
func (a *aggBlock) NumBytes() int64 {
	var n int64
	for _, v := range a.Accs {
		n += v.NumBytes()
	}
	return n + int64(len(a.Touched))
}

// execTileAgg runs the Section 5.3 translation for single-input
// grouped aggregations (Figure 1 row sums): per-tile partial blocks —
// one accumulator per factored aggregation (Rule 12) — then
// reduceByKey (or groupByKey when Rule 13 is disabled) and a finalize
// pass evaluating the residual head expression.
func (q *Compiled) execTileAgg(s *opt.TileAggStrategy) (*Result, error) {
	m, err := q.cat.matrix(s.Gen.Name)
	if err != nil {
		return nil, err
	}
	if q.builder != "tiledvec" {
		return nil, fmt.Errorf("plan: grouped aggregation builds a tiledvec, got %s", q.builder)
	}
	if len(s.KeyPos) != 1 {
		return nil, fmt.Errorf("plan: tile aggregation supports one group key, got %d", len(s.KeyPos))
	}
	nAggs := len(s.Aggs)
	zeros := make([]float64, nAggs)
	ops := make([]func(a, b float64) float64, nAggs)
	lifts := make([]func(float64) float64, nAggs)
	cells := make([]cellFn1, nAggs)
	for i, a := range s.Aggs {
		zeros[i], ops[i], lifts[i], err = aggMonoid(a.Monoid)
		if err != nil {
			return nil, err
		}
		cells[i] = compileCell1(s.Gen, s.Lets, s.Filters, comp.Var{Name: a.Var})
	}
	byRow := s.KeyPos[0] == 0
	n, rows, cols := m.N, m.Rows, m.Cols
	parts := m.Tiles.NumPartitions()
	if d := s.Decision; d != nil && d.Parts > 0 {
		parts = d.Parts
	}

	newBlock := func() *aggBlock {
		b := &aggBlock{Accs: make([]*linalg.Vector, nAggs), Touched: make([]bool, n)}
		for i := range b.Accs {
			b.Accs[i] = linalg.NewVector(n)
			for j := range b.Accs[i].Data {
				b.Accs[i].Data[j] = zeros[i]
			}
		}
		return b
	}

	partials := dataflow.Map(m.Tiles, func(b tiled.Block) dataflow.Pair[int64, *aggBlock] {
		acc := newBlock()
		rowOff := b.Key.I * int64(n)
		colOff := b.Key.J * int64(n)
		for i := 0; i < n; i++ {
			gi := rowOff + int64(i)
			if gi >= rows {
				break
			}
			for j := 0; j < n; j++ {
				gj := colOff + int64(j)
				if gj >= cols {
					break
				}
				local := i
				if !byRow {
					local = j
				}
				for k := range s.Aggs {
					v, ok := cells[k]([]int64{gi, gj}, b.Value.At(i, j))
					if !ok {
						break // filters reject the element for all aggs
					}
					acc.Touched[local] = true
					acc.Accs[k].Data[local] = ops[k](acc.Accs[k].Data[local], lifts[k](v))
				}
			}
		}
		key := b.Key.I
		if !byRow {
			key = b.Key.J
		}
		return dataflow.KV(key, acc)
	})

	combine := func(x, y *aggBlock) *aggBlock {
		for k := range x.Accs {
			for i := range x.Accs[k].Data {
				x.Accs[k].Data[i] = ops[k](x.Accs[k].Data[i], y.Accs[k].Data[i])
			}
		}
		for i := range x.Touched {
			x.Touched[i] = x.Touched[i] || y.Touched[i]
		}
		return x
	}
	var reduced *dataflow.Dataset[dataflow.Pair[int64, *aggBlock]]
	if s.UseReduceBy {
		reduced = dataflow.ReduceByKey(partials, combine, parts)
	} else {
		grouped := dataflow.GroupByKey(partials, parts)
		reduced = dataflow.Map(grouped, func(g dataflow.Pair[int64, []*aggBlock]) dataflow.Pair[int64, *aggBlock] {
			acc := g.Value[0]
			for _, v := range g.Value[1:] {
				combine(acc, v)
			}
			return dataflow.KV(g.Key, acc)
		})
	}

	// Finalize: evaluate the residual expression per position with the
	// hole variables (and the group key) bound.
	scalars := q.cat.scalarEnv()
	aggs := s.Aggs
	final := s.FinalExpr
	keyVar := s.Gen.IndexVars[s.KeyPos[0]]
	blocks := dataflow.Map(reduced, func(p dataflow.Pair[int64, *aggBlock]) tiled.VBlock {
		out := linalg.NewVector(n)
		for i := 0; i < n; i++ {
			if !p.Value.Touched[i] {
				continue
			}
			env := scalars.Bind(keyVar, p.Key*int64(n)+int64(i))
			for k, a := range aggs {
				env = env.Bind(a.Hole, p.Value.Accs[k].Data[i])
			}
			out.Data[i] = comp.MustFloat(comp.EvalFast(final, env))
		}
		return dataflow.KV(p.Key, out)
	})
	size := rows
	if !byRow {
		size = cols
	}
	return &Result{Vector: &tiled.Vector{Size: size, N: n, Blocks: blocks}}, nil
}

// taggedTile is a tile replicated toward a destination coordinate by
// the Rule 19 translation, remembering its source coordinate.
type taggedTile struct {
	Src  tiled.Coord
	Tile *linalg.Dense
}

// NumBytes reports the real payload (coordinate + tile data) so the
// replication shuffle is not floored at the opaque 16-byte default.
func (t taggedTile) NumBytes() int64 { return 16 + t.Tile.NumBytes() }

// execReplicate runs the Rule 19 translation: each tile is shipped to
// the destination tile coordinates I_f(K) induced by the affine output
// key, the shuffled tiles are grouped by destination, and each output
// tile selects the elements that map into it.
func (q *Compiled) execReplicate(s *opt.ReplicateStrategy) (*Result, error) {
	m, err := q.cat.matrix(s.Gen.Name)
	if err != nil {
		return nil, err
	}
	if q.builder != "tiled" || len(q.dims) != 2 {
		return nil, fmt.Errorf("plan: replication strategy builds a tiled matrix")
	}
	outRows, outCols := q.dims[0], q.dims[1]
	// Map each output key component to its source index position.
	pos := make([]int, len(s.Keys))
	for c, k := range s.Keys {
		pos[c] = -1
		for i, v := range s.Gen.IndexVars {
			if v == k.Var {
				pos[c] = i
			}
		}
		if pos[c] < 0 {
			return nil, fmt.Errorf("plan: key variable %q not bound by generator", k.Var)
		}
	}
	apply := func(k opt.AffineKey, g int64) int64 {
		d := g + k.Off
		if k.Mod != 0 {
			d %= k.Mod
			if d < 0 {
				d += k.Mod
			}
		}
		return d
	}
	cell := compileCell1(s.Gen, s.Lets, s.Filters, s.ValExpr)
	n := m.N
	n64 := int64(n)
	rows, cols := m.Rows, m.Cols
	keys := s.Keys

	replicated := dataflow.FlatMap(m.Tiles, func(b tiled.Block) []dataflow.Pair[tiled.Coord, taggedTile] {
		// Per-axis destination tile sets I_f(K) (the paper's index
		// sets): each key component depends on one source axis.
		axisSets := make([]map[int64]bool, len(keys))
		for c, k := range keys {
			set := map[int64]bool{}
			var lo, hi int64
			if pos[c] == 0 {
				lo = b.Key.I * n64
				hi = min64(lo+n64, rows)
			} else {
				lo = b.Key.J * n64
				hi = min64(lo+n64, cols)
			}
			for g := lo; g < hi; g++ {
				d := apply(k, g)
				if d >= 0 && d < q.dims[c] {
					set[d/n64] = true
				}
			}
			axisSets[c] = set
		}
		var out []dataflow.Pair[tiled.Coord, taggedTile]
		for di := range axisSets[0] {
			for dj := range axisSets[1] {
				out = append(out, dataflow.KV(tiled.Coord{I: di, J: dj}, taggedTile{Src: b.Key, Tile: b.Value}))
			}
		}
		return out
	})
	grouped := dataflow.GroupByKey(replicated, m.Tiles.NumPartitions())
	tiles := dataflow.Map(grouped, func(g dataflow.Pair[tiled.Coord, []taggedTile]) tiled.Block {
		out := linalg.NewDense(n, n)
		for _, tt := range g.Value {
			rowOff := tt.Src.I * n64
			colOff := tt.Src.J * n64
			for i := 0; i < n; i++ {
				gi := rowOff + int64(i)
				if gi >= rows {
					break
				}
				for j := 0; j < n; j++ {
					gj := colOff + int64(j)
					if gj >= cols {
						break
					}
					gidx := [2]int64{gi, gj}
					d0 := apply(keys[0], gidx[pos[0]])
					d1 := apply(keys[1], gidx[pos[1]])
					if d0 < 0 || d0 >= outRows || d1 < 0 || d1 >= outCols {
						continue
					}
					if d0/n64 != g.Key.I || d1/n64 != g.Key.J {
						continue
					}
					v, ok := cell([]int64{gi, gj}, tt.Tile.At(i, j))
					if !ok {
						continue
					}
					out.Set(int(d0%n64), int(d1%n64), v)
				}
			}
		}
		return dataflow.KV(g.Key, out)
	})
	return &Result{Matrix: &tiled.Matrix{Rows: outRows, Cols: outCols, N: n, Tiles: tiles}}, nil
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// execTotalReduce evaluates ⊕/[ e | q ] by running the coordinate
// pipeline to produce the lifted values and aggregating them.
func (q *Compiled) execTotalReduce() (*Result, error) {
	vals, err := q.coordPipeline(q.info, true)
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

// execMatVec runs the matrix-vector instance of the group-by-join.
func (q *Compiled) execMatVec(s *opt.MatVecStrategy) (*Result, error) {
	m, err := q.cat.matrix(s.MatGen.Name)
	if err != nil {
		return nil, err
	}
	xv, ok := q.cat.vals[s.VecGen.Name].(*tiled.Vector)
	if !ok {
		return nil, fmt.Errorf("plan: %q is not a tiled vector", s.VecGen.Name)
	}
	if q.builder != "tiledvec" {
		return nil, fmt.Errorf("plan: matrix-vector product builds a tiledvec, got %s", q.builder)
	}
	if !isMulOfValues(s.CombineExpr, s.Lets, s.MatGen.ValueVar, s.VecGen.ValueVar) {
		return nil, fmt.Errorf("plan: matrix-vector kernel must be a product of the two values")
	}
	if s.JoinPos == 1 {
		return &Result{Vector: m.MatVec(xv)}, nil
	}
	return &Result{Vector: m.MatVecTrans(xv)}, nil
}
