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

// genSlots binds a generator's variables to kernel inputs: its element
// value to value slot val, a matrix's row index to index slot 0, and the
// column index — or a vector's only index — to slot 1, the one that
// advances along a row.
func genSlots(slots map[string]slot, g opt.ArrayGen, val int) {
	for p, v := range g.IndexVars {
		if len(g.IndexVars) == 1 {
			p = 1
		}
		slots[v] = slot{index: true, id: p, iota: p == 1}
	}
	slots[g.ValueVar] = slot{id: val}
}

// lower compiles the chosen strategy's expressions into what its executor
// runs — a tile strategy's row kernels, the coordinate strategy's plan —
// so an unbound variable or a type error is a Compile error and a cached
// plan carries its kernels.
func (q *Compiled) lower() (err error) {
	defer asError(&err, "kernel lowering")
	slots := map[string]slot{}
	switch s := q.strategy.(type) {
	case *opt.MapStrategy:
		genSlots(slots, s.Gen, 0)
		q.cell, err = lowerKernel(slots, s.Lets, s.Filters, s.ValExpr)
	case *opt.ReplicateStrategy:
		genSlots(slots, s.Gen, 0)
		q.cell, err = lowerKernel(slots, s.Lets, s.Filters, s.ValExpr)
	case *opt.ZipStrategy:
		genSlots(slots, s.GenA, 0)
		genSlots(slots, s.GenB, 1) // its indices equal GenA's via the join
		q.cell, err = lowerKernel(slots, s.Lets, nil, s.ValExpr)
	case *opt.TileAggStrategy:
		genSlots(slots, s.Gen, 0)
		vals := make([]comp.Expr, len(s.Aggs))
		holes := map[string]slot{}
		for i, a := range s.Aggs {
			vals[i] = comp.Var{Name: a.Var}
			holes[a.Hole] = slot{id: i}
		}
		for _, p := range s.KeyPos {
			holes[s.Gen.IndexVars[p]] = slot{index: true, id: 1, iota: true}
		}
		if q.cell, err = lowerKernel(slots, s.Lets, s.Filters, vals...); err == nil {
			q.final, err = lowerKernel(holes, nil, nil, s.FinalExpr)
		}
	case *opt.GroupByJoinStrategy:
		// Index slots i, k, j of op(A)[i,k]·op(B)[k,j]: the contraction
		// walks rows of op(B).
		i, ka := s.GenA.IndexVars[0], s.GenA.IndexVars[1]
		if s.TransA {
			i, ka = ka, i
		}
		kb, j := s.GenB.IndexVars[0], s.GenB.IndexVars[1]
		if s.TransB {
			kb, j = j, kb
		}
		slots[i], slots[j] = slot{index: true, id: 0}, slot{index: true, id: 2, iota: true}
		slots[ka], slots[kb] = slot{index: true, id: 1}, slot{index: true, id: 1}
		slots[s.GenA.ValueVar], slots[s.GenB.ValueVar] = slot{id: 0}, slot{id: 1}
		// The exact product a*b needs no kernel: it goes straight to GEMM.
		if h := inlineLets(s.CombineExpr, s.Lets); !isMulOfValues(h, s.GenA.ValueVar, s.GenB.ValueVar) {
			q.cell, err = lowerKernel(slots, nil, nil, h)
		}
	case *opt.MatVecStrategy:
		if !isMulOfValues(inlineLets(s.CombineExpr, s.Lets), s.MatGen.ValueVar, s.VecGen.ValueVar) {
			err = fmt.Errorf("plan: matrix-vector kernel must be a product of the two values")
		}
	case *opt.CoordStrategy:
		q.coord, err = q.planCoord()
	}
	return err
}

// tileSpan describes the tile at block coordinate key of a rows x cols
// array with tile size n to the row driver, clipped to the array's
// bounds. A vector block is the one-row tile (0, key) of a 1 x size
// array.
func tileSpan(key tiled.Coord, n int, rows, cols int64, dst []float64, src ...[]float64) span {
	return span{src: src, dst: dst, stride: n, gi: key.I * int64(n), gj: key.J * int64(n),
		h: clip(rows, key.I, n), w: clip(cols, key.J, n)}
}

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
	n, rows, cols := m.N, m.Rows, m.Cols
	if len(s.KeyPerm) != 2 || s.KeyPerm[0] != 1 {
		tiles := dataflow.Map(m.Tiles, func(b tiled.Block) tiled.Block {
			out := linalg.NewDense(n, n)
			q.cell.run(tileSpan(b.Key, n, rows, cols, out.Data, b.Value.Data), nil, nil)
			return dataflow.KV(b.Key, out)
		})
		return &Result{Matrix: &tiled.Matrix{Rows: rows, Cols: cols, N: n, Tiles: tiles}}, nil
	}
	// Swapped key (transposition): each source row is a strided copy down
	// an output column; the n rows of a tile revisit the same cache lines.
	tiles := dataflow.Map(m.Tiles, func(b tiled.Block) tiled.Block {
		out := linalg.NewDense(n, n)
		q.cell.run(tileSpan(b.Key, n, rows, cols, nil, b.Value.Data), nil, func(i, lo int, vals [][]float64, mask []bool) {
			col := out.Data[lo*n+i:]
			for j, v := range vals[0] {
				if mask == nil || mask[j] {
					col[j*n] = v
				}
			}
		})
		return dataflow.KV(tiled.Coord{I: b.Key.J, J: b.Key.I}, out)
	})
	return &Result{Matrix: &tiled.Matrix{Rows: cols, Cols: rows, N: n, Tiles: tiles}}, nil
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
	n, size := v.N, v.Size
	blocks := dataflow.Map(v.Blocks, func(b tiled.VBlock) tiled.VBlock {
		out := linalg.NewVector(n)
		q.cell.run(tileSpan(tiled.Coord{J: b.Key}, n, 1, size, out.Data, b.Value.Data), nil, nil)
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
	n, rows, cols := a.N, a.Rows, a.Cols

	j := dataflow.Join(a.Tiles, b.Tiles, a.Tiles.NumPartitions())
	tiles := dataflow.Map(j, func(p dataflow.Pair[tiled.Coord, dataflow.JoinedPair[*linalg.Dense, *linalg.Dense]]) tiled.Block {
		out := linalg.NewDense(n, n)
		q.cell.run(tileSpan(p.Key, n, rows, cols, out.Data, p.Value.Left.Data, p.Value.Right.Data), nil, nil)
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
	n, size := a.N, a.Size

	j := dataflow.Join(a.Blocks, b.Blocks, a.Blocks.NumPartitions())
	blocks := dataflow.Map(j, func(p dataflow.Pair[int64, dataflow.JoinedPair[*linalg.Vector, *linalg.Vector]]) tiled.VBlock {
		out := linalg.NewVector(n)
		q.cell.run(tileSpan(tiled.Coord{J: p.Key}, n, 1, size, out.Data, p.Value.Left.Data, p.Value.Right.Data), nil, nil)
		return dataflow.KV(p.Key, out)
	})
	return &Result{Vector: &tiled.Vector{Size: size, N: n, Blocks: blocks}}, nil
}

// execGroupByJoin runs the Section 5.4 / 5.3 translations of
// join + group-by + aggregation queries (matrix multiplication shape) as
// one tiled.Product, oriented by the strategy's flags: a transposed
// operand is read in place, never copied.
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
	prod := tiled.Product{TransA: s.TransA, TransB: s.TransB}
	rows, inner, cols, err := prod.Dims(a, b)
	if err != nil {
		return nil, err
	}
	// A combine that is exactly a*b contracts by GEMM; any other h(a,b) by
	// the compiled kernel over the in-bounds part of op(A) and op(B) at
	// output coordinate g and join key k.
	if n := a.N; q.cell != nil {
		prod.H = func(out, x, y *linalg.Dense, g tiled.Coord, k int64) {
			q.cell.contract(out.Data, x.Data, y.Data, s.TransA, s.TransB, n,
				g.I*int64(n), k*int64(n), g.J*int64(n), clip(rows, g.I, n), clip(inner, k, n), clip(cols, g.J, n))
		}
	}
	if s.UseGBJ {
		return &Result{Matrix: tiled.GroupByJoin(a, b, prod)}, nil
	}
	return &Result{Matrix: tiled.JoinMultiply(a, b, prod, s.UseReduceBy)}, nil
}

// aggMonoid is the scalar accumulation of one TileAgg aggregation.
type aggMonoid struct {
	zero float64
	op   func(a, b float64) float64 // nil when add
	add  bool                       // + and count: applied inline, not called
	one  bool                       // count: every element lifts to 1
}

func lookupAggMonoid(name string) (aggMonoid, error) {
	switch name {
	case "+":
		return aggMonoid{add: true}, nil
	case "count":
		return aggMonoid{add: true, one: true}, nil
	case "*":
		return aggMonoid{zero: 1, op: func(a, b float64) float64 { return a * b }}, nil
	case "min":
		return aggMonoid{zero: math.Inf(1), op: comp.MinFloat}, nil
	case "max":
		return aggMonoid{zero: math.Inf(-1), op: comp.MaxFloat}, nil
	}
	return aggMonoid{}, fmt.Errorf("plan: unsupported tile aggregation monoid %q", name)
}

// fold accumulates the live lanes of row v left to right: lane j into
// acc[j*step], so step 0 folds the row into one accumulator (group by
// row, or a total) and step 1 adds it to a row of accumulators (group by
// column). Rows arrive top to bottom — from the row driver, or straight
// from the tile for a pass-through kernel — which fixes every
// accumulator's fold order whatever the backend.
func (m *aggMonoid) fold(acc []float64, step int, v []float64, mask []bool) {
	switch {
	case mask != nil || !m.add:
		for j, x := range v {
			if mask == nil || mask[j] {
				if m.one {
					x = 1
				}
				if p := j * step; m.add {
					acc[p] += x
				} else {
					acc[p] = m.op(acc[p], x)
				}
			}
		}
	case m.one && step == 0:
		// Exact: a count is an integer below 2^53, so adding the row's
		// lanes at once gives the bits of adding 1 per lane.
		acc[0] += float64(len(v))
	case m.one:
		acc = acc[:len(v)]
		for j := range acc {
			acc[j]++
		}
	case step == 0:
		// In a register: a row sum is one dependent chain of adds, which
		// is unrolled, in order, so the chain's latency and not the loop
		// decides its speed. The five-instruction loop ran ~40 % slower
		// wherever the linker placed it across a 64-byte line.
		s := acc[0]
		for ; len(v) >= 4; v = v[4:] {
			s += v[0]
			s += v[1]
			s += v[2]
			s += v[3]
		}
		for _, x := range v {
			s += x
		}
		acc[0] = s
	default:
		acc = acc[:len(v)]
		for j, x := range v {
			acc[j] += x
		}
	}
}

// aggBlock is the partial state of one output block position range:
// one accumulator vector per factored aggregation plus a touched mask
// (untouched positions finalize to the builder default 0, not the
// monoid identity). A total's has one position and no mask.
type aggBlock struct {
	Accs    []*linalg.Vector
	Touched []bool
}

// newAggBlock is a partial of n positions with every accumulator at its
// monoid's identity.
func newAggBlock(ms []aggMonoid, n int, touched bool) *aggBlock {
	acc := &aggBlock{Accs: make([]*linalg.Vector, len(ms))}
	if touched {
		acc.Touched = make([]bool, n)
	}
	for k, m := range ms {
		acc.Accs[k] = linalg.NewVector(n)
		if m.zero != 0 {
			for j := range acc.Accs[k].Data {
				acc.Accs[k].Data[j] = m.zero
			}
		}
	}
	return acc
}

// merge folds partial b into a.
func (a *aggBlock) merge(ms []aggMonoid, b *aggBlock) *aggBlock {
	for k, m := range ms {
		x, y := a.Accs[k].Data, b.Accs[k].Data
		y = y[:len(x)]
		if m.add {
			for i := range x {
				x[i] += y[i]
			}
			continue
		}
		for i := range x {
			x[i] = m.op(x[i], y[i])
		}
	}
	for i := range a.Touched {
		a.Touched[i] = a.Touched[i] || b.Touched[i]
	}
	return a
}

// grouping says where a row's lanes fold: all into one accumulator (a
// total), into the row's own (group by row), or each into its column's
// (group by column).
type grouping uint8

const (
	groupTotal grouping = iota
	groupRow
	groupCol
)

// at is where row i's lanes fold, the first at column lo: the first
// lane's accumulator p, and the stride between lanes' (aggMonoid.fold).
func (g grouping) at(i, lo int) (p, step int) {
	switch g {
	case groupRow:
		return i, 0
	case groupCol:
		return lo, 1
	}
	return 0, 0
}

// fold folds kernel k's values over span s into the partial, marking the
// positions a live lane reached. A pass-through kernel's values are the
// tile's own rows, so they go straight from the tile to aggMonoid.fold —
// the rows, row order and accumulators the row driver would hand over,
// with every lane live.
func (a *aggBlock) fold(k *kernel, ms []aggMonoid, g grouping, s span) {
	if !k.pass {
		k.run(s, nil, func(i, lo int, vals [][]float64, mask []bool) { a.add(ms, g, i, lo, vals, mask) })
		return
	}
	if s.h == 0 || s.w == 0 {
		return
	}
	if a.Touched != nil {
		reached := s.h // the rows; grouped by column, the columns
		if g == groupCol {
			reached = s.w
		}
		for j := range a.Touched[:reached] {
			a.Touched[j] = true
		}
	}
	for i := 0; i < s.h; i++ {
		off := i * s.stride
		p, step := g.at(i, 0)
		for e, v := range k.vals {
			ms[e].fold(a.Accs[e].Data[p:], step, s.src[v.slot.id][off:off+s.w], nil)
		}
	}
}

// add folds one row the row driver hands over: row i's live lanes (mask;
// nil = all), the first at column lo.
func (a *aggBlock) add(ms []aggMonoid, g grouping, i, lo int, vals [][]float64, mask []bool) {
	p, step := g.at(i, lo)
	switch {
	case a.Touched == nil:
	case mask == nil && step == 0:
		a.Touched[p] = true
	default:
		for j := range vals[0] {
			if mask == nil || mask[j] {
				a.Touched[p+j*step] = true
			}
		}
	}
	for e, v := range vals {
		ms[e].fold(a.Accs[e].Data[p:], step, v, mask)
	}
}

// data lists the accumulators' rows, the finalize kernel's value slots.
func (a *aggBlock) data() [][]float64 {
	out := make([][]float64, len(a.Accs))
	for k, v := range a.Accs {
		out[k] = v.Data
	}
	return out
}

// width is the number of positions the partial holds.
func (a *aggBlock) width() int {
	if len(a.Accs) == 0 {
		return 0
	}
	return len(a.Accs[0].Data)
}

// execTileAgg runs the Section 5.3 translation for single-input
// grouped aggregations (Figure 1 row sums): per-tile partial blocks —
// one accumulator per factored aggregation (Rule 12) — then
// reduceByKey (or groupByKey when Rule 13 is disabled) and a finalize
// pass evaluating the residual head expression. The empty key is a
// total (execTotalAgg).
func (q *Compiled) execTileAgg(s *opt.TileAggStrategy) (*Result, error) {
	monoids := make([]aggMonoid, len(s.Aggs))
	for i, a := range s.Aggs {
		var err error
		if monoids[i], err = lookupAggMonoid(a.Monoid); err != nil {
			return nil, err
		}
	}
	if len(s.KeyPos) == 0 {
		return q.execTotalAgg(s, monoids)
	}
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
	byRow, g := s.KeyPos[0] == 0, groupRow
	if !byRow {
		g = groupCol
	}
	n, rows, cols := m.N, m.Rows, m.Cols
	parts := m.Tiles.NumPartitions()

	partials := dataflow.Map(m.Tiles, func(b tiled.Block) dataflow.Pair[int64, *aggBlock] {
		acc := newAggBlock(monoids, n, true)
		key := b.Key.I
		if !byRow {
			key = b.Key.J
		}
		acc.fold(q.cell, monoids, g, tileSpan(b.Key, n, rows, cols, nil, b.Value.Data))
		return dataflow.KV(key, acc)
	})

	combine := func(x, y *aggBlock) *aggBlock { return x.merge(monoids, y) }
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

	// Finalize: the residual expression over the accumulators (the hole
	// variables) and the group key, at the positions some element reached.
	blocks := dataflow.Map(reduced, func(p dataflow.Pair[int64, *aggBlock]) tiled.VBlock {
		out := linalg.NewVector(n)
		q.final.run(span{src: p.Value.data(), dst: out.Data, stride: n, gj: p.Key * int64(n), h: 1, w: n},
			func(int) []bool { return p.Value.Touched }, nil)
		return dataflow.KV(p.Key, out)
	})
	size := rows
	if !byRow {
		size = cols
	}
	return &Result{Vector: &tiled.Vector{Size: size, N: n, Blocks: blocks}}, nil
}

// execTotalAgg runs a tile aggregation with the empty key, a total
// ⊕/[ e | p <- X, ... ]: one Aggregate action over X's tiles (a vector's
// blocks as one-row tiles) and no shuffle. Each partition's task continues
// one running fold across its tiles in the order Sparsify lists their
// elements — rows top to bottom, lanes left to right, filtered lanes
// skipped — and the partials merge in partition order: the association of
// the coordinate path's Aggregate, so the answer has its bits. The finalize
// runs once over the merged accumulators, and the value has comp's type:
// int64 for count, float64 otherwise (a min or max of floats is ±Inf over
// nothing).
func (q *Compiled) execTotalAgg(s *opt.TileAggStrategy, ms []aggMonoid) (*Result, error) {
	var acc *aggBlock
	switch x := q.cat.vals[s.Gen.Name].(type) {
	case *tiled.Matrix:
		acc = foldTotal(q.cell, ms, x.Tiles, func(b tiled.Block) span {
			return tileSpan(b.Key, x.N, x.Rows, x.Cols, nil, b.Value.Data)
		})
	case *tiled.Vector:
		acc = foldTotal(q.cell, ms, x.Blocks, func(b tiled.VBlock) span {
			return tileSpan(tiled.Coord{J: b.Key}, x.N, 1, x.Size, nil, b.Value.Data)
		})
	default:
		return nil, fmt.Errorf("plan: %q is not a distributed array", s.Gen.Name)
	}
	if acc == nil { // no partitions
		acc = newAggBlock(ms, 1, false)
	}
	var v [1]float64
	q.final.run(span{src: acc.data(), dst: v[:], stride: 1, h: 1, w: 1}, nil, nil)
	if q.reduce == "count" {
		return &Result{Scalar: int64(v[0])}, nil
	}
	return &Result{Scalar: v[0]}, nil
}

// foldTotal is execTotalAgg's action over one array's tiles: each tile's
// rows fold into the partition's running total through aggBlock.fold —
// straight from the tile for a pass-through kernel (+/a, count/a, avg/a),
// through the row driver otherwise, in the same row order either way. A
// partition with no tiles has a nil partial, which merges as the identity.
func foldTotal[T any](k *kernel, ms []aggMonoid, tiles *dataflow.Dataset[T], spanOf func(T) span) *aggBlock {
	return dataflow.Aggregate(tiles, nil, func(acc *aggBlock, t T) *aggBlock {
		if acc == nil {
			acc = newAggBlock(ms, 1, false)
		}
		acc.fold(k, ms, groupTotal, spanOf(t))
		return acc
	}, func(x, y *aggBlock) *aggBlock {
		if x == nil {
			return y
		}
		if y == nil {
			return x
		}
		return x.merge(ms, y)
	})
}

// taggedTile is a tile replicated toward a destination coordinate by
// the Rule 19 translation, remembering its source coordinate.
type taggedTile struct {
	Src  tiled.Coord
	Tile *linalg.Dense
}

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
				hi = min(lo+n64, rows)
			} else {
				lo = b.Key.J * n64
				hi = min(lo+n64, cols)
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
		want := [2]int64{g.Key.I, g.Key.J}
		var to [2][]int64 // per key component: offset along its source axis -> position in this tile, or -1
		to[0], to[1] = make([]int64, n), make([]int64, n)
		live := make([]bool, n)
		for _, tt := range g.Value {
			sp := tileSpan(tt.Src, n, rows, cols, nil, tt.Tile.Data)
			for c, k := range keys {
				base := [2]int64{sp.gi, sp.gj}[pos[c]]
				for t := range to[c] {
					d := apply(k, base+int64(t))
					if to[c][t] = d % n64; d < 0 || d >= q.dims[c] || d/n64 != want[c] {
						to[c][t] = -1
					}
				}
			}
			// at maps a key component to its destination position for
			// element (i, j).
			at := func(c, i, j int) int64 { return to[c][[2]int{i, j}[pos[c]]] }
			q.cell.run(sp, func(i int) []bool {
				for j := range live[:sp.w] {
					live[j] = at(0, i, j) >= 0 && at(1, i, j) >= 0
				}
				return live
			}, func(i, lo int, vals [][]float64, mask []bool) {
				for j, v := range vals[0] {
					if mask[j] {
						out.Data[at(0, i, lo+j)*n64+at(1, i, lo+j)] = v
					}
				}
			})
		}
		return dataflow.KV(g.Key, out)
	})
	return &Result{Matrix: &tiled.Matrix{Rows: outRows, Cols: outCols, N: n, Tiles: tiles}}, nil
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
	return &Result{Vector: m.MatVecOp(xv, s.Trans)}, nil
}
