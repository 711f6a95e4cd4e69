package plan

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/linalg"
	"repro/internal/opt"
	"repro/internal/sacparser"
	"repro/internal/tiled"
)

// rowDriven sends every kernel of q through the row driver (kernel.row per
// tile row), the path a pass-through kernel skips.
func rowDriven(q *Compiled) {
	for _, k := range []*kernel{q.cell, q.final} {
		if k != nil {
			k.pass = false
		}
	}
}

// resultBits flattens a result: a vector's or matrix's row-major values,
// or the scalar.
func resultBits(r *Result) []any {
	var d []float64
	switch {
	case r.Vector != nil:
		d = r.Vector.ToDense().Data
	case r.Matrix != nil:
		d = r.Matrix.ToDense().Data
	default:
		return []any{r.Scalar}
	}
	out := make([]any, len(d))
	for x, v := range d {
		out[x] = v
	}
	return out
}

// TestPassThroughMatchesRowDriver: a kernel that only passes a generator
// value through (+/a, count/a, avg/a's (+/a, count/a), a bare map or
// transpose) skips the row driver, and its result has the row driver's
// bits — every monoid grouped by row, by column and as a total, and the
// maps, over clipped edge tiles, one-row and one-column matrices, a
// vector and tile 1, with NaN, -0 and ±Inf cells. A total also has the
// coordinate path's bits.
func TestPassThroughMatchesRowDriver(t *testing.T) {
	type input struct {
		name       string
		rows, cols int
		tile       int
	}
	data := func(r, c int) *linalg.Dense {
		d := linalg.RandDense(r, c, -3, 5, int64(r*31+c))
		special := []float64{math.NaN(), math.Copysign(0, -1), math.Inf(1), math.Inf(-1)}
		for x := range d.Data {
			if x%11 == 2 {
				d.Data[x] = special[x/11%len(special)]
			}
		}
		// A row of -0 only: a sum started at its first cell and not at
		// the accumulator's +0 keeps the -0.
		if r > 3 {
			for j := 0; j < c; j++ {
				d.Set(3, j, math.Copysign(0, -1))
			}
		}
		return d
	}
	monoids := []string{"+", "*", "count", "min", "max", "avg"}
	for _, in := range []input{{"13x7", 13, 7, 4}, {"1x9", 1, 9, 4}, {"5x1", 5, 1, 4}, {"13x7-tile1", 13, 7, 1}} {
		ctx := dataflow.NewContext(dataflow.Config{Parallelism: 2})
		d := data(in.rows, in.cols)
		v := linalg.NewVector(9)
		copy(v.Data, data(1, 9).Data)
		cat := NewCatalog(ctx).
			BindMatrix("A", tiled.FromDense(ctx, d, in.tile, 3)).
			BindVector("V", tiled.VectorFromDense(ctx, v, in.tile, 2))
		var srcs []string
		for _, m := range monoids {
			srcs = append(srcs,
				fmt.Sprintf("tiledvec(%d)[ (i, %s/a) | ((i,j),a) <- A, group by i ]", in.rows, m),
				fmt.Sprintf("tiledvec(%d)[ (j, %s/a) | ((i,j),a) <- A, group by j ]", in.cols, m),
				fmt.Sprintf("%s/[ a | ((i,j),a) <- A ]", m),
				fmt.Sprintf("%s/[ a | (i,a) <- V ]", m))
		}
		srcs = append(srcs,
			fmt.Sprintf("tiled(%d,%d)[ ((i,j), a) | ((i,j),a) <- A ]", in.rows, in.cols),
			fmt.Sprintf("tiled(%d,%d)[ ((j,i), a) | ((i,j),a) <- A ]", in.cols, in.rows),
			fmt.Sprintf("tiled(%d,%d)[ (((i+1)%%%d, j), a) | ((i,j),a) <- A ]", in.rows, in.cols, in.rows),
			"tiledvec(9)[ (i, a) | (i,a) <- V ]")
		for _, src := range srcs {
			desc := fmt.Sprintf("%s (%s tile %d)", src, in.name, in.tile)
			got, q := compileRun(t, cat, src, opt.Options{})
			if q.cell == nil || !q.cell.pass {
				t.Fatalf("%s: %s does not pass through", desc, q.Explain())
			}
			slow, err := Compile(sacparser.MustParse(src), cat, opt.Options{})
			if err != nil {
				t.Fatal(err)
			}
			rowDriven(slow)
			want, err := slow.Execute()
			if err != nil {
				t.Fatal(err)
			}
			g, w := resultBits(got), resultBits(want)
			if len(g) != len(w) {
				t.Fatalf("%s: %d values, the row driver %d", desc, len(g), len(w))
			}
			for x := range w {
				if !sameValue(g[x], w[x]) {
					t.Fatalf("%s: at %d %v, the row driver %v\n%v\n%v", desc, x, g[x], w[x], g, w)
				}
			}
			if got.Vector == nil && got.Matrix == nil {
				coord, _ := compileRun(t, cat, src, opt.Options{DisableTilingPreservation: true})
				if !sameValue(got.Scalar, coord.Scalar) {
					t.Fatalf("%s: %v, the coordinate path %v", desc, got.Scalar, coord.Scalar)
				}
			}
		}
		ctx.Close()
	}
}

// TestPassThroughHeads: which tile aggregations skip the row driver — a
// bare value under +, count or avg, also through a let that only renames
// it — and which stay on it: a computed value, a guard, a head reading an
// index, a let that computes.
func TestPassThroughHeads(t *testing.T) {
	ctx := dataflow.NewLocalContext()
	defer ctx.Close()
	cat := NewCatalog(ctx).BindMatrix("A", tiled.FromDense(ctx, linalg.RandDense(6, 5, -3, 5, 51), 2, 3))
	grouped := func(head, quals string) string {
		return fmt.Sprintf("tiledvec(6)[ (i, %s) | ((i,j),a) <- A%s, group by i ]", head, quals)
	}
	for _, c := range []struct {
		src  string
		pass bool
	}{
		{grouped("+/a", ""), true},
		{grouped("count/a", ""), true},
		{grouped("avg/a", ""), true},
		{grouped("+/v", ", let v = a"), true},
		{"+/[ a | ((i,j),a) <- A ]", true},
		{"+/[ a*2.0 | ((i,j),a) <- A ]", false},
		{grouped("+/a", ", a > 0.0"), false},
		{grouped("+/j", ""), false},
		{grouped("+/v", ", let v = a*2.0"), false},
	} {
		_, q := compileRun(t, cat, c.src, opt.Options{})
		if q.strategy.Kind() != "tile-aggregate" {
			t.Fatalf("%s: %s", c.src, q.Explain())
		}
		if q.cell.pass != c.pass {
			t.Errorf("%s: pass-through %v, want %v", c.src, q.cell.pass, c.pass)
		}
	}
}
