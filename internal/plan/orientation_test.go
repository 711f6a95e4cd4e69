package plan

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/linalg"
	"repro/internal/opt"
	"repro/internal/sacparser"
	"repro/internal/tiled"
)

// productStrategies are the three physical plans of a 2-D contraction.
var productStrategies = []struct {
	name string
	opts opt.Options
}{
	{"gbj", opt.Options{}},
	{"join+reduceByKey", opt.Options{DisableGBJ: true}},
	{"join+groupByKey", opt.Options{DisableGBJ: true, DisableReduceByKey: true}},
}

// productSrc is the contraction of A and B with combine h, the operands
// bound as ga and gb ("(i,k)" or "(k,i)", "(kk,j)" or "(j,kk)").
func productSrc(rows, cols int, ga, gb, h string) string {
	return fmt.Sprintf("tiled(%d,%d)[ ((i,j), +/v) | (%s,a) <- A, (%s,b) <- B, kk == k, let v = %s, group by (i,j) ]",
		rows, cols, ga, gb, h)
}

// runProduct compiles and forces src over A and B on a context with the
// given memory budget (0: none) and returns the dense result.
func runProduct(t *testing.T, src string, opts opt.Options, budget int64, da, db *linalg.Dense, tile int) *linalg.Dense {
	t.Helper()
	ctx := dataflow.NewContext(dataflow.Config{Parallelism: 4, DefaultPartitions: 5, MemoryBudget: budget})
	defer func() {
		if err := ctx.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	cat := NewCatalog(ctx).
		BindMatrix("A", tiled.FromDense(ctx, da, tile, 5)).
		BindMatrix("B", tiled.FromDense(ctx, db, tile, 5))
	q, err := Compile(sacparser.MustParse(src), cat, opts)
	if err != nil {
		t.Fatalf("compile %s: %v", src, err)
	}
	if _, ok := q.strategy.(*opt.GroupByJoinStrategy); !ok {
		t.Fatalf("%s: strategy %s, want a group-by-join", src, q.Explain())
	}
	res, err := q.Execute()
	if err != nil {
		t.Fatalf("execute %s: %v", src, err)
	}
	out := res.Matrix.ToDense()
	if budget > 0 && ctx.Metrics().SpilledBytes == 0 {
		t.Fatalf("%s: nothing spilled under a %d-byte budget", src, budget)
	}
	return out
}

// TestProductOrientation: each orientation of the contraction — NN, TN
// (A bound as (k,i)), NT (B bound as (j,kk)) and TT — under every
// strategy, for the GEMM product and a combine the kernel contracts, in
// memory and spilling, gives the bits of the untransposed query over
// tiled.Transpose()d inputs: reading an operand through its orientation
// is the same arithmetic as multiplying its transposed copy.
func TestProductOrientation(t *testing.T) {
	const m, k, n, tile = 7, 5, 6, 2 // ragged: every edge tile is clipped
	da := linalg.RandDense(m, k, -1, 1, 61)
	db := linalg.RandDense(k, n, -1, 1, 62)
	for _, o := range []struct {
		name           string
		transA, transB bool
	}{{"NN", false, false}, {"TN", true, false}, {"NT", false, true}, {"TT", true, true}} {
		ga, ra := "(i,k)", da
		if o.transA {
			ga, ra = "(k,i)", da.Transpose()
		}
		gb, rb := "(kk,j)", db
		if o.transB {
			gb, rb = "(j,kk)", db.Transpose()
		}
		for _, h := range []string{"a*b", "a*b*float(k)"} {
			src := productSrc(m, n, ga, gb, h)
			ref := productSrc(m, n, "(i,k)", "(kk,j)", h)
			for _, s := range productStrategies {
				for _, budget := range []int64{0, 256} {
					label := fmt.Sprintf("%s %s %s budget %d", o.name, h, s.name, budget)
					// The reference binds the stored transposes and runs NN.
					want := runProduct(t, ref, s.opts, budget, da, db, tile)
					got := runProduct(t, src, s.opts, budget, ra, rb, tile)
					if got.Rows != m || got.Cols != n {
						t.Fatalf("%s: result %dx%d, want %dx%d", label, got.Rows, got.Cols, m, n)
					}
					for x := range want.Data {
						if !sameBits(got.Data[x], want.Data[x]) {
							t.Fatalf("%s: element (%d,%d) is %v, the transposed-input route's %v",
								label, x/n, x%n, got.Data[x], want.Data[x])
						}
					}
				}
			}
		}
	}
}

// TestProductMixedTileSizes: operands tiled at different sizes are an
// error Execute returns — not a panic it recovers — before any stage
// runs, the same one for every strategy and combine, naming both tile
// sizes. A kernel-contracted group-by-join used to run and return wrong
// tiles.
func TestProductMixedTileSizes(t *testing.T) {
	ctx := dataflow.NewLocalContext()
	cat := NewCatalog(ctx).
		BindMatrix("A", tiled.FromDense(ctx, linalg.RandDense(6, 6, 0, 5, 1), 2, 3)).
		BindMatrix("B", tiled.FromDense(ctx, linalg.RandDense(6, 6, 0, 5, 2), 3, 3))
	var first string
	for _, h := range []string{"a*b", "a*b+1.0"} {
		for _, s := range productStrategies {
			src := productSrc(6, 6, "(i,k)", "(kk,j)", h)
			q, err := Compile(sacparser.MustParse(src), cat, s.opts)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			_, err = q.Execute()
			if err == nil || !strings.Contains(err.Error(), "tile sizes 2 and 3") || strings.Contains(err.Error(), "execution failed") {
				t.Fatalf("%s %s: Execute returned %v, want a shape error naming both tile sizes", s.name, h, err)
			}
			if first == "" {
				first = err.Error()
			} else if err.Error() != first {
				t.Fatalf("%s %s: error %q differs from %q", s.name, h, err, first)
			}
		}
	}
	if st := ctx.Metrics().Stages; st != 0 {
		t.Fatalf("%d stages ran before the shape check failed", st)
	}
}
