package plan

import (
	"fmt"
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

// The storage-independence invariant, fuzzed: for randomly sized
// matrices, random tile sizes, and a family of randomly parameterized
// queries, the distributed block plans must agree with the single-node
// reference evaluator — whatever strategy the optimizer picks.
func TestFuzzDistributedMatchesLocal(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	const rounds = 150

	type queryGen struct {
		name string
		gen  func(n, m int) (distSrc, localSrc string)
	}
	gens := []queryGen{
		{"scale", func(n, m int) (string, string) {
			c := 1 + rng.Intn(5)
			q := "[ ((i,j), a * %d.0) | ((i,j),a) <- A ]"
			return fmt.Sprintf("tiled(%d,%d)"+q, n, m, c), fmt.Sprintf("matrix(%d,%d)"+q, n, m, c)
		}},
		{"offset", func(n, m int) (string, string) {
			q := "[ ((i,j), a + 1.5) | ((i,j),a) <- A ]"
			return fmt.Sprintf("tiled(%d,%d)"+q, n, m), fmt.Sprintf("matrix(%d,%d)"+q, n, m)
		}},
		{"transpose", func(n, m int) (string, string) {
			q := "[ ((j,i), a) | ((i,j),a) <- A ]"
			return fmt.Sprintf("tiled(%d,%d)"+q, m, n), fmt.Sprintf("matrix(%d,%d)"+q, m, n)
		}},
		{"add", func(n, m int) (string, string) {
			q := "[ ((i,j), a+b) | ((i,j),a) <- A, ((ii,jj),b) <- B, ii == i, jj == j ]"
			return fmt.Sprintf("tiled(%d,%d)"+q, n, m), fmt.Sprintf("matrix(%d,%d)"+q, n, m)
		}},
		{"hadamard", func(n, m int) (string, string) {
			q := "[ ((i,j), a*b) | ((i,j),a) <- A, ((ii,jj),b) <- B, ii == i, jj == j ]"
			return fmt.Sprintf("tiled(%d,%d)"+q, n, m), fmt.Sprintf("matrix(%d,%d)"+q, n, m)
		}},
		{"rotate", func(n, m int) (string, string) {
			off := 1 + rng.Intn(3)
			q := "[ (((i+%d) %% %d, j), a) | ((i,j),a) <- A ]"
			return fmt.Sprintf("tiled(%d,%d)"+q, n, m, off, n), fmt.Sprintf("matrix(%d,%d)"+q, n, m, off, n)
		}},
		{"shift-drop", func(n, m int) (string, string) {
			q := "[ ((i, j+1), a) | ((i,j),a) <- A ]"
			return fmt.Sprintf("tiled(%d,%d)"+q, n, m), fmt.Sprintf("matrix(%d,%d)"+q, n, m)
		}},
		{"rowsum", func(n, m int) (string, string) {
			q := "[ (i, +/a) | ((i,j),a) <- A, group by i ]"
			return fmt.Sprintf("tiledvec(%d)"+q, n), fmt.Sprintf("vector(%d)"+q, n)
		}},
		{"colmax", func(n, m int) (string, string) {
			q := "[ (j, max/a) | ((i,j),a) <- A, group by j ]"
			return fmt.Sprintf("tiledvec(%d)"+q, m), fmt.Sprintf("vector(%d)"+q, m)
		}},
		{"rule15", func(n, m int) (string, string) {
			q := "[ ((i,j), +/a) | ((i,j),a) <- A, group by (i,j) ]"
			return fmt.Sprintf("tiled(%d,%d)"+q, n, m), fmt.Sprintf("matrix(%d,%d)"+q, n, m)
		}},
		{"filtered", func(n, m int) (string, string) {
			q := "[ ((i,j), a) | ((i,j),a) <- A, a > 2.5 ]"
			return fmt.Sprintf("tiled(%d,%d)"+q, n, m), fmt.Sprintf("matrix(%d,%d)"+q, n, m)
		}},
		// Heads and guards that read the indices: the kernel compiler
		// materializes index rows, hoists index-only guards, and keeps
		// what it cannot type as an opaque leaf.
		{"index-head", func(n, m int) (string, string) {
			q := "[ ((i,j), a*i+j) | ((i,j),a) <- A ]"
			return fmt.Sprintf("tiled(%d,%d)"+q, n, m), fmt.Sprintf("matrix(%d,%d)"+q, n, m)
		}},
		{"index-mod-transposed", func(n, m int) (string, string) {
			q := "[ ((j,i), (i+j) %% 3) | ((i,j),a) <- A ]"
			return fmt.Sprintf("tiled(%d,%d)"+q, m, n), fmt.Sprintf("matrix(%d,%d)"+q, m, n)
		}},
		{"index-guards", func(n, m int) (string, string) {
			q := fmt.Sprintf("[ ((i,j), a+b) | ((i,j),a) <- A, i >= %d, j < %d, i != j, let b = if(j > 0, i / j, 0) ]",
				rng.Intn(n), 1+rng.Intn(m))
			return fmt.Sprintf("tiled(%d,%d)"+q, n, m), fmt.Sprintf("matrix(%d,%d)"+q, n, m)
		}},
		{"opaque-head", func(n, m int) (string, string) {
			q := "[ ((i,j), min(i, 2.5) * a) | ((i,j),a) <- A ]"
			return fmt.Sprintf("tiled(%d,%d)"+q, n, m), fmt.Sprintf("matrix(%d,%d)"+q, n, m)
		}},
		{"index-colsum", func(n, m int) (string, string) {
			q := "[ (j, +/v) | ((i,j),a) <- A, i %% 2 == 0, let v = a*i, group by j ]"
			return fmt.Sprintf("tiledvec(%d)"+q, m), fmt.Sprintf("vector(%d)"+q, m)
		}},
		{"index-shifted", func(n, m int) (string, string) {
			q := "[ ((i, j+1), a*j) | ((i,j),a) <- A, i > 0 ]"
			return fmt.Sprintf("tiled(%d,%d)"+q, n, m), fmt.Sprintf("matrix(%d,%d)"+q, n, m)
		}},
		// Totals (a tile aggregation with the empty key), avg, and a group
		// key the head shifts (the coordinate path's: the tile aggregation
		// writes group i at position i).
		{"filtered-total", func(n, m int) (string, string) {
			q := fmt.Sprintf("%s/[ a | ((i,j),a) <- A, a > 2.5, j != %d ]", []string{"+", "min", "count"}[rng.Intn(3)], rng.Intn(m))
			return q, q
		}},
		{"rowavg", func(n, m int) (string, string) {
			q := "[ (i, avg/a) | ((i,j),a) <- A, group by i ]"
			return fmt.Sprintf("tiledvec(%d)"+q, n), fmt.Sprintf("vector(%d)"+q, n)
		}},
		{"colavg", func(n, m int) (string, string) {
			q := "[ (j, avg/a) | ((i,j),a) <- A, a < 4.0, group by j ]"
			return fmt.Sprintf("tiledvec(%d)"+q, m), fmt.Sprintf("vector(%d)"+q, m)
		}},
		{"shifted-key", func(n, m int) (string, string) {
			q := "[ (i+1, +/a) | ((i,j),a) <- A, group by i ]"
			return fmt.Sprintf("tiledvec(%d)"+q, n), fmt.Sprintf("vector(%d)"+q, n)
		}},
	}

	for round := 0; round < rounds; round++ {
		n := 2 + rng.Intn(7)
		m := 2 + rng.Intn(7)
		tile := 1 + rng.Intn(4)
		parts := 1 + rng.Intn(4)
		g := gens[rng.Intn(len(gens))]
		distSrc, localSrc := g.gen(n, m)

		da := linalg.RandDense(n, m, 0, 5, rng.Int63())
		db := linalg.RandDense(n, m, 0, 5, rng.Int63())

		ctx := dataflow.NewLocalContext()
		cat := NewCatalog(ctx).
			BindMatrix("A", tiled.FromDense(ctx, da, tile, parts)).
			BindMatrix("B", tiled.FromDense(ctx, db, tile, parts))

		res, err := Run(sacparser.MustParse(distSrc), cat, opt.Options{})
		if err != nil {
			t.Fatalf("round %d (%s, n=%d m=%d tile=%d): %v\nquery: %s",
				round, g.name, n, m, tile, err, distSrc)
		}

		env := (*comp.Env)(nil).
			Bind("A", comp.MatrixStorage{M: da}).
			Bind("B", comp.MatrixStorage{M: db})
		want, err := comp.Eval(comp.Desugar(sacparser.MustParse(localSrc)), env)
		if err != nil {
			t.Fatalf("round %d local eval: %v", round, err)
		}

		switch w := want.(type) {
		case comp.MatrixStorage:
			if res.Matrix == nil {
				t.Fatalf("round %d (%s): expected matrix result", round, g.name)
			}
			if !res.Matrix.ToDense().EqualApprox(w.M, 1e-9) {
				t.Fatalf("round %d (%s, n=%d m=%d tile=%d parts=%d) diverged\nquery: %s\ndist:\n%v\nlocal:\n%v",
					round, g.name, n, m, tile, parts, distSrc, res.Matrix.ToDense(), w.M)
			}
		case comp.VectorStorage:
			if res.Vector == nil {
				t.Fatalf("round %d (%s): expected vector result", round, g.name)
			}
			if !res.Vector.ToDense().EqualApprox(w.V, 1e-9) {
				t.Fatalf("round %d (%s) diverged\nquery: %s\ndist: %v\nlocal: %v",
					round, g.name, distSrc, res.Vector.ToDense().Data, w.V.Data)
			}
		case float64, int64:
			if fmt.Sprintf("%T", res.Scalar) != fmt.Sprintf("%T", w) || !approxValue(res.Scalar, w) {
				t.Fatalf("round %d (%s) diverged\nquery: %s\ndist: %v (%T)\nlocal: %v (%T)",
					round, g.name, distSrc, res.Scalar, res.Scalar, w, w)
			}
		default:
			t.Fatalf("round %d: unexpected local result %T", round, want)
		}
	}
}

// Random matmul instances across strategies, checked against dense
// GEMM (heavier than the quick property test in tiled).
func TestFuzzMatMulAllStrategies(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 20; round++ {
		n := 2 + rng.Intn(6)
		k := 2 + rng.Intn(6)
		m := 2 + rng.Intn(6)
		tile := 1 + rng.Intn(3)
		da := linalg.RandDense(n, k, -2, 2, rng.Int63())
		db := linalg.RandDense(k, m, -2, 2, rng.Int63())
		want := linalg.Mul(da, db)
		src := fmt.Sprintf(`tiled(%d,%d)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B,
		    kk == k, let v = a*b, group by (i,j) ]`, n, m)

		for _, opts := range []opt.Options{
			{},
			{DisableGBJ: true},
			{DisableGBJ: true, DisableReduceByKey: true},
			{DisableTilingPreservation: true},
		} {
			ctx := dataflow.NewLocalContext()
			cat := NewCatalog(ctx).
				BindMatrix("A", tiled.FromDense(ctx, da, tile, 2)).
				BindMatrix("B", tiled.FromDense(ctx, db, tile, 2))
			res, err := Run(sacparser.MustParse(src), cat, opts)
			if err != nil {
				t.Fatalf("round %d opts %+v: %v", round, opts, err)
			}
			if !res.Matrix.ToDense().EqualApprox(want, 1e-9) {
				t.Fatalf("round %d opts %+v: matmul diverged (n=%d k=%d m=%d tile=%d)",
					round, opts, n, k, m, tile)
			}
		}
	}
}

// Smoke the explain strings of every fuzzed strategy kind at least once.
func TestFuzzStrategyCoverage(t *testing.T) {
	ctx := dataflow.NewLocalContext()
	cat := NewCatalog(ctx).
		BindMatrix("A", tiled.RandMatrix(ctx, 6, 6, 2, 2, 0, 5, 1)).
		BindMatrix("B", tiled.RandMatrix(ctx, 6, 6, 2, 2, 0, 5, 2)).
		BindVector("V", tiled.VectorFromDense(ctx, linalg.RandVector(6, 0, 1, 3), 2, 2))
	seen := map[string]bool{}
	for _, src := range []string{
		"tiled(6,6)[ ((i,j), a*2.0) | ((i,j),a) <- A ]",
		"tiled(6,6)[ ((i,j), a+b) | ((i,j),a) <- A, ((ii,jj),b) <- B, ii == i, jj == j ]",
		"tiled(6,6)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B, kk == k, let v = a*b, group by (i,j) ]",
		"tiledvec(6)[ (i, +/a) | ((i,j),a) <- A, group by i ]",
		"tiled(6,6)[ (((i+1) % 6, j), a) | ((i,j),a) <- A ]",
		"tiledvec(6)[ (i, +/v) | ((i,k),a) <- A, (kk,x) <- V, kk == k, let v = a*x, group by i ]",
		"+/[ a | ((i,j),a) <- A, a > 2.0 ]",
		"rdd[ (i, avg/a) | ((i,j),a) <- A, group by i ]",
	} {
		q, err := Compile(sacparser.MustParse(src), cat, opt.Options{})
		if err != nil {
			t.Fatal(err)
		}
		seen[q.strategy.Kind()] = true
		if _, err := q.Execute(); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
	}
	for _, kind := range []string{"tile-map", "tile-zip", "group-by-join", "tile-aggregate", "tile-replicate", "matvec", "coordinate"} {
		if !seen[kind] {
			t.Fatalf("strategy %q not covered: %v", kind, keysOf(seen))
		}
	}
}

func keysOf(m map[string]bool) string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	return strings.Join(ks, ",")
}
