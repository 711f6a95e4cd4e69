// Package repro_bench holds the testing.B benchmarks that regenerate
// the paper's evaluation (one benchmark family per figure of
// Section 6) plus ablation and kernel benchmarks. Run with:
//
//	go test -bench=. -benchmem
//
// Absolute numbers are machine-local; the relations the paper reports
// (who wins, roughly by how much) are summarized in EXPERIMENTS.md
// from the cmd/sacbench sweeps.
package repro_bench

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/dataflow"
	"repro/internal/linalg"
	"repro/internal/ml"
	"repro/internal/mllib"
	"repro/internal/tiled"
)

const (
	benchTile  = 100
	benchParts = 8
)

func benchCtx() *dataflow.Context {
	return dataflow.NewContext(dataflow.Config{DefaultPartitions: benchParts})
}

func tiledPair(ctx *dataflow.Context, n int64) (*tiled.Matrix, *tiled.Matrix) {
	a := tiled.RandMatrix(ctx, n, n, benchTile, benchParts, 0, 10, 1).Persist()
	b := tiled.RandMatrix(ctx, n, n, benchTile, benchParts, 0, 10, 2).Persist()
	dataflow.Count(a.Tiles)
	dataflow.Count(b.Tiles)
	return a, b
}

func mllibPair(ctx *dataflow.Context, n int64) (*mllib.BlockMatrix, *mllib.BlockMatrix) {
	a := mllib.RandBlockMatrix(ctx, n, n, benchTile, benchParts, 0, 10, 1)
	b := mllib.RandBlockMatrix(ctx, n, n, benchTile, benchParts, 0, 10, 2)
	a.Blocks.Persist()
	b.Blocks.Persist()
	dataflow.Count(a.Blocks)
	dataflow.Count(b.Blocks)
	return a, b
}

// --- Figure 4.A: matrix addition ---

func BenchmarkFig4A_Addition_SAC(b *testing.B) {
	for _, n := range []int64{400, 800, 1200} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ctx := benchCtx()
			x, y := tiledPair(ctx, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dataflow.Count(bench.CompiledAdd(x, y).Tiles)
			}
		})
	}
}

func BenchmarkFig4A_Addition_MLlib(b *testing.B) {
	for _, n := range []int64{400, 800, 1200} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ctx := benchCtx()
			x, y := mllibPair(ctx, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dataflow.Count(x.Add(y).Blocks)
			}
		})
	}
}

// --- Figure 4.B: matrix multiplication ---

func BenchmarkFig4B_Multiply_SACGBJ(b *testing.B) {
	for _, n := range []int64{200, 400, 600} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ctx := benchCtx()
			x, y := tiledPair(ctx, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dataflow.Count(x.MultiplyGBJ(y).Tiles)
			}
		})
	}
}

func BenchmarkFig4B_Multiply_SACJoinGroupBy(b *testing.B) {
	for _, n := range []int64{200, 400, 600} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ctx := benchCtx()
			x, y := tiledPair(ctx, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dataflow.Count(tiled.JoinMultiply(x, y, tiled.Product{}, false).Tiles)
			}
		})
	}
}

func BenchmarkFig4B_Multiply_MLlib(b *testing.B) {
	for _, n := range []int64{200, 400, 600} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ctx := benchCtx()
			x, y := mllibPair(ctx, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dataflow.Count(x.Multiply(y).Blocks)
			}
		})
	}
}

// --- Figure 4.C: matrix factorization (one GD iteration) ---

func BenchmarkFig4C_Factorization_SACGBJ(b *testing.B) {
	for _, n := range []int64{200, 400} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ctx := benchCtx()
			k := int64(100)
			r := tiled.FromDense(ctx, linalg.RandSparseCOO(int(n), int(n), 0.1, 5, 7).ToDense(), benchTile, benchParts).Persist()
			p := tiled.RandMatrix(ctx, n, k, benchTile, benchParts, 0, 1, 8).Persist()
			q := tiled.RandMatrix(ctx, n, k, benchTile, benchParts, 0, 1, 9).Persist()
			dataflow.Count(r.Tiles)
			dataflow.Count(p.Tiles)
			dataflow.Count(q.Tiles)
			cfg := ml.PaperConfig()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				np, nq := ml.StepTiled(r, p, q, cfg)
				dataflow.Count(np.Tiles)
				dataflow.Count(nq.Tiles)
			}
		})
	}
}

func BenchmarkFig4C_Factorization_MLlib(b *testing.B) {
	for _, n := range []int64{200, 400} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ctx := benchCtx()
			k := int64(100)
			r := mllib.FromDense(ctx, linalg.RandSparseCOO(int(n), int(n), 0.1, 5, 7).ToDense(), benchTile, benchParts)
			p := mllib.RandBlockMatrix(ctx, n, k, benchTile, benchParts, 0, 1, 8)
			q := mllib.RandBlockMatrix(ctx, n, k, benchTile, benchParts, 0, 1, 9)
			for _, d := range []*mllib.BlockMatrix{r, p, q} {
				d.Blocks.Persist()
				dataflow.Count(d.Blocks)
			}
			cfg := ml.PaperConfig()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				np, nq := ml.StepMLlib(r, p, q, cfg)
				dataflow.Count(np.Blocks)
				dataflow.Count(nq.Blocks)
			}
		})
	}
}

// --- Ablations ---

// Rule 13: reduceByKey vs groupByKey in the multiplication reduce.
func BenchmarkAblation_Rule13_ReduceByKey(b *testing.B) {
	ctx := benchCtx()
	x, y := tiledPair(ctx, 400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dataflow.Count(tiled.JoinMultiply(x, y, tiled.Product{}, true).Tiles)
	}
}

func BenchmarkAblation_Rule13_GroupByKey(b *testing.B) {
	ctx := benchCtx()
	x, y := tiledPair(ctx, 400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dataflow.Count(tiled.JoinMultiply(x, y, tiled.Product{}, false).Tiles)
	}
}

// Figure 1 example: row sums on the block path.
func BenchmarkFig1_RowSums(b *testing.B) {
	ctx := benchCtx()
	x, _ := tiledPair(ctx, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dataflow.Count(x.RowSums().Blocks)
	}
}

// --- Narrow-operator chains (whole-stage fusion) ---

// A sparsify -> filter -> map -> count pipeline over tiles: all narrow
// operators, so the engine should run it as one fused loop per
// partition with no intermediate slices.
func BenchmarkNarrowChain_SparsifyFilterMap(b *testing.B) {
	ctx := benchCtx()
	x := tiled.RandMatrix(ctx, 400, 400, benchTile, benchParts, 0, 10, 1).Persist()
	dataflow.Count(x.Tiles)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := x.Sparsify()
		f := dataflow.Filter(s, func(e tiled.Entry) bool { return e.V > 5 })
		m := dataflow.Map(f, func(e tiled.Entry) float64 { return e.V })
		dataflow.Count(m)
	}
}

// A longer scalar chain: generate -> map -> filter -> flatMap -> reduce.
func BenchmarkNarrowChain_ScalarOps(b *testing.B) {
	ctx := benchCtx()
	src := dataflow.Generate(ctx, benchParts, func(p int) []int {
		rows := make([]int, 100_000)
		for i := range rows {
			rows[i] = p*100_000 + i
		}
		return rows
	}).Persist()
	dataflow.Count(src)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := dataflow.Map(src, func(x int) int { return 3 * x })
		f := dataflow.Filter(m, func(x int) bool { return x%2 == 0 })
		fm := dataflow.FlatMap(f, func(x int) []int { return []int{x, -x} })
		dataflow.Reduce(fm, func(a, b int) int { return a + b })
	}
}

// --- Local kernels (the per-tile code SAC generates) ---

func BenchmarkKernel_Gemm_ikj(b *testing.B) {
	x := linalg.RandDense(benchTile, benchTile, 0, 1, 1)
	y := linalg.RandDense(benchTile, benchTile, 0, 1, 2)
	c := linalg.NewDense(benchTile, benchTile)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Zero()
		linalg.GemmIKJ(c, x, y)
	}
}

func BenchmarkKernel_Gemm_naive(b *testing.B) {
	x := linalg.RandDense(benchTile, benchTile, 0, 1, 1)
	y := linalg.RandDense(benchTile, benchTile, 0, 1, 2)
	c := linalg.NewDense(benchTile, benchTile)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Zero()
		linalg.GemmNaive(c, x, y)
	}
}

func BenchmarkKernel_Gemm_parallel(b *testing.B) {
	x := linalg.RandDense(benchTile, benchTile, 0, 1, 1)
	y := linalg.RandDense(benchTile, benchTile, 0, 1, 2)
	c := linalg.NewDense(benchTile, benchTile)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Zero()
		linalg.ParGemm(c, x, y)
	}
}

func BenchmarkKernel_TileAdd(b *testing.B) {
	x := linalg.RandDense(benchTile, benchTile, 0, 1, 1)
	y := linalg.RandDense(benchTile, benchTile, 0, 1, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		linalg.AddInPlace(x, y)
	}
}

// --- BenchmarkKernels: blocked, packed GEMM vs the unblocked
// baselines, GFLOP/s reported per size (acceptance: blocked >= 2x ikj
// on 250..1000 square tiles) ---

var kernelSizes = []int{250, 500, 1000}

// benchGemmSized times run on n-square operands and reports achieved
// GFLOP/s (2n^3 flops per multiply).
func benchGemmSized(b *testing.B, n int, run func(c, x, y *linalg.Dense)) {
	b.Helper()
	x := linalg.RandDense(n, n, 0, 1, 1)
	y := linalg.RandDense(n, n, 0, 1, 2)
	c := linalg.NewDense(n, n)
	flops := 2 * float64(n) * float64(n) * float64(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Zero()
		run(c, x, y)
	}
	b.StopTimer()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(flops*float64(b.N)/s/1e9, "GFLOP/s")
	}
}

func BenchmarkKernels_GemmBlocked(b *testing.B) {
	for _, n := range kernelSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchGemmSized(b, n, linalg.Gemm)
		})
	}
}

func BenchmarkKernels_GemmBlockedPar(b *testing.B) {
	par := runtime.GOMAXPROCS(0)
	for _, n := range kernelSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchGemmSized(b, n, func(c, x, y *linalg.Dense) {
				linalg.GemmBudget(c, x, y, par)
			})
		})
	}
}

func BenchmarkKernels_GemmIKJ(b *testing.B) {
	for _, n := range kernelSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchGemmSized(b, n, linalg.GemmIKJ)
		})
	}
}

func BenchmarkKernels_GemmTransA(b *testing.B) {
	for _, n := range kernelSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchGemmSized(b, n, func(c, x, y *linalg.Dense) { linalg.GemmOp(c, x, y, true, false, 1) })
		})
	}
}

func BenchmarkKernels_GemmTransB(b *testing.B) {
	for _, n := range kernelSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchGemmSized(b, n, func(c, x, y *linalg.Dense) { linalg.GemmOp(c, x, y, false, true, 1) })
		})
	}
}

// BenchmarkKernels_GBJMultiplyPooled measures the distributed GBJ
// multiply with tile pooling active; -benchmem shows allocs/op
// dropping as drained tiles are recycled across iterations.
func BenchmarkKernels_GBJMultiplyPooled(b *testing.B) {
	ctx := benchCtx()
	x, y := tiledPair(ctx, 500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.MultiplyGBJ(y).Drain()
	}
	b.StopTimer()
	st := ctx.TilePool().Stats()
	if gets := st.Hits + st.Misses; gets > 0 {
		b.ReportMetric(100*float64(st.Hits)/float64(gets), "pool-hit-%")
	}
}

// --- Extension benchmarks: matrix-vector and sparse tiles ---

func BenchmarkExt_MatVec(b *testing.B) {
	ctx := benchCtx()
	m := tiled.RandMatrix(ctx, 2000, 2000, benchTile, benchParts, 0, 1, 1).Persist()
	x := tiled.VectorFromDense(ctx, linalg.RandVector(2000, 0, 1, 2), benchTile, benchParts)
	x.Blocks.Persist()
	dataflow.Count(m.Tiles)
	dataflow.Count(x.Blocks)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dataflow.Count(m.MatVecOp(x, false).Blocks)
	}
}

func BenchmarkExt_SparseMatVec(b *testing.B) {
	ctx := benchCtx()
	coo := linalg.RandSparseCOO(2000, 2000, 0.01, 5, 3)
	m := tiled.SparseFromCOO(ctx, coo, benchTile, benchParts)
	m.Tiles.Persist()
	x := tiled.VectorFromDense(ctx, linalg.RandVector(2000, 0, 1, 4), benchTile, benchParts)
	x.Blocks.Persist()
	dataflow.Count(m.Tiles)
	dataflow.Count(x.Blocks)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dataflow.Count(m.MatVec(x).Blocks)
	}
}
