package bench

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/linalg"
	"repro/internal/tiled"
)

// Kernels benchmarks the local GEMM kernels in isolation (no dataflow)
// and renders a GFLOP/s table: the naive j-k inner loop (capped at
// n<=500 — it is cubic in wall time and only serves as a floor), the
// cache-friendly i-k-j loop the generated code used before blocking,
// the blocked/packed kernel at budget 1, and the blocked kernel with
// the full machine budget. A final line reports the tile-pool reuse
// rate of a pooled GBJ multiply, the dataflow-visible payoff of the
// same machinery.
func Kernels(cfg Config, sizes []int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Local GEMM kernels — GFLOP/s (higher is better), %d cores, blocked = %s\n",
		runtime.GOMAXPROCS(0), linalg.KernelName())
	fmt.Fprintf(&b, "%-8s%14s%14s%14s%14s\n", "n", "naive", "ikj", "blocked", "blocked-par")
	for _, n := range sizes {
		fmt.Fprintf(&b, "%-8d", n)
		if n <= 500 {
			fmt.Fprintf(&b, "%14.2f", gemmGflops(n, linalg.GemmNaive))
		} else {
			fmt.Fprintf(&b, "%14s", "-")
		}
		fmt.Fprintf(&b, "%14.2f", gemmGflops(n, linalg.GemmIKJ))
		fmt.Fprintf(&b, "%14.2f", gemmGflops(n, func(c, x, y *linalg.Dense) {
			linalg.GemmBudget(c, x, y, 1)
		}))
		fmt.Fprintf(&b, "%14.2f\n", gemmGflops(n, func(c, x, y *linalg.Dense) {
			linalg.GemmBudget(c, x, y, runtime.GOMAXPROCS(0))
		}))
	}
	b.WriteString(kernelsPoolLine(cfg))
	return b.String()
}

// gemmGflops times one GEMM variant on n x n operands, repeating until
// the measurement is long enough to trust, and returns achieved
// GFLOP/s (2 n^3 flops per multiply).
func gemmGflops(n int, gemm func(c, a, b *linalg.Dense)) float64 {
	a := linalg.RandDense(n, n, -1, 1, 11)
	x := linalg.RandDense(n, n, -1, 1, 12)
	c := linalg.NewDense(n, n)
	gemm(c, a, x) // warm-up (page-in, pool priming, branch warm)
	var elapsed time.Duration
	iters := 0
	for elapsed < 200*time.Millisecond && iters < 20 {
		c.Zero()
		start := time.Now()
		gemm(c, a, x)
		elapsed += time.Since(start)
		iters++
	}
	flops := 2 * float64(n) * float64(n) * float64(n) * float64(iters)
	return flops / elapsed.Seconds() / 1e9
}

// kernelsPoolLine runs a pooled GBJ multiply twice on one context and
// reports the tile-pool reuse of the second (steady-state) run.
func kernelsPoolLine(cfg Config) string {
	ctx := newCtx(cfg)
	n := int64(5 * cfg.TileSize)
	a := tiled.RandMatrix(ctx, n, n, cfg.TileSize, cfg.Partitions, 0, 10, 1)
	b := tiled.RandMatrix(ctx, n, n, cfg.TileSize, cfg.Partitions, 0, 10, 2)
	force(ctx, a.Tiles)
	force(ctx, b.Tiles)
	a.MultiplyGBJ(b).Drain() // populate the pool
	ctx.ResetMetrics()
	a.MultiplyGBJ(b).Drain()
	st := ctx.TilePool().Stats()
	gets := st.Hits + st.Misses
	pct := 0.0
	if gets > 0 {
		pct = 100 * float64(st.Hits) / float64(gets)
	}
	return fmt.Sprintf(
		"tile pool, steady-state GBJ multiply n=%d tile=%d: %d/%d gets reused (%.0f%%)\n",
		n, cfg.TileSize, st.Hits, gets, pct)
}

// KernelSizes returns the default kernel-benchmark sizes, scaled down
// in quick mode; 100 is the tile the engine calls the kernel at.
func KernelSizes(quick bool) []int {
	if quick {
		return []int{100, 250}
	}
	return []int{100, 250, 500, 1000}
}
