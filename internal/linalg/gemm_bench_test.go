package linalg

import (
	"fmt"
	"testing"
)

// BenchmarkGemmTile decomposes a tile product at the sizes around the
// engine's (n = 100, the benchmark's tile): the whole Gemm call, its
// two packing passes, and the multiply over operands packed beforehand,
// per kernel this host can run. gemm ≈ pack-a + pack-b + packed;
// packed alone is micro-kernel plus C update.
func BenchmarkGemmTile(b *testing.B) {
	for _, k := range kernels {
		for _, n := range []int{96, 100, 104, 128, 512} {
			x := RandDense(n, n, -1, 1, 11)
			y := RandDense(n, n, -1, 1, 12)
			c := NewDense(n, n)
			gflops := func(b *testing.B) {
				b.ReportMetric(2*float64(n)*float64(n)*float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			}
			name := func(part string) string { return fmt.Sprintf("%s/n=%d/%s", k.name, n, part) }
			b.Run(name("gemm"), func(b *testing.B) {
				withKernel(b, k)
				for i := 0; i < b.N; i++ {
					Gemm(c, x, y)
				}
				gflops(b)
			})
			b.Run(name("pack-a"), func(b *testing.B) {
				withKernel(b, k)
				for i := 0; i < b.N; i++ {
					PackA(x, false, n).Release()
				}
			})
			b.Run(name("pack-b"), func(b *testing.B) {
				withKernel(b, k)
				for i := 0; i < b.N; i++ {
					PackB(y, false, n).Release()
				}
			})
			b.Run(name("packed"), func(b *testing.B) {
				withKernel(b, k)
				px, py := PackA(x, false, n), PackB(y, false, n)
				defer px.Release()
				defer py.Release()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					GemmPacked(c, px, py, 1)
				}
				gflops(b)
			})
		}
	}
}

// BenchmarkGemmCrossover times the simple i-k-j loop against pack +
// micro-kernel on small cubes: the measurement behind blockedMinFlops.
func BenchmarkGemmCrossover(b *testing.B) {
	for _, n := range []int{4, 6, 8, 12, 16, 24, 32} {
		x := RandDense(n, n, -1, 1, 11)
		y := RandDense(n, n, -1, 1, 12)
		c := NewDense(n, n)
		b.Run(fmt.Sprintf("n=%d/simple", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gemmIKJ(c, x, y, n, false, false)
			}
		})
		for _, k := range kernels {
			b.Run(fmt.Sprintf("n=%d/%s", n, k.name), func(b *testing.B) {
				withKernel(b, k)
				for i := 0; i < b.N; i++ {
					gemmBlocked(c, x, y, false, false, 1)
				}
			})
		}
	}
}

// BenchmarkGemmSplit times one square product (a single cache block)
// serially and with its rows split over two workers: the measurement
// behind parMinFlops.
func BenchmarkGemmSplit(b *testing.B) {
	for _, n := range []int{100, 128, 160, 200, 256} {
		kern := kernelFor(n, n)
		x := operandA(RandDense(n, n, -1, 1, 11), false)
		y := operandB(RandDense(n, n, -1, 1, 12), false)
		c := NewDense(n, n)
		bp := y.panel(make([]float64, blockK*blockN), 0, 0, n, n, kern.nr)
		b.Run(fmt.Sprintf("n=%d/serial", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rowPanels(kern, c, x, bp, 0, n, 0, 0, n, n)
			}
		})
		b.Run(fmt.Sprintf("n=%d/split", n), func(b *testing.B) {
			per := roundUp((n+1)/2, kern.mr)
			for i := 0; i < b.N; i++ {
				rowPanelsPar(kern, c, x, bp, per, 0, 0, n, n)
			}
		})
	}
}
