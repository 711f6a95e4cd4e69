package linalg

import (
	"math"
	"strings"
)

// kernel is one register-tiled micro-kernel and the pack layout it
// streams: packed A is column-major micro-panels of mr rows, packed B
// row-major micro-panels of nr columns (see gemm_blocked.go). The
// blocked GEMM reads its micro-tile from the descriptor, so a kernel is
// its name, its register tile and one function.
type kernel struct {
	name   string
	mr, nr int
	// tile accumulates the leading mr×nr corner (mr ≤ k.mr, nr ≤ k.nr,
	// both ≥ 1) of the micro-tile product of two zero-padded packed
	// micro-panels into c, whose rows are ldc elements apart: for every
	// element, acc = 0; acc = fma(a[p], b[p], acc) for p = 0..kc-1; then
	// c += acc. Every kernel performs exactly that sequence per element,
	// so their results are bit-identical; lanes outside mr×nr are
	// neither read from nor written to c.
	tile func(kc int, ap, bp, c []float64, ldc, mr, nr int)
}

// portableKernel is the pure-Go 4×8 kernel: the only one on non-amd64
// and purego builds, and the reference the vector kernels are tested
// against bit for bit.
var portableKernel = kernel{name: "portable", mr: 4, nr: 8, tile: microKernelGeneric}

// forced, when set, is the kernel every product runs whatever its
// shape. Only tests set it (withKernel), to run each kernel of the host
// on shapes the chooser would not give it.
var forced *kernel

// kernelFor is the kernel a C(m×n) product runs: choices[0], unless
// another of this CPU's choices pads m×n to a micro-tile area at least
// 8 % below choices[0]'s. On AVX-512 that gives 20×8 to 100-wide tiles
// (−10.7 %, 65 micro-tiles where 8×16 runs 91) and to 20 and 40, and
// keeps 8×16 at 16, 32, 64, 96, 104, 128 and above, where 20×8 pads as
// much or more, or measured slower (DESIGN §8). It is a pure function
// of (m, n) and the CPU; both operands of a product and its loop nest
// agree on it.
func kernelFor(m, n int) *kernel {
	if forced != nil {
		return forced
	}
	return choose(choices, m, n)
}

// choose is kernelFor's rule over the candidate list ks, default first.
func choose(ks []*kernel, m, n int) *kernel {
	best := ks[0]
	base := best.padded(m, n)
	area := base
	for _, k := range ks[1:] {
		if a := k.padded(m, n); 25*a <= 23*base && a < area {
			best, area = k, a
		}
	}
	return best
}

// padded is the area m×n covers once rounded up to whole micro-tiles.
func (k *kernel) padded(m, n int) int { return roundUp(m, k.mr) * roundUp(n, k.nr) }

// KernelName names the micro-kernels the blocked GEMM chooses among on
// this CPU: "avx512-8x16+avx512-20x8", "avx2-4x8" or "portable". Status
// pages and reports carry it so a GFLOP/s figure says which kernels
// produced it; KernelFor names the one a given product shape runs.
func KernelName() string {
	names := make([]string, len(choices))
	for i, k := range choices {
		names[i] = k.name
	}
	return strings.Join(names, "+")
}

// KernelFor names the micro-kernel a C(m×n) product runs on this CPU.
func KernelFor(m, n int) string { return kernelFor(m, n).name }

// microKernelGeneric is kernel.tile in portable Go. math.FMA is one
// fused multiply-add (the hardware instruction on amd64 with FMA and
// on arm64), which is what makes it agree with the assembly kernels to
// the last bit. It computes the whole padded 4×8 micro-tile into a
// scratch block and adds only the valid corner into c.
func microKernelGeneric(kc int, ap, bp, c []float64, ldc, mr, nr int) {
	const pm, pn = 4, 8
	var acc [pm * pn]float64
	for p := 0; p < kc; p++ {
		av := ap[p*pm : p*pm+pm : p*pm+pm]
		bv := bp[p*pn : p*pn+pn : p*pn+pn]
		for i, ai := range av {
			row := acc[i*pn : i*pn+pn : i*pn+pn]
			row[0] = math.FMA(ai, bv[0], row[0])
			row[1] = math.FMA(ai, bv[1], row[1])
			row[2] = math.FMA(ai, bv[2], row[2])
			row[3] = math.FMA(ai, bv[3], row[3])
			row[4] = math.FMA(ai, bv[4], row[4])
			row[5] = math.FMA(ai, bv[5], row[5])
			row[6] = math.FMA(ai, bv[6], row[6])
			row[7] = math.FMA(ai, bv[7], row[7])
		}
	}
	for i := 0; i < mr; i++ {
		crow := c[i*ldc : i*ldc+nr]
		for j := range crow {
			crow[j] += acc[i*pn+j]
		}
	}
}
