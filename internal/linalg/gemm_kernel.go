package linalg

import "math"

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

// active is the kernel every blocked multiply runs. It is a pure
// function of the CPU, chosen once at init (the widest kernels[i] the
// hardware and OS support); only tests reassign it.
var active = kernels[len(kernels)-1]

// KernelName names the micro-kernel the blocked GEMM runs on this CPU:
// "avx512-8x16", "avx2-4x8" or "portable". Spans and status pages
// carry it so a GFLOP/s figure says which kernel produced it.
func KernelName() string { return active.name }

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
