//go:build amd64 && !purego

package linalg

// kernels lists the micro-kernels this CPU can run, narrowest first;
// choices are the ones a product picks among, the default first (see
// kernelFor). The Go baseline for amd64 (GOAMD64=v1) only guarantees
// SSE2, so each vector kernel is gated on runtime CPUID/XGETBV checks.
var kernels, choices = detectKernels()

var (
	avx2Kernel      = kernel{name: "avx2-4x8", mr: 4, nr: 8, tile: microKernelAVX2}
	avx512Kernel    = kernel{name: "avx512-8x16", mr: 8, nr: 16, tile: microKernelAVX512}
	avx512x20Kernel = kernel{name: "avx512-20x8", mr: 20, nr: 8, tile: microKernelAVX512x20}
)

// detectKernels probes the CPU. AVX2 needs AVX, AVX2 and FMA from the
// CPU and YMM state saving from the OS (XCR0 bits 1 and 2); AVX-512
// additionally needs AVX512F and opmask/ZMM state (XCR0 bits 5 to 7).
// A product chooses among the kernels of the widest vector unit.
func detectKernels() (ks, choices []*kernel) {
	ks = []*kernel{&portableKernel}
	maxID, _, _, _ := cpuidex(0, 0)
	if maxID < 7 {
		return ks, ks
	}
	_, _, ecx1, _ := cpuidex(1, 0)
	const (
		fma     = 1 << 12
		osxsave = 1 << 27
		avx     = 1 << 28
	)
	if ecx1&(fma|osxsave|avx) != fma|osxsave|avx {
		return ks, ks
	}
	xcr0, _ := xgetbv0()
	const ymmState, zmmState = 0x6, 0xe6
	_, ebx7, _, _ := cpuidex(7, 0)
	const (
		avx2    = 1 << 5
		avx512f = 1 << 16
	)
	if xcr0&ymmState != ymmState || ebx7&avx2 == 0 {
		return ks, ks
	}
	ks = append(ks, &avx2Kernel)
	if xcr0&zmmState != zmmState || ebx7&avx512f == 0 {
		return ks, ks[1:]
	}
	return append(ks, &avx512Kernel, &avx512x20Kernel), []*kernel{&avx512Kernel, &avx512x20Kernel}
}

// cpuidex executes CPUID with the given EAX/ECX inputs.
func cpuidex(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads extended control register XCR0.
func xgetbv0() (eax, edx uint32)

// microKernelAVX2 is kernel.tile for the 4×8 register tile: eight YMM
// accumulators (two per row) hold the block across the k loop — eight
// independent FMA chains, what two FMA ports at latency four need — and
// C is touched once at the end, through VMASKMOVPD when the tile is a
// fringe.
//
//go:noescape
func microKernelAVX2(kc int, ap, bp, c []float64, ldc, mr, nr int)

// microKernelAVX512 is kernel.tile for the 8×16 register tile: sixteen
// ZMM accumulators (two per row), two B vectors and one broadcast A
// element per row, so a k step is sixteen FMAs against ten loads and
// both 512-bit FMA ports stay busy. C is updated under opmasks built
// from nr, full tile or fringe alike.
//
//go:noescape
func microKernelAVX512(kc int, ap, bp, c []float64, ldc, mr, nr int)

// microKernelAVX512x20 is kernel.tile for the 20×8 register tile:
// twenty ZMM accumulators (one per row) and one B vector, each FMA
// broadcasting its A element from memory, so a k step is twenty FMAs
// against twenty-one loads. Its rows divide the engine's 100-wide tile,
// where the 8×16 tile pads both sides (DESIGN §8). C is updated under
// an opmask built from nr.
//
//go:noescape
func microKernelAVX512x20(kc int, ap, bp, c []float64, ldc, mr, nr int)
