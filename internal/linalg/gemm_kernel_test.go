package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
)

// canary is the NaN that surrounds every operand and output the kernel
// tests hand out: a packed read one lane past an operand's edge poisons
// the product, a store one lane past C's edge changes the pattern.
var canary = math.Float64frombits(0x7ff8_dead_beef_cafe)

const canaryPad = 16

// carved is n float64s in the middle of a canary-filled backing array.
type carved struct{ back, d []float64 }

func carve(n int) carved {
	back := make([]float64, n+2*canaryPad)
	for i := 0; i < canaryPad; i++ {
		back[i], back[canaryPad+n+i] = canary, canary
	}
	return carved{back, back[canaryPad : canaryPad+n : canaryPad+n]}
}

// carveRand is carve filled with random values, about one in eight an
// exact zero.
func carveRand(rng *rand.Rand, n int) carved {
	c := carve(n)
	for i := range c.d {
		if rng.Intn(8) != 0 {
			c.d[i] = rng.NormFloat64()
		}
	}
	return c
}

// intact reports whether the padding on both sides still holds the
// canary bit pattern.
func (c carved) intact() bool {
	for _, pad := range [][]float64{c.back[:canaryPad], c.back[canaryPad+len(c.d):]} {
		for _, v := range pad {
			if math.Float64bits(v) != math.Float64bits(canary) {
				return false
			}
		}
	}
	return true
}

func sameBits(x, y []float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

// TestMicroKernelsBitIdentical runs every kernel of this host on random
// zero-padded micro-panels, for every fringe mr×nr of its register tile
// and a spread of depths, against the per-element definition in
// kernel.tile computed with math.FMA: the contract that lets a
// mixed-CPU cluster byte-compare results.
func TestMicroKernelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, k := range kernels {
		for _, kc := range []int{1, 7, 100, 256} {
			for mr := 1; mr <= k.mr; mr++ {
				for nr := 1; nr <= k.nr; nr++ {
					ap, bp := carveRand(rng, kc*k.mr), carveRand(rng, kc*k.nr)
					// Zero-pad the panels as the packers would.
					for p := 0; p < kc; p++ {
						clear(ap.d[p*k.mr+mr : (p+1)*k.mr])
						clear(bp.d[p*k.nr+nr : (p+1)*k.nr])
					}
					ldc := nr + 3
					c := carveRand(rng, (mr-1)*ldc+nr)
					want := append([]float64(nil), c.d...)
					for i := 0; i < mr; i++ {
						for j := 0; j < nr; j++ {
							var acc float64
							for p := 0; p < kc; p++ {
								acc = math.FMA(ap.d[p*k.mr+i], bp.d[p*k.nr+j], acc)
							}
							want[i*ldc+j] += acc
						}
					}
					k.tile(kc, ap.d, bp.d, c.d, ldc, mr, nr)
					label := fmt.Sprintf("%s kc=%d mr=%d nr=%d", k.name, kc, mr, nr)
					if !sameBits(c.d, want) {
						t.Fatalf("%s: tile differs from the FMA-chain definition", label)
					}
					if !c.intact() {
						t.Fatalf("%s: wrote outside the tile", label)
					}
				}
			}
		}
	}
}

// noise is a fixed pool of random values (about one in eight an exact
// zero) the shape tests cut their operands from: drawing 50,000 shapes'
// worth of normals costs more than multiplying them.
var noise = func() []float64 {
	rng := rand.New(rand.NewSource(42))
	d := make([]float64, 1<<19)
	for i := range d {
		if rng.Intn(8) != 0 {
			d[i] = rng.NormFloat64()
		}
	}
	return d
}()

// noiseDense returns a rows×cols matrix of noise starting at a
// seed-dependent offset.
func noiseDense(seed int64, rows, cols int) *Dense {
	off := int(uint64(seed) * 7919 % uint64(len(noise)-rows*cols))
	return NewDenseFrom(rows, cols, noise[off:off+rows*cols])
}

// carveDense copies d into a canary-surrounded backing array.
func carveDense(d *Dense) (*Dense, carved) {
	c := carve(len(d.Data))
	copy(c.d, d.Data)
	return NewDenseFrom(d.Rows, d.Cols, c.d), c
}

// checkShapeOnEveryKernel computes C(m×n) += A(m×k)·B(k×n) through the
// blocked path, whatever the size, once per kernel of this host and per
// orientation (NN, TN with A stored transposed, NT with B stored
// transposed, TT with both), operands and C carved out of canary-filled
// arrays. The portable NN result must match GemmNaive within rounding,
// every other run must match it bit for bit, and no run may disturb a
// canary.
func checkShapeOnEveryKernel(t testing.TB, seed int64, m, n, k int) {
	t.Helper()
	oa, ob := noiseDense(seed, m, k), noiseDense(seed+1, k, n)
	c0 := noiseDense(seed+2, m, n) // nonzero C checks += semantics
	var ref []float64
	defer func(prev *kernel) { forced = prev }(forced)
	for _, o := range orientations {
		a, b := oa, ob
		if o.transA {
			a = oa.Transpose()
		}
		if o.transB {
			b = ob.Transpose()
		}
		a, ca := carveDense(a)
		b, cb := carveDense(b)
		for _, kern := range kernels {
			forced = kern
			c, cc := carveDense(c0)
			gemmBlocked(c, a, b, o.transA, o.transB, 1)
			label := fmt.Sprintf("%s %dx%dx%d transA=%v transB=%v", kern.name, m, n, k, o.transA, o.transB)
			if !cc.intact() || !ca.intact() || !cb.intact() {
				t.Fatalf("%s: wrote outside C or an operand", label)
			}
			if ref == nil {
				ref = c.Data
				want := c0.Clone()
				GemmNaive(want, oa, ob)
				// A NaN read from a canary fails the comparison too.
				if d := c.MaxAbsDiff(want); !(d <= 1e-10*float64(k)) {
					t.Fatalf("%s: max |diff| vs GemmNaive = %g", label, d)
				}
			} else if !sameBits(c.Data, ref) {
				t.Fatalf("%s: differs from the portable untransposed product", label)
			}
		}
	}
}

// sweepDims: every size up to one past the tallest register tile (20
// rows), then sizes around the micro-tile multiples (96 / 100 / 104 —
// the engine's tile and its neighbours, on both sides of kernelFor's
// switch between 20×8 and 8×16) and around the cache-blocking
// parameters.
var sweepDims = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17,
	18, 19, 20, 21, 31, 33, 96, 100, 104, 159, 161, 257, 513}

// raceSweepDims stand in for sweepDims under the race detector, which
// slows the sweep's products many times over and has nothing to find in
// them (each runs on one goroutine): one under, at and one past every
// register tile's mr and nr, and the engine's tile. The full sweep runs
// without it.
var raceSweepDims = []int{1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 19, 20, 21, 100}

// sweepShapes is sweepDims cubed, less the triples above 2¹⁸
// multiply-adds: the full cross product is 4.8 G of them per
// orientation and kernel, 88 % in the 2,173 largest triples, which add
// no fringe case the rest lacks. The cubes among those and one past every
// blocking parameter in each position (Mc + 1 = 161, Kc + 1 = 257,
// Nc + 1 = 513) are put back by name, as are the engine's tile with its
// neighbour on the other side of kernelFor's switch.
func sweepShapes() [][3]int {
	dims := sweepDims
	if raceDetector {
		dims = raceSweepDims
	}
	var shapes [][3]int
	for _, m := range dims {
		for _, n := range dims {
			for _, k := range dims {
				if m*n*k <= 1<<18 {
					shapes = append(shapes, [3]int{m, n, k})
				}
			}
		}
	}
	return append(shapes,
		[3]int{96, 96, 96}, [3]int{100, 100, 100}, [3]int{104, 104, 104}, [3]int{100, 104, 100},
		[3]int{104, 100, 100}, [3]int{161, 161, 161}, [3]int{257, 257, 257}, [3]int{100, 513, 100},
		[3]int{257, 100, 104}, [3]int{161, 513, 257}, [3]int{513, 161, 257}, [3]int{513, 17, 513})
}

// orientations are the four of C += op(A)·op(B): NN, TN, NT and TT.
var orientations = []struct{ transA, transB bool }{{false, false}, {true, false}, {false, true}, {true, true}}

// TestGemmFringeSweep is the fringe and bounds property test: m, n, k
// over sweepShapes × {NN, TN, NT, TT} × every kernel.
func TestGemmFringeSweep(t *testing.T) {
	for i, d := range sweepShapes() {
		checkShapeOnEveryKernel(t, int64(i), d[0], d[1], d[2])
	}
}

// TestKernelChooser: kernelFor's rule over the AVX-512 pair gives 20×8
// to the shapes it pads at least 8 % less than 8×16 does (the engine's
// 100-wide tile, 20, 40) and 8×16 to the rest, 128 among them, where
// 20×8 measured slower; on an AVX-512 host kernelFor itself answers so.
// withKernel overrides the choice for every shape.
func TestKernelChooser(t *testing.T) {
	k8x16 := &kernel{name: "8x16", mr: 8, nr: 16}
	k20x8 := &kernel{name: "20x8", mr: 20, nr: 8}
	onAVX512 := strings.HasPrefix(KernelName(), "avx512")
	for _, c := range []struct {
		m, n int
		want *kernel
	}{
		{100, 100, k20x8}, {20, 20, k20x8}, {40, 40, k20x8},
		{16, 16, k8x16}, {32, 32, k8x16}, {64, 64, k8x16}, {96, 96, k8x16},
		{104, 104, k8x16}, {128, 128, k8x16}, {512, 512, k8x16}, {1000, 1000, k8x16},
	} {
		if got := choose([]*kernel{k8x16, k20x8}, c.m, c.n); got != c.want {
			t.Errorf("%dx%d: chose %s, want %s", c.m, c.n, got.name, c.want.name)
		}
		if got := kernelFor(c.m, c.n); onAVX512 && (got.mr != c.want.mr || got.nr != c.want.nr) {
			t.Errorf("%dx%d: this host runs %s, want the %s tile", c.m, c.n, got.name, c.want.name)
		}
	}
	for _, k := range kernels {
		t.Run(k.name, func(t *testing.T) {
			withKernel(t, k)
			for _, d := range []int{1, 16, 20, 100, 104, 128, 1000} {
				if got := kernelFor(d, d); got != k {
					t.Errorf("%dx%d runs %s with %s forced", d, d, got.name, k.name)
				}
			}
		})
	}
}

// TestKernelSet logs the kernels this host runs — the set every kernel
// test here covered (run it with -v) — and checks what the loop nest
// assumes of them: the portable kernel among them, the chooser's
// candidates among them, and every register tile dividing the cache
// blocks.
func TestKernelSet(t *testing.T) {
	names := make([]string, len(kernels))
	for i, k := range kernels {
		names[i] = k.name
		if blockM%k.mr != 0 || blockN%k.nr != 0 {
			t.Errorf("%s: Mc = %d or Nc = %d is not a multiple of its %d×%d tile", k.name, blockM, blockN, k.mr, k.nr)
		}
	}
	t.Logf("kernels: %s; a product chooses among %s", strings.Join(names, " "), KernelName())
	if kernels[0] != &portableKernel {
		t.Errorf("kernels start with %s, not the portable kernel", kernels[0].name)
	}
	for _, c := range choices {
		if !slices.Contains(kernels, c) {
			t.Errorf("chooser candidate %s is not among this host's kernels", c.name)
		}
	}
}

// TestVectorHostNeverRunsPortableKernel: on an AVX2-or-better host the
// scalar kernel is out of the product — fringes go through the vector
// kernels' masked update — whichever entry point and worker budget.
func TestVectorHostNeverRunsPortableKernel(t *testing.T) {
	if choices[0] == &portableKernel {
		t.Skip("the portable kernel is this build's only one")
	}
	calls := countPortableCalls(t)
	for i, d := range sweepShapes() {
		a, b := noiseDense(int64(i), d[0], d[2]), noiseDense(int64(i)+1, d[2], d[1])
		gemmBlocked(NewDense(d[0], d[1]), a, b, false, false, 2)
		pa, pb := PackA(a, false, d[1]), PackB(b, false, d[0])
		GemmPacked(NewDense(d[0], d[1]), pa, pb, 1)
		pa.Release()
		pb.Release()
	}
	if n := calls.Load(); n != 0 {
		t.Fatalf("%s host ran the portable micro-kernel %d times", KernelName(), n)
	}
}

// countPortableCalls wraps the portable kernel's tile function in a
// call counter for the rest of the test.
func countPortableCalls(t *testing.T) *atomic.Int64 {
	var calls atomic.Int64
	tile := portableKernel.tile
	portableKernel.tile = func(kc int, ap, bp, c []float64, ldc, mr, nr int) {
		calls.Add(1)
		tile(kc, ap, bp, c, ldc, mr, nr)
	}
	t.Cleanup(func() { portableKernel.tile = tile })
	return &calls
}

// FuzzGemmShapes drives checkShapeOnEveryKernel from fuzzed shapes, up
// to 300 on a side (past Kc and Mc).
func FuzzGemmShapes(f *testing.F) {
	f.Add(uint16(100), uint16(100), uint16(100), int64(1))
	f.Add(uint16(1), uint16(17), uint16(257), int64(2))
	f.Add(uint16(129), uint16(9), uint16(3), int64(3))
	f.Fuzz(func(t *testing.T, m, n, k uint16, seed int64) {
		checkShapeOnEveryKernel(t, seed, int(m%300)+1, int(n%300)+1, int(k%300)+1)
	})
}

// TestKernelBudgetSplitsATile: a 100-row operand is a single Mc chunk,
// and used to run on one worker whatever the budget and however wide
// and deep the product. Rows now split at micro-panel granularity once
// the block is worth a second worker (parMinFlops), and the split never
// changes a bit.
func TestKernelBudgetSplitsATile(t *testing.T) {
	const m, n, k = 100, blockN, blockK
	for _, kern := range kernels {
		per := rowSplit(m, 2, kern.mr, m*n*k)
		if workers := (m + per - 1) / per; workers != 2 || per%kern.mr != 0 {
			t.Fatalf("%s: m=%d par=2 splits into %d workers of %d rows", kern.name, m, workers, per)
		}
		if per := rowSplit(m, 2, kern.mr, parMinFlops-1); per != m {
			t.Fatalf("%s: a block under the flop floor split into chunks of %d", kern.name, per)
		}
		withKernel(t, kern)
		a, b := noiseDense(5, m, k), noiseDense(6, k, n)
		serial := noiseDense(7, m, n).Clone()
		split := serial.Clone()
		GemmBudget(serial, a, b, 1)
		GemmBudget(split, a, b, 2)
		if !sameBits(serial.Data, split.Data) {
			t.Fatalf("%s: par=2 differs from par=1", kern.name)
		}
	}
}

// TestGemmPackedMatchesGemm: multiplying operands packed beforehand
// gives the bits of the call that packs as it goes, per kernel,
// orientation and worker budget, empty shapes included.
func TestGemmPackedMatchesGemm(t *testing.T) {
	for _, kern := range kernels {
		withKernel(t, kern)
		for i, d := range adversarialDims {
			m, n, k := d[0], d[1], d[2]
			for _, o := range orientations {
				a, b := noiseDense(int64(i), m, k), noiseDense(int64(i)+1, k, n)
				if o.transA {
					a = a.Transpose()
				}
				if o.transB {
					b = b.Transpose()
				}
				want := noiseDense(int64(i)+2, m, n).Clone()
				got := want.Clone()
				gemmBlocked(want, a, b, o.transA, o.transB, 1)
				pa, pb := PackA(a, o.transA, n), PackB(b, o.transB, m)
				GemmPacked(got, pa, pb, 1+i%3)
				pa.Release()
				pb.Release()
				if !sameBits(got.Data, want.Data) {
					t.Fatalf("%s %v transA=%v transB=%v: packed multiply differs from Gemm", kern.name, d, o.transA, o.transB)
				}
			}
		}
	}
}
