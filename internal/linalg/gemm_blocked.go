package linalg

// Goto/BLIS-style blocked GEMM.
//
// The kernel decomposes C += op(A)·op(B) into three levels of cache
// blocking: the n dimension is split into Nc-wide column slabs (L3),
// the k dimension into Kc-deep panels (packed B stays L2/L3 resident),
// and the m dimension into Mc-tall panels (packed A stays L1/L2
// resident). Inside a macro-tile, an mr×nr register-tiled micro-kernel
// the CPU supports (gemm_kernel.go: AVX-512 8×16 or 20×8, chosen per
// product shape by kernelFor; AVX2 4×8; portable 4×8) walks the packed
// panels.
//
// Packing rewrites the operand panels into the exact order the
// micro-kernel streams them, mr and nr being the chosen kernel's:
//
//	packed A: column-major micro-panels of mr rows —
//	          ap[i0*kc + p*mr + i] = op(A)[ic+i0+i][pc+p]
//	packed B: row-major micro-panels of nr columns —
//	          bp[j0*kc + p*nr + j] = op(B)[pc+p][jc+j0+j]
//
// Fringe panels (shape not a multiple of the micro-tile) are packed
// zero-padded, so the k loop never branches on shape; the kernel masks
// the padded lanes when it updates C. Transposed operands (GemmOp's
// flags) are handled entirely in packing — the macro and micro kernels
// are orientation-blind. An operand multiplied more than once can be
// packed once beforehand (Packed, gemm_packed.go); the loop nest below
// then reads its panels in place.
//
// Every element of C sees the same operation sequence whatever the
// kernel, the worker split or the packing route: per Kc block in
// ascending order, one FMA chain over the block's k from zero, then one
// add into C. Results are therefore bit-identical across CPUs.
//
// Parallelism: the caller passes a worker budget (see GemmBudget and
// dataflow.Context.KernelBudget). Workers split the m dimension at
// micro-panel granularity, sharing the packed B slab; each packs its
// own A panels, and the C row ranges are disjoint, so no
// synchronization is needed beyond the final WaitGroup.

import "sync"

// Cache blocking parameters, multiples of every kernel's micro-tile
// (mr 4, 8 and 20; nr 8 and 16). Float64 working-set targets: packed A
// panel Mc×Kc = 320 KiB (L2), packed B slab Kc×Nc = 1 MiB (L3 slice),
// one micro-panel pair Kc×(mr+nr) = 48 KiB at 8×16, 56 KiB at 20×8
// (L1).
const (
	blockM = 160 // Mc: rows per packed A panel
	blockK = 256 // Kc: shared dimension per packing round
	blockN = 512 // Nc: columns per packed B slab
)

// blockedMinFlops is the m·n·k volume from which pack + micro-kernel
// beats the simple i-k-j loop on the vector kernels. Measured on one
// core (BenchmarkGemmCrossover; simple / avx2 / avx512, ns per call):
// 6³ 190 / 235 / 220, 8³ 425 / 235 / 250, 16³ 2240 / 730 / 465, 32³
// 15350 / 3400 / 1870 — the blocked path's fixed cost (pool round trips,
// two pack passes, one padded micro-tile) is about 0.2 µs, which 8³ of
// scalar work already exceeds. serve-mixed's 16³ tiles are 3–5× faster
// blocked. The threshold is one constant, not per kernel, because
// which path a shape takes must not depend on the CPU (the two paths
// round differently); the portable kernel only draws level with the
// simple loop on large shapes (3.4 vs 3.7 GFLOP/s at 512³) and pays for
// that below them (1.7× slower at 16³).
const blockedMinFlops = 8 * 8 * 8

// parMinFlops is the m·n·k volume of one (Kc, Nc) block below which its
// rows are not split across workers. Handing half a block to a second
// goroutine costs its wake-up — ten to twenty microseconds on the
// 2-core host (BenchmarkGemmSplit, serial / two workers, µs over three
// runs): 100³ 38–40 / 49–57, 128³ 69–86 / 68–95, 160³ 124–154 / 98–120,
// 200³ 256–284 / 181–214, 256³ 503–632 / 372–446. The split is a loss
// at the engine's 100-tile, even at 128³, and pays from about 150³.
const parMinFlops = 3 << 20

// packBufA / packBufB recycle packing scratch across calls. Buffers are
// fixed at the maximum panel footprint, so any (mc, kc, nc) slice fits.
var packBufA = sync.Pool{
	New: func() any {
		b := make([]float64, blockM*blockK)
		return &b
	},
}

var packBufB = sync.Pool{
	New: func() any {
		b := make([]float64, blockK*blockN)
		return &b
	},
}

// operand is one side of a blocked multiply: a matrix whose panels are
// packed into scratch as the loop nest reaches them, or one packed
// whole beforehand (pre).
type operand struct {
	src *Dense
	// kMajor: src's rows run along the shared dimension — B as stored,
	// or A stored transposed.
	kMajor bool
	pre    *Packed
}

func operandA(a *Dense, trans bool) operand { return operand{src: a, kMajor: trans} }
func operandB(b *Dense, trans bool) operand { return operand{src: b, kMajor: !trans} }

// panel returns the packed kc-deep, xc-wide panel of the operand at
// shared-dimension offset k0 and row (A side) or column (B side) offset
// x0, in micro-panels of w: the operand's own storage when it was
// packed beforehand, scratch otherwise.
func (o operand) panel(scratch []float64, k0, x0, kc, xc, w int) []float64 {
	if p := o.pre; p != nil {
		off := p.xPad*k0 + x0*kc
		return p.buf[off : off+roundUp(xc, w)*kc]
	}
	if o.kMajor {
		packStraight(scratch, o.src, k0, x0, kc, xc, w)
	} else {
		packTransposed(scratch, o.src, x0, k0, xc, kc, w)
	}
	return scratch
}

// gemmBlocked computes C += op(A)·op(B) with op chosen by transA /
// transB, using at most par concurrent workers. Shapes are validated by
// GemmOp.
func gemmBlocked(c, a, b *Dense, transA, transB bool, par int) {
	k := a.Cols
	if transA {
		k = a.Rows
	}
	gemmDrive(kernelFor(c.Rows, c.Cols), c, operandA(a, transA), operandB(b, transB), k, par)
}

// gemmDrive is the loop nest around the micro-kernel kern: C += A·B
// with k the shared dimension.
func gemmDrive(kern *kernel, c *Dense, a, b operand, k, par int) {
	m, n := c.Rows, c.Cols
	if m == 0 || n == 0 || k == 0 {
		return
	}
	var bscratch []float64
	if b.pre == nil {
		bpPtr := packBufB.Get().(*[]float64)
		defer packBufB.Put(bpPtr)
		bscratch = *bpPtr
	}
	for jc := 0; jc < n; jc += blockN {
		ncEff := min(blockN, n-jc)
		for pc := 0; pc < k; pc += blockK {
			kcEff := min(blockK, k-pc)
			bp := b.panel(bscratch, pc, jc, kcEff, ncEff, kern.nr)
			per := rowSplit(m, par, kern.mr, m*ncEff*kcEff)
			if per >= m {
				rowPanels(kern, c, a, bp, 0, m, pc, jc, kcEff, ncEff)
			} else {
				rowPanelsPar(kern, c, a, bp, per, pc, jc, kcEff, ncEff)
			}
		}
	}
}

// rowPanelsPar runs rowPanels on consecutive chunks of per rows, one
// goroutine each, and waits for them. (Its own function so the serial
// path's loop variables are not captured, hence not heap-allocated.)
func rowPanelsPar(kern *kernel, c *Dense, a operand, bp []float64, per, pc, jc, kc, nc int) {
	var wg sync.WaitGroup
	for ic0 := 0; ic0 < c.Rows; ic0 += per {
		wg.Add(1)
		go func(ic0, ic1 int) {
			defer wg.Done()
			rowPanels(kern, c, a, bp, ic0, ic1, pc, jc, kc, nc)
		}(ic0, min(ic0+per, c.Rows))
	}
	wg.Wait()
}

// rowPanels multiplies rows [ic0, ic1) of A's Kc block at pc by the
// packed B slab bp, one Mc panel at a time. Workers run it on disjoint
// row ranges sharing bp.
func rowPanels(kern *kernel, c *Dense, a operand, bp []float64, ic0, ic1, pc, jc, kc, nc int) {
	var ascratch []float64
	if a.pre == nil {
		apPtr := packBufA.Get().(*[]float64)
		defer packBufA.Put(apPtr)
		ascratch = *apPtr
	}
	for ic := ic0; ic < ic1; ic += blockM {
		mc := min(blockM, ic1-ic)
		ap := a.panel(ascratch, pc, ic, kc, mc, kern.mr)
		macroKernel(kern, c, ap, bp, ic, jc, mc, nc, kc)
	}
}

// rowSplit returns how many of a block's m rows each worker takes: m
// itself (run inline) when par <= 1 or the block's m·n·k volume work is
// below parMinFlops, otherwise whole mr-row micro-panels shared evenly
// among up to par workers. Where the rows are cut never changes what a
// C element sees, so every par gives the same bits.
func rowSplit(m, par, mr, work int) int {
	panels := (m + mr - 1) / mr
	if par > panels {
		par = panels
	}
	if par <= 1 || work < parMinFlops {
		return m
	}
	return (panels + par - 1) / par * mr
}

func roundUp(x, w int) int { return (x + w - 1) / w * w }

// packStraight packs the kc×xc block of s at (k0, x0) into dst as
// micro-panels of w columns, each row-major — dst[j0*kc + p*w + j] =
// s[k0+p][x0+j0+j] — zero-padding the last panel to w. It is the B
// packer, and the A packer when A is transposed.
func packStraight(dst []float64, s *Dense, k0, x0, kc, xc, w int) {
	ld := s.Cols
	for j0 := 0; j0 < xc; j0 += w {
		panel := dst[j0*kc : (j0+w)*kc]
		cols := min(w, xc-j0)
		if cols < w {
			clear(panel)
		}
		src := s.Data[k0*ld+x0+j0:]
		for p := 0; p < kc; p++ {
			copy(panel[p*w:p*w+cols], src[p*ld:])
		}
	}
}

// packTransposed packs the xc×kc block of s at (x0, k0) transposed into
// the same layout — dst[j0*kc + p*w + j] = s[x0+j0+j][k0+p]. It is the
// A packer, and the B packer when B is transposed. Source rows go eight
// (then four, then one) at a time, so the panel is written in whole
// cache lines and eight read streams are in flight — the tiles a cell
// packs are usually cold.
func packTransposed(dst []float64, s *Dense, x0, k0, xc, kc, w int) {
	ld := s.Cols
	for j0 := 0; j0 < xc; j0 += w {
		panel := dst[j0*kc : (j0+w)*kc]
		rows := min(w, xc-j0)
		if rows < w {
			clear(panel)
		}
		src := s.Data[(x0+j0)*ld+k0:]
		r := 0
		for ; r+8 <= rows; r += 8 {
			s0 := src[r*ld : r*ld+kc]
			s1 := src[(r+1)*ld : (r+1)*ld+kc]
			s2 := src[(r+2)*ld : (r+2)*ld+kc]
			s3 := src[(r+3)*ld : (r+3)*ld+kc]
			s4 := src[(r+4)*ld : (r+4)*ld+kc]
			s5 := src[(r+5)*ld : (r+5)*ld+kc]
			s6 := src[(r+6)*ld : (r+6)*ld+kc]
			s7 := src[(r+7)*ld : (r+7)*ld+kc]
			for p, v := range s0 {
				q := panel[p*w+r : p*w+r+8 : p*w+r+8]
				q[0], q[1], q[2], q[3] = v, s1[p], s2[p], s3[p]
				q[4], q[5], q[6], q[7] = s4[p], s5[p], s6[p], s7[p]
			}
		}
		for ; r+4 <= rows; r += 4 {
			s0 := src[r*ld : r*ld+kc]
			s1 := src[(r+1)*ld : (r+1)*ld+kc]
			s2 := src[(r+2)*ld : (r+2)*ld+kc]
			s3 := src[(r+3)*ld : (r+3)*ld+kc]
			for p, v := range s0 {
				q := panel[p*w+r : p*w+r+4 : p*w+r+4]
				q[0], q[1], q[2], q[3] = v, s1[p], s2[p], s3[p]
			}
		}
		for ; r < rows; r++ {
			for p, v := range src[r*ld : r*ld+kc] {
				panel[p*w+r] = v
			}
		}
	}
}

// macroKernel multiplies the packed mc×kc A panel by the packed kc×nc B
// slab, accumulating into C at offset (ic, jc): one micro-kernel call
// per micro-tile, the B micro-panel held in L1 across a column of them.
func macroKernel(kern *kernel, c *Dense, ap, bp []float64, ic, jc, mc, nc, kc int) {
	ldc := c.Cols
	mr, nr := kern.mr, kern.nr
	for j0 := 0; j0 < nc; j0 += nr {
		bpanel := bp[j0*kc : (j0+nr)*kc]
		cols := min(nr, nc-j0)
		for i0 := 0; i0 < mc; i0 += mr {
			kern.tile(kc, ap[i0*kc:(i0+mr)*kc], bpanel, c.Data[(ic+i0)*ldc+jc+j0:], ldc, min(mr, mc-i0), cols)
		}
	}
}
