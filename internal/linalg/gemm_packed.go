package linalg

import "sync"

// Packed is one GEMM operand packed whole into the micro-kernel's panel
// layout, for callers that multiply it more than once: a SUMMA cell
// multiplies each A tile by every B tile of its row, so packing per
// product would repeat the same copy |cols| times. PackA / PackB draw
// the buffer from a pool; Release hands it back.
//
// The layout is the blocked loop nest's, one Kc block after another:
// the micro-panel at shared-dimension offset pc and row/column offset
// x0 starts at xPad*pc + x0*kc, so GemmPacked reads exactly the panels
// Gemm would have packed, and the two agree bit for bit.
type Packed struct {
	kern  *kernel
	buf   []float64
	bSide bool
	x     int // rows of op(A), or columns of op(B)
	xPad  int // x rounded up to the micro-panel width
	k     int // shared dimension
}

var packedPool = sync.Pool{New: func() any { return new(Packed) }}

// PackA packs op(A) — A, or Aᵀ when trans — as the left operand of
// GemmPacked, for a product with n columns: the micro-kernel, hence the
// layout, is chosen per product shape, and PackB must be told the rows.
func PackA(a *Dense, trans bool, n int) *Packed { return pack(a, trans, false, n) }

// PackB packs op(B) — B, or Bᵀ when trans — as the right operand of
// GemmPacked, for a product with m rows.
func PackB(b *Dense, trans bool, m int) *Packed { return pack(b, trans, true, m) }

// pack packs s as one side of a product whose other side spans partner
// (columns of C for the A side, rows for the B side).
func pack(s *Dense, trans, bSide bool, partner int) *Packed {
	o := operandA(s, trans)
	if bSide {
		o = operandB(s, trans)
	}
	// The shared dimension runs along s's rows or its columns.
	k, x := s.Cols, s.Rows
	if o.kMajor {
		k, x = s.Rows, s.Cols
	}
	kern := kernelFor(x, partner)
	w := kern.mr
	if bSide {
		kern = kernelFor(partner, x)
		w = kern.nr
	}
	p := packedPool.Get().(*Packed)
	p.kern, p.bSide, p.x, p.xPad, p.k = kern, bSide, x, roundUp(x, w), k
	if need := p.xPad * k; cap(p.buf) < need {
		p.buf = make([]float64, need)
	} else {
		p.buf = p.buf[:need]
	}
	for pc := 0; pc < k; pc += blockK {
		o.panel(p.buf[p.xPad*pc:], pc, 0, min(blockK, k-pc), x, w)
	}
	return p
}

// Release returns p's buffer to the pool; p must not be used again.
func (p *Packed) Release() { packedPool.Put(p) }

// GemmPacked computes C += op(A)·op(B) from operands packed by PackA
// and PackB, with at most par workers. The result equals the matching
// GemmOp call bit for bit. Operands packed for different kernels (for
// another product shape) are refused.
func GemmPacked(c *Dense, a, b *Packed, par int) {
	if a.bSide || !b.bSide || a.kern != b.kern || a.k != b.k || c.Rows != a.x || c.Cols != b.x {
		panic(ErrShape)
	}
	gemmDrive(a.kern, c, operand{pre: a}, operand{pre: b}, a.k, par)
}
