package linalg

import (
	"runtime"
	"sync"
)

// Gemm computes C += A * B on dense row-major matrices. Tiles large
// enough to spill cache route through the blocked, packed Goto-style
// kernel (gemm_blocked.go); small tiles use the i-k-j loop that the
// paper's group-by translation derives for tile multiplication:
//
//	V(i*N+j) += A(i*N+k) * B(k*N+j)
//
// C must be pre-allocated with shape A.Rows x B.Cols.
func Gemm(c, a, b *Dense) { GemmOp(c, a, b, false, false, 1) }

// GemmBudget is Gemm with an explicit worker budget: par <= 1 runs
// serially, par > 1 splits the row dimension over up to par goroutines
// sharing the packed B slab. Engine call sites pass
// dataflow.Context.KernelBudget so in-tile parallelism only kicks in
// when the stage pool has idle cores.
func GemmBudget(c, a, b *Dense, par int) { GemmOp(c, a, b, false, false, par) }

// GemmOp computes C += op(A)·op(B) with at most par workers, op(X)
// being X, or Xᵀ when its flag is set. A transposed operand is never
// copied: the blocked kernel packs its panels transposed, which are
// exactly the panels of the transposed copy, and the small-shape loop
// reads it through swapped strides in the order it reads the copy — so
// the result equals Gemm on transposed copies bit for bit.
func GemmOp(c, a, b *Dense, transA, transB bool, par int) {
	m, k := opDims(a, transA)
	kb, n := opDims(b, transB)
	if k != kb || c.Rows != m || c.Cols != n {
		panic(ErrShape)
	}
	if m*n*k >= blockedMinFlops {
		gemmBlocked(c, a, b, transA, transB, par)
	} else {
		gemmIKJ(c, a, b, k, transA, transB)
	}
}

// opDims returns the rows and columns of op(X).
func opDims(x *Dense, trans bool) (rows, cols int) {
	if trans {
		return x.Cols, x.Rows
	}
	return x.Rows, x.Cols
}

// GemmIKJ computes C += A*B with the unblocked i-k-j loop — the kernel
// the paper's translation produces before local-kernel optimization.
// Kept exported as the benchmark baseline for the blocked kernel.
func GemmIKJ(c, a, b *Dense) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(ErrShape)
	}
	gemmIKJ(c, a, b, a.Cols, false, false)
}

// gemmIKJ computes C += op(A)·op(B) with the i-k-j order, k the shared
// dimension, reading a transposed operand in place: op(A)[i][p] is
// a.Data[i*ai+p*ap], and row p of op(B) is a row of B or, transposed, a
// column read with stride b.Cols. The dense path is branch-free:
// zero-skipping moved to the sparse/CSR kernels, where skipping pays; on
// dense tiles the per-element branch mispredicts and starves the inner
// loop.
func gemmIKJ(c, a, b *Dense, k int, transA, transB bool) {
	ai, ap := a.Cols, 1
	if transA {
		ai, ap = 1, a.Cols
	}
	for i := 0; i < c.Rows; i++ {
		crow := c.Data[i*c.Cols : (i+1)*c.Cols]
		for p := 0; p < k; p++ {
			aip := a.Data[i*ai+p*ap]
			if !transB {
				for j, bpj := range b.Data[p*b.Cols : (p+1)*b.Cols] {
					crow[j] += aip * bpj
				}
				continue
			}
			for j := range crow {
				crow[j] += aip * b.Data[p+j*b.Cols]
			}
		}
	}
}

// GemmNaive computes C += A*B with the textbook i-j-k triple loop. It is
// the reference oracle for property tests of the optimized kernels.
func GemmNaive(c, a, b *Dense) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(ErrShape)
	}
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			c.Add(i, j, s)
		}
	}
}

// ParGemm computes C += A*B with the full GOMAXPROCS worker budget,
// standing in for the per-tile multicore parallelism (.par) in the
// paper's generated Spark code. Inside engine tasks prefer GemmBudget
// with Context.KernelBudget, which accounts for stage-pool occupancy.
func ParGemm(c, a, b *Dense) {
	GemmBudget(c, a, b, runtime.GOMAXPROCS(0))
}

// Mul returns A*B as a new matrix using the serial kernel.
func Mul(a, b *Dense) *Dense {
	c := NewDense(a.Rows, b.Cols)
	Gemm(c, a, b)
	return c
}

// parMinWork is the element-op volume below which parRows runs inline:
// goroutine spawn plus WaitGroup rendezvous costs on the order of
// microseconds, which dwarfs the loop body for small tiles.
const parMinWork = 1 << 15

// parRows splits [0,n) into contiguous chunks, one per worker, and runs
// body on each chunk concurrently. work is the caller's estimate of
// total element operations; below parMinWork (or with n < 2 or a single
// CPU) it runs inline.
func parRows(n int, work int, body func(r0, r1 int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 || work < parMinWork {
		body(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for r0 := 0; r0 < n; r0 += chunk {
		r1 := r0 + chunk
		if r1 > n {
			r1 = n
		}
		wg.Add(1)
		go func(r0, r1 int) {
			defer wg.Done()
			body(r0, r1)
		}(r0, r1)
	}
	wg.Wait()
}

// AddInPlace computes A += B element-wise and returns A. It is the tile
// monoid used by reduceByKey over blocks.
func AddInPlace(a, b *Dense) *Dense {
	if !a.SameShape(b) {
		panic(ErrShape)
	}
	for i, v := range b.Data {
		a.Data[i] += v
	}
	return a
}

// AddDense returns A + B as a new matrix.
func AddDense(a, b *Dense) *Dense { return AddInPlace(a.Clone(), b) }

// ParAddInPlace is AddInPlace with row-sliced goroutine parallelism;
// small tiles run inline (see parRows).
func ParAddInPlace(a, b *Dense) *Dense {
	if !a.SameShape(b) {
		panic(ErrShape)
	}
	parRows(a.Rows, len(a.Data), func(r0, r1 int) {
		for i := r0 * a.Cols; i < r1*a.Cols; i++ {
			a.Data[i] += b.Data[i]
		}
	})
	return a
}

// SubInPlace computes A -= B element-wise and returns A.
func SubInPlace(a, b *Dense) *Dense {
	if !a.SameShape(b) {
		panic(ErrShape)
	}
	for i, v := range b.Data {
		a.Data[i] -= v
	}
	return a
}

// SubDense returns A - B as a new matrix.
func SubDense(a, b *Dense) *Dense { return SubInPlace(a.Clone(), b) }

// ScaleInPlace multiplies every element of A by s and returns A.
func ScaleInPlace(a *Dense, s float64) *Dense {
	for i := range a.Data {
		a.Data[i] *= s
	}
	return a
}

// Scale returns s*A as a new matrix.
func Scale(a *Dense, s float64) *Dense { return ScaleInPlace(a.Clone(), s) }

// AXPYInPlace computes A += s*B and returns A; the fused update used by
// gradient-descent factorization steps P <- P + gamma*(...).
func AXPYInPlace(a *Dense, s float64, b *Dense) *Dense {
	if !a.SameShape(b) {
		panic(ErrShape)
	}
	for i, v := range b.Data {
		a.Data[i] += s * v
	}
	return a
}
