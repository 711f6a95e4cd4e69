// Package ml implements the third evaluation workload of the paper
// (Section 6, Figure 4.C): one iteration of gradient-descent matrix
// factorization [Koren et al.],
//
//	E <- R - P x Q^T
//	P <- P + gamma * (2 E x Q - lambda P)
//	Q <- Q + gamma * (2 E^T x P - lambda Q)
//
// in three variants: dense single-node (the correctness oracle), SAC
// on tiled matrices with group-by-join multiplications, and the MLlib
// BlockMatrix baseline. The two transposed products, P Qᵀ and Eᵀ P, are
// one product oriented by a flag (linalg.GemmOp in the oracle,
// tiled.Product on tiles): no operand is transposed by copying it.
package ml

import (
	"repro/internal/dataflow"
	"repro/internal/linalg"
	"repro/internal/mllib"
	"repro/internal/tiled"
)

// Config holds the gradient-descent hyperparameters; the paper used
// gamma = 0.002 and lambda = 0.02.
type Config struct {
	Gamma  float64
	Lambda float64
}

// PaperConfig returns the paper's hyperparameters.
func PaperConfig() Config { return Config{Gamma: 0.002, Lambda: 0.02} }

// StepDense runs one factorization iteration on dense matrices; the
// reference the distributed variants are tested against.
func StepDense(r, p, q *linalg.Dense, cfg Config) (*linalg.Dense, *linalg.Dense) {
	// E = R - P Q^T
	e := r.Clone()
	pq := linalg.NewDense(p.Rows, q.Rows)
	linalg.GemmOp(pq, p, q, false, true, 1)
	linalg.SubInPlace(e, pq)

	// P' = P + gamma (2 E Q - lambda P)
	eq := linalg.Mul(e, q)
	pNew := p.Clone()
	linalg.AXPYInPlace(pNew, 2*cfg.Gamma, eq)
	linalg.AXPYInPlace(pNew, -cfg.Gamma*cfg.Lambda, p)

	// Q' = Q + gamma (2 E^T P - lambda Q)
	etp := linalg.NewDense(e.Cols, p.Cols)
	linalg.GemmOp(etp, e, p, true, false, 1)
	qNew := q.Clone()
	linalg.AXPYInPlace(qNew, 2*cfg.Gamma, etp)
	linalg.AXPYInPlace(qNew, -cfg.Gamma*cfg.Lambda, q)
	return pNew, qNew
}

// StepTiled runs one iteration on tiled matrices using the SAC
// group-by-join multiplications (the paper's "SAC GBJ" line) and
// tiling-preserving updates. R is n x m, P is n x k, Q is m x k.
func StepTiled(r, p, q *tiled.Matrix, cfg Config) (*tiled.Matrix, *tiled.Matrix) {
	e := r.Sub(tiled.GroupByJoin(p, q, tiled.Product{TransB: true}))
	pNew := p.AXPY(2*cfg.Gamma, e.MultiplyGBJ(q)).AXPY(-cfg.Gamma*cfg.Lambda, p)
	qNew := q.AXPY(2*cfg.Gamma, tiled.GroupByJoin(e, p, tiled.Product{TransA: true})).AXPY(-cfg.Gamma*cfg.Lambda, q)
	return pNew, qNew
}

// StepMLlib runs one iteration on MLlib BlockMatrices, composing the
// library operators the way an MLlib user must (transpose is
// materialized; updates use scale/add).
func StepMLlib(r, p, q *mllib.BlockMatrix, cfg Config) (*mllib.BlockMatrix, *mllib.BlockMatrix) {
	e := r.Subtract(p.Multiply(q.Transpose()))
	pNew := p.Add(e.Multiply(q).Scale(2 * cfg.Gamma)).Add(p.Scale(-cfg.Gamma * cfg.Lambda))
	qNew := q.Add(e.Transpose().Multiply(p).Scale(2 * cfg.Gamma)).Add(q.Scale(-cfg.Gamma * cfg.Lambda))
	return pNew, qNew
}

// Factorize runs iters gradient-descent iterations with SAC GBJ
// multiplications, managing the tile cache across iterations: each new
// iterate (P', Q') is persisted and materialized, then the superseded
// iterate is recycled — its cached tiles go back to the context tile
// pool and the cache entry is dropped — so the cache holds only R and
// the live factors instead of pinning every iteration's tiles, and the
// next iteration's kernels allocate nothing.
func Factorize(r, p, q *tiled.Matrix, iters int, cfg Config) (*tiled.Matrix, *tiled.Matrix) {
	if !r.Tiles.IsPersisted() {
		r.Persist()
		defer r.Unpersist()
	}
	for i := 0; i < iters; i++ {
		np, nq := StepTiled(r, p, q, cfg)
		np.Persist()
		nq.Persist()
		dataflow.Count(np.Tiles)
		dataflow.Count(nq.Tiles)
		if i > 0 {
			// p and q were persisted by the previous round of this
			// loop and their tiles are owned solely by that round's
			// lineage (AXPY clones; np/nq are already materialized),
			// so the superseded factors can be recycled into the tile
			// pool. The caller's original factors stay untouched.
			p.Recycle()
			q.Recycle()
		}
		p, q = np, nq
	}
	return p, q
}

// Loss returns the squared Frobenius error ||R - P Q^T||^2 of a tiled
// factorization, used to check that iterations decrease the objective.
func Loss(r, p, q *tiled.Matrix) float64 {
	return r.Sub(tiled.GroupByJoin(p, q, tiled.Product{TransB: true})).FrobeniusNorm2()
}
