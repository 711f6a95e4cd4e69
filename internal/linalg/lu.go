package linalg

import (
	"errors"
	"math"
)

// LU factorization with partial pivoting. The paper's conclusion notes
// that operations like matrix inverse "require a special LU
// decomposition algorithm" and "should be coded as black-box library
// functions in a high-performance array library" — this file is that
// library function for the reproduction: a local kernel the
// comprehension layer composes with rather than expresses.

// ErrSingular is returned when a factorization meets a numerically
// singular pivot.
var ErrSingular = errors.New("linalg: matrix is singular")

// LU holds a packed LU factorization: P*A = L*U with L unit lower
// triangular and U upper triangular, stored in one matrix. Pivot[i]
// records the row swapped into position i; Sign is the permutation
// parity (+1/-1).
type LU struct {
	Factors *Dense
	Pivot   []int
	Sign    float64
}

// Factorize computes the pivoted LU factorization of a square matrix.
func Factorize(a *Dense) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, ErrShape
	}
	n := a.Rows
	f := a.Clone()
	piv := make([]int, n)
	sign := 1.0
	for k := 0; k < n; k++ {
		// Partial pivoting: largest magnitude in column k at or below k.
		p := k
		maxAbs := math.Abs(f.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(f.At(i, k)); v > maxAbs {
				p, maxAbs = i, v
			}
		}
		piv[k] = p
		if maxAbs < 1e-14 {
			return nil, ErrSingular
		}
		if p != k {
			swapRows(f, p, k)
			sign = -sign
		}
		pivot := f.At(k, k)
		for i := k + 1; i < n; i++ {
			l := f.At(i, k) / pivot
			f.Set(i, k, l)
			row := f.Data[i*n : (i+1)*n]
			krow := f.Data[k*n : (k+1)*n]
			for j := k + 1; j < n; j++ {
				row[j] -= l * krow[j]
			}
		}
	}
	return &LU{Factors: f, Pivot: piv, Sign: sign}, nil
}

func swapRows(m *Dense, a, b int) {
	ra := m.Data[a*m.Cols : (a+1)*m.Cols]
	rb := m.Data[b*m.Cols : (b+1)*m.Cols]
	for j := range ra {
		ra[j], rb[j] = rb[j], ra[j]
	}
}

// Solve computes x with A x = b for the factorized A.
func (lu *LU) Solve(b *Vector) (*Vector, error) {
	n := lu.Factors.Rows
	if b.Len() != n {
		return nil, ErrShape
	}
	x := b.Clone()
	// Apply the permutation.
	for k := 0; k < n; k++ {
		if p := lu.Pivot[k]; p != k {
			x.Data[k], x.Data[p] = x.Data[p], x.Data[k]
		}
	}
	// Forward substitution (L is unit lower triangular).
	for i := 1; i < n; i++ {
		row := lu.Factors.Data[i*n : (i+1)*n]
		var s float64
		for j := 0; j < i; j++ {
			s += row[j] * x.Data[j]
		}
		x.Data[i] -= s
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		row := lu.Factors.Data[i*n : (i+1)*n]
		var s float64
		for j := i + 1; j < n; j++ {
			s += row[j] * x.Data[j]
		}
		x.Data[i] = (x.Data[i] - s) / row[i]
	}
	return x, nil
}

// Solve computes x with A x = b in one call.
func Solve(a *Dense, b *Vector) (*Vector, error) {
	lu, err := Factorize(a)
	if err != nil {
		return nil, err
	}
	return lu.Solve(b)
}
