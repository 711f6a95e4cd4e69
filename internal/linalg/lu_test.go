package linalg

import (
	"testing"
	"testing/quick"
)

// wellConditioned returns a diagonally dominant random matrix (always
// invertible).
func wellConditioned(n int, seed int64) *Dense {
	m := RandDense(n, n, -1, 1, seed)
	for i := 0; i < n; i++ {
		m.Add(i, i, float64(n))
	}
	return m
}

func TestFactorizeReconstructs(t *testing.T) {
	a := wellConditioned(6, 1)
	lu, err := Factorize(a)
	if err != nil {
		t.Fatal(err)
	}
	n := a.Rows
	// Rebuild L and U from the packed factors.
	l := Eye(n)
	u := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j < i {
				l.Set(i, j, lu.Factors.At(i, j))
			} else {
				u.Set(i, j, lu.Factors.At(i, j))
			}
		}
	}
	// P*A: apply recorded row swaps in order.
	pa := a.Clone()
	for k := 0; k < n; k++ {
		if p := lu.Pivot[k]; p != k {
			swapRows(pa, p, k)
		}
	}
	if got := Mul(l, u); !got.EqualApprox(pa, 1e-9) {
		t.Fatalf("L*U != P*A: %g", got.MaxAbsDiff(pa))
	}
}

func TestSolve(t *testing.T) {
	a := wellConditioned(8, 2)
	xTrue := RandVector(8, -2, 2, 3)
	b := MatVec(a, xTrue)
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !x.EqualApprox(xTrue, 1e-8) {
		t.Fatal("solve mismatch")
	}
}

func TestSingularDetection(t *testing.T) {
	a := NewDenseFrom(2, 2, []float64{1, 2, 2, 4}) // rank 1
	if _, err := Factorize(a); err != ErrSingular {
		t.Fatalf("expected ErrSingular, got %v", err)
	}
	if _, err := Factorize(NewDense(3, 3)); err == nil {
		t.Fatal("zero matrix must be singular")
	}
}

func TestFactorizeShapeError(t *testing.T) {
	if _, err := Factorize(NewDense(2, 3)); err != ErrShape {
		t.Fatalf("expected ErrShape, got %v", err)
	}
}

func TestPivotingHandlesZeroLeadingElement(t *testing.T) {
	// Without pivoting this matrix fails at the first pivot.
	a := NewDenseFrom(2, 2, []float64{0, 1, 1, 0})
	x, err := Solve(a, NewVectorFrom([]float64{2, 3}))
	if err != nil {
		t.Fatal(err)
	}
	if x.Data[0] != 3 || x.Data[1] != 2 {
		t.Fatalf("permutation solve wrong: %v", x.Data)
	}
}

// Property: solve(A, A*x) == x for random well-conditioned systems.
func TestQuickSolveRoundTrip(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := int(sz%8) + 2
		a := wellConditioned(n, seed)
		x := RandVector(n, -3, 3, seed+1)
		b := MatVec(a, x)
		got, err := Solve(a, b)
		if err != nil {
			return false
		}
		return got.EqualApprox(x, 1e-7)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
