package linalg

import (
	"testing"
	"testing/quick"
)

func TestGemmMatchesNaive(t *testing.T) {
	for _, dims := range [][3]int{{1, 1, 1}, {2, 3, 4}, {5, 5, 5}, {7, 1, 9}, {16, 32, 8}} {
		n, l, m := dims[0], dims[1], dims[2]
		a := RandDense(n, l, -2, 2, int64(n*100+l))
		b := RandDense(l, m, -2, 2, int64(l*100+m))
		want := NewDense(n, m)
		GemmNaive(want, a, b)
		got := NewDense(n, m)
		Gemm(got, a, b)
		if !got.EqualApprox(want, 1e-9) {
			t.Fatalf("Gemm mismatch for %v: max diff %g", dims, got.MaxAbsDiff(want))
		}
	}
}

func TestParGemmMatchesSerial(t *testing.T) {
	a := RandDense(37, 23, -1, 1, 11)
	b := RandDense(23, 41, -1, 1, 12)
	want := Mul(a, b)
	got := NewDense(37, 41)
	ParGemm(got, a, b)
	if !got.EqualApprox(want, 1e-9) {
		t.Fatalf("ParGemm mismatch: %g", got.MaxAbsDiff(want))
	}
}

func TestGemmAccumulates(t *testing.T) {
	a := Eye(3)
	b := Eye(3)
	c := Eye(3)
	Gemm(c, a, b) // c = I + I*I = 2I
	want := Scale(Eye(3), 2)
	if !c.Equal(want) {
		t.Fatalf("Gemm should accumulate into C, got %v", c)
	}
}

func TestGemmShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape panic")
		}
	}()
	Gemm(NewDense(2, 2), NewDense(2, 3), NewDense(2, 2))
}

func TestMulIdentity(t *testing.T) {
	a := RandDense(6, 6, -5, 5, 21)
	if !Mul(a, Eye(6)).EqualApprox(a, 1e-12) {
		t.Fatal("A*I != A")
	}
	if !Mul(Eye(6), a).EqualApprox(a, 1e-12) {
		t.Fatal("I*A != A")
	}
}

func TestAddSubScaleHadamard(t *testing.T) {
	a := NewDenseFrom(2, 2, []float64{1, 2, 3, 4})
	b := NewDenseFrom(2, 2, []float64{10, 20, 30, 40})
	if got := AddDense(a, b); !got.Equal(NewDenseFrom(2, 2, []float64{11, 22, 33, 44})) {
		t.Fatalf("add %v", got)
	}
	if got := SubDense(b, a); !got.Equal(NewDenseFrom(2, 2, []float64{9, 18, 27, 36})) {
		t.Fatalf("sub %v", got)
	}
	if got := Scale(a, 2); !got.Equal(NewDenseFrom(2, 2, []float64{2, 4, 6, 8})) {
		t.Fatalf("scale %v", got)
	}
	if got := AXPYInPlace(a.Clone(), 0.5, b); !got.Equal(NewDenseFrom(2, 2, []float64{6, 12, 18, 24})) {
		t.Fatalf("axpy %v", got)
	}
}

func TestParAddMatchesSerial(t *testing.T) {
	a := RandDense(33, 17, -1, 1, 31)
	b := RandDense(33, 17, -1, 1, 32)
	want := AddDense(a, b)
	got := ParAddInPlace(a.Clone(), b)
	if !got.Equal(want) {
		t.Fatal("parallel add mismatch")
	}
}

func TestGemmTransA(t *testing.T) {
	a := RandDense(7, 4, -1, 1, 41)
	b := RandDense(7, 5, -1, 1, 42)
	want := Mul(a.Transpose(), b)
	got := NewDense(4, 5)
	GemmOp(got, a, b, true, false, 1)
	if !got.EqualApprox(want, 1e-9) {
		t.Fatalf("GemmOp transA mismatch %g", got.MaxAbsDiff(want))
	}
}

func TestGemmTransB(t *testing.T) {
	a := RandDense(6, 4, -1, 1, 43)
	b := RandDense(8, 4, -1, 1, 44)
	want := Mul(a, b.Transpose())
	got := NewDense(6, 8)
	GemmOp(got, a, b, false, true, 1)
	if !got.EqualApprox(want, 1e-9) {
		t.Fatalf("GemmOp transB mismatch %g", got.MaxAbsDiff(want))
	}
}

// Property: matrix multiplication distributes over addition.
func TestQuickDistributivity(t *testing.T) {
	f := func(seed int64) bool {
		a := RandDense(4, 6, -3, 3, seed)
		b := RandDense(6, 5, -3, 3, seed+1)
		c := RandDense(6, 5, -3, 3, seed+2)
		left := Mul(a, AddDense(b, c))
		right := AddDense(Mul(a, b), Mul(a, c))
		return left.EqualApprox(right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: (A*B)^T = B^T * A^T.
func TestQuickTransposeOfProduct(t *testing.T) {
	f := func(seed int64) bool {
		a := RandDense(3, 7, -2, 2, seed)
		b := RandDense(7, 4, -2, 2, seed+9)
		return Mul(a, b).Transpose().EqualApprox(Mul(b.Transpose(), a.Transpose()), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: associativity (A*B)*C = A*(B*C) within tolerance.
func TestQuickAssociativity(t *testing.T) {
	f := func(seed int64) bool {
		a := RandDense(3, 4, -1, 1, seed)
		b := RandDense(4, 5, -1, 1, seed+100)
		c := RandDense(5, 2, -1, 1, seed+200)
		return Mul(Mul(a, b), c).EqualApprox(Mul(a, Mul(b, c)), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
