package linalg

import (
	"math"
	"testing"
	"testing/quick"
)

func TestVectorBasics(t *testing.T) {
	v := NewVector(3)
	v.Set(0, 1)
	v.Set(2, 4)
	if v.At(0) != 1 || v.At(1) != 0 || v.At(2) != 4 {
		t.Fatalf("values %v", v.Data)
	}
	if v.Len() != 3 || v.Sum() != 5 {
		t.Fatal("len/sum")
	}
	c := v.Clone()
	c.Set(0, 99)
	if v.At(0) == 99 {
		t.Fatal("clone shares storage")
	}
}

func TestDotOuterNorm(t *testing.T) {
	v := NewVectorFrom([]float64{1, 2})
	w := NewVectorFrom([]float64{3, 4})
	if Dot(v, w) != 11 {
		t.Fatalf("dot %v", Dot(v, w))
	}
	if norm := math.Sqrt(Dot(w, w)); math.Abs(norm-5) > 1e-12 {
		t.Fatalf("norm %v", norm)
	}
}

func TestDotShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape panic")
		}
	}()
	Dot(NewVector(2), NewVector(3))
}

func TestMatVecAndVecMat(t *testing.T) {
	m := NewDenseFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	v := NewVectorFrom([]float64{1, 0, -1})
	got := MatVec(m, v)
	if !got.Equal(NewVectorFrom([]float64{-2, -2})) {
		t.Fatalf("matvec %v", got.Data)
	}
	u := NewVectorFrom([]float64{1, -1})
	got2 := VecMat(u, m)
	if !got2.Equal(NewVectorFrom([]float64{-3, -3, -3})) {
		t.Fatalf("vecmat %v", got2.Data)
	}
}

// Property: MatVec(M, v) equals (M * v-as-column) flattened.
func TestQuickMatVecViaMul(t *testing.T) {
	f := func(seed int64) bool {
		m := RandDense(5, 7, -2, 2, seed)
		v := RandVector(7, -2, 2, seed+1)
		col := NewDenseFrom(7, 1, v.Clone().Data)
		want := Mul(m, col)
		got := MatVec(m, v)
		return NewDenseFrom(5, 1, got.Data).EqualApprox(want, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: Dot is symmetric and linear in its first argument.
func TestQuickDotProperties(t *testing.T) {
	f := func(seed int64) bool {
		v := RandVector(9, -3, 3, seed)
		w := RandVector(9, -3, 3, seed+5)
		if math.Abs(Dot(v, w)-Dot(w, v)) > 1e-9 {
			return false
		}
		v2 := v.Clone().ScaleInPlace(2)
		return math.Abs(Dot(v2, w)-2*Dot(v, w)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
