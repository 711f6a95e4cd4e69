package linalg

import (
	"fmt"
	"math"
)

// Vector is a dense float64 vector; the paper's vector blocks are
// Array[Double] of fixed size N.
type Vector struct {
	Data []float64
}

// NewVector allocates a zeroed vector of length n.
func NewVector(n int) *Vector {
	if n < 0 {
		panic(fmt.Sprintf("linalg: negative vector length %d", n))
	}
	return &Vector{Data: make([]float64, n)}
}

// NewVectorFrom wraps data as a vector without copying.
func NewVectorFrom(data []float64) *Vector { return &Vector{Data: data} }

// Len returns the vector length.
func (v *Vector) Len() int { return len(v.Data) }

// At returns element i.
func (v *Vector) At(i int) float64 { return v.Data[i] }

// Set assigns element i.
func (v *Vector) Set(i int, x float64) { v.Data[i] = x }

// Clone returns a deep copy.
func (v *Vector) Clone() *Vector {
	d := make([]float64, len(v.Data))
	copy(d, v.Data)
	return &Vector{Data: d}
}

// AddInPlace accumulates w into v element-wise. This is the paper's
// addVectors reducer for vector blocks.
func (v *Vector) AddInPlace(w *Vector) *Vector {
	if len(v.Data) != len(w.Data) {
		panic(ErrShape)
	}
	for i, x := range w.Data {
		v.Data[i] += x
	}
	return v
}

// ScaleInPlace multiplies every element by a.
func (v *Vector) ScaleInPlace(a float64) *Vector {
	for i := range v.Data {
		v.Data[i] *= a
	}
	return v
}

// Dot returns the inner product of v and w.
func Dot(v, w *Vector) float64 {
	if len(v.Data) != len(w.Data) {
		panic(ErrShape)
	}
	var s float64
	for i, x := range v.Data {
		s += x * w.Data[i]
	}
	return s
}

// Sum returns the sum of all elements.
func (v *Vector) Sum() float64 {
	var s float64
	for _, x := range v.Data {
		s += x
	}
	return s
}

// Equal reports exact element-wise equality.
func (v *Vector) Equal(w *Vector) bool {
	if len(v.Data) != len(w.Data) {
		return false
	}
	for i, x := range v.Data {
		if x != w.Data[i] {
			return false
		}
	}
	return true
}

// EqualApprox reports element-wise equality within tolerance tol.
func (v *Vector) EqualApprox(w *Vector, tol float64) bool {
	if len(v.Data) != len(w.Data) {
		return false
	}
	for i, x := range v.Data {
		if math.Abs(x-w.Data[i]) > tol {
			return false
		}
	}
	return true
}

// MatVec computes m * v.
func MatVec(m *Dense, v *Vector) *Vector {
	if m.Cols != len(v.Data) {
		panic(ErrShape)
	}
	out := NewVector(m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, a := range row {
			s += a * v.Data[j]
		}
		out.Data[i] = s
	}
	return out
}

// VecMat computes v^T * m, returned as a vector of length m.Cols.
func VecMat(v *Vector, m *Dense) *Vector {
	if m.Rows != len(v.Data) {
		panic(ErrShape)
	}
	out := NewVector(m.Cols)
	for i := 0; i < m.Rows; i++ {
		a := v.Data[i]
		if a == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, b := range row {
			out.Data[j] += a * b
		}
	}
	return out
}
