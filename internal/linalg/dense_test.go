package linalg

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDenseZeroed(t *testing.T) {
	m := NewDense(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("bad shape: %+v", m)
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("not zeroed")
		}
	}
}

func TestNewDenseFromChecksLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bad length")
		}
	}()
	NewDenseFrom(2, 2, []float64{1, 2, 3})
}

func TestAtSetAdd(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Fatalf("got %v", m.At(1, 2))
	}
	m.Add(1, 2, 2.5)
	if m.At(1, 2) != 7.5 {
		t.Fatalf("got %v", m.At(1, 2))
	}
	if m.Data[1*3+2] != 7.5 {
		t.Fatal("row-major layout violated")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := RandDense(4, 5, 0, 10, 1)
	c := m.Clone()
	c.Set(0, 0, -1)
	if m.At(0, 0) == -1 {
		t.Fatal("clone shares storage")
	}
	if !m.Equal(m.Clone()) {
		t.Fatal("clone not equal")
	}
}

func TestTranspose(t *testing.T) {
	m := RandDense(3, 7, -1, 1, 2)
	tr := m.Transpose()
	if tr.Rows != 7 || tr.Cols != 3 {
		t.Fatalf("bad transpose shape %dx%d", tr.Rows, tr.Cols)
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("mismatch at (%d,%d)", i, j)
			}
		}
	}
	if !m.Transpose().Transpose().Equal(m) {
		t.Fatal("transpose not involutive")
	}
}

func TestSliceAndCopyInto(t *testing.T) {
	m := RandDense(6, 6, 0, 1, 3)
	s := m.Slice(1, 4, 2, 6)
	if s.Rows != 3 || s.Cols != 4 {
		t.Fatalf("bad slice shape %dx%d", s.Rows, s.Cols)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if s.At(i, j) != m.At(i+1, j+2) {
				t.Fatalf("slice value mismatch at (%d,%d)", i, j)
			}
		}
	}
	dst := NewDense(6, 6)
	dst.CopyInto(s, 1, 2)
	if dst.At(2, 3) != m.At(2, 3) {
		t.Fatal("CopyInto misplaced data")
	}
	if dst.At(0, 0) != 0 {
		t.Fatal("CopyInto touched outside target")
	}
}

func TestSliceBounds(t *testing.T) {
	m := NewDense(2, 2)
	for _, c := range [][4]int{{-1, 2, 0, 2}, {0, 3, 0, 2}, {1, 0, 0, 2}, {0, 2, 0, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for slice %v", c)
				}
			}()
			m.Slice(c[0], c[1], c[2], c[3])
		}()
	}
}

func TestRowColSumsAndDiag(t *testing.T) {
	m := NewDenseFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	rs := m.RowSums()
	if rs.At(0) != 6 || rs.At(1) != 15 {
		t.Fatalf("row sums %v", rs.Data)
	}
	cs := m.ColSums()
	if cs.At(0) != 5 || cs.At(1) != 7 || cs.At(2) != 9 {
		t.Fatalf("col sums %v", cs.Data)
	}
	d := m.Diag()
	if d.Len() != 2 || d.At(0) != 1 || d.At(1) != 5 {
		t.Fatalf("diag %v", d.Data)
	}
	if m.Sum() != 21 {
		t.Fatalf("sum %v", m.Sum())
	}
}

func TestEyeAndNorm(t *testing.T) {
	e := Eye(4)
	if e.Sum() != 4 {
		t.Fatal("identity sum")
	}
	if math.Abs(e.FrobeniusNorm()-2) > 1e-12 {
		t.Fatalf("norm %v", e.FrobeniusNorm())
	}
}

func TestEqualApproxAndMaxAbsDiff(t *testing.T) {
	a := RandDense(3, 3, 0, 1, 4)
	b := a.Clone()
	b.Add(1, 1, 1e-9)
	if !a.EqualApprox(b, 1e-8) {
		t.Fatal("should be approx equal")
	}
	if a.EqualApprox(b, 1e-10) {
		t.Fatal("should not be approx equal at tight tol")
	}
	if d := a.MaxAbsDiff(b); math.Abs(d-1e-9) > 1e-15 {
		t.Fatalf("diff %v", d)
	}
	if !math.IsInf(a.MaxAbsDiff(NewDense(1, 1)), 1) {
		t.Fatal("shape mismatch should be +Inf")
	}
}

// Property: transpose is an involution for arbitrary shapes/values.
func TestQuickTransposeInvolution(t *testing.T) {
	f := func(rows, cols uint8, seed int64) bool {
		r, c := int(rows%16)+1, int(cols%16)+1
		m := RandDense(r, c, -100, 100, seed)
		return m.Transpose().Transpose().Equal(m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: (A^T)_{ji} row sums equal A column sums.
func TestQuickTransposeSums(t *testing.T) {
	f := func(seed int64) bool {
		m := RandDense(5, 9, -10, 10, seed)
		return m.Transpose().RowSums().EqualApprox(m.ColSums(), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestStringForms(t *testing.T) {
	small := NewDenseFrom(1, 2, []float64{1, 2})
	if got := small.String(); got != "Dense(1x2)[1 2]" {
		t.Fatalf("small string %q", got)
	}
	big := NewDense(100, 100)
	if got := big.String(); got != "Dense(100x100)" {
		t.Fatalf("big string %q", got)
	}
}

func TestNumBytes(t *testing.T) {
	if NewDense(10, 10).NumBytes() != 800 {
		t.Fatal("NumBytes should be 8 per element")
	}
}
