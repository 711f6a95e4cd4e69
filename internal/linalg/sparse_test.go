package linalg

import (
	"testing"
	"testing/quick"
)

func TestCOORoundTrip(t *testing.T) {
	d := RandDense(8, 5, 0, 1, 7)
	d.Set(2, 3, 0) // force a structural zero
	c := DenseToCOO(d)
	if !c.ToDense().Equal(d) {
		t.Fatal("COO round trip mismatch")
	}
	if c.NNZ() >= 40 {
		t.Fatal("sparsifier kept a zero")
	}
}

func TestCOOAppendBounds(t *testing.T) {
	c := NewCOO(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected bounds panic")
		}
	}()
	c.Append(2, 0, 1)
}

func TestCOODuplicatesSumInDense(t *testing.T) {
	c := NewCOO(2, 2)
	c.Append(0, 0, 1)
	c.Append(0, 0, 2)
	if got := c.ToDense().At(0, 0); got != 3 {
		t.Fatalf("duplicate sum %v", got)
	}
}

func TestCSRConversionAndAt(t *testing.T) {
	c := NewCOO(3, 4)
	c.Append(2, 1, 5)
	c.Append(0, 3, 2)
	c.Append(0, 0, 1)
	m := COOToCSR(c)
	if m.NNZ() != 3 {
		t.Fatalf("nnz %d", m.NNZ())
	}
	if m.At(0, 0) != 1 || m.At(0, 3) != 2 || m.At(2, 1) != 5 {
		t.Fatal("CSR At wrong values")
	}
	if m.At(1, 1) != 0 || m.At(0, 1) != 0 {
		t.Fatal("CSR At should return 0 for missing")
	}
}

func TestCSRDeduplicates(t *testing.T) {
	c := NewCOO(2, 2)
	c.Append(1, 1, 2)
	c.Append(1, 1, 3)
	m := COOToCSR(c)
	if m.NNZ() != 1 || m.At(1, 1) != 5 {
		t.Fatalf("dedup failed: nnz=%d at=%v", m.NNZ(), m.At(1, 1))
	}
}

func TestCSREmptyRows(t *testing.T) {
	c := NewCOO(5, 5)
	c.Append(4, 4, 1)
	m := COOToCSR(c)
	for i := 0; i < 4; i++ {
		if m.RowPtr[i+1] != m.RowPtr[i] {
			t.Fatalf("row %d should be empty", i)
		}
	}
	if !m.ToDense().Equal(c.ToDense()) {
		t.Fatal("dense mismatch")
	}
}

func TestSpMVMatchesDense(t *testing.T) {
	coo := RandSparseCOO(20, 15, 0.2, 5, 9)
	csr := COOToCSR(coo)
	v := RandVector(15, -1, 1, 10)
	want := MatVec(coo.ToDense(), v)
	got := csr.SpMV(v)
	if !got.EqualApprox(want, 1e-9) {
		t.Fatal("SpMV mismatch")
	}
}

func TestRandSparseDensity(t *testing.T) {
	c := RandSparseCOO(100, 100, 0.1, 5, 13)
	frac := float64(c.NNZ()) / 10000
	if frac < 0.05 || frac > 0.15 {
		t.Fatalf("density %v far from 0.1", frac)
	}
	for _, e := range c.Entries {
		if e.V < 1 || e.V > 5 {
			t.Fatalf("value %v out of range", e.V)
		}
	}
}

// Property: COO -> CSR -> dense equals COO -> dense for random sparse
// matrices (with unique coordinates).
func TestQuickCSRRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		c := RandSparseCOO(17, 13, 0.25, 9, seed)
		return COOToCSR(c).ToDense().Equal(c.ToDense())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
