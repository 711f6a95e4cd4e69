package linalg

import (
	"fmt"
	"sort"
)

// COO is a sparse matrix in coordinate (triplet) format: the paper's
// "sparse representation" List[((Int,Int),Double)] for abstract arrays.
// Entries may be unsorted and are assumed to have unique coordinates
// unless stated otherwise.
type COO struct {
	Rows, Cols int
	Entries    []Entry
}

// Entry is one (i, j, value) triplet.
type Entry struct {
	I, J int
	V    float64
}

// NewCOO returns an empty rows x cols coordinate matrix.
func NewCOO(rows, cols int) *COO {
	return &COO{Rows: rows, Cols: cols}
}

// Append adds an entry without checking for duplicates.
func (c *COO) Append(i, j int, v float64) {
	if i < 0 || i >= c.Rows || j < 0 || j >= c.Cols {
		panic(fmt.Sprintf("linalg: COO entry (%d,%d) out of %dx%d", i, j, c.Rows, c.Cols))
	}
	c.Entries = append(c.Entries, Entry{I: i, J: j, V: v})
}

// NNZ returns the number of stored entries.
func (c *COO) NNZ() int { return len(c.Entries) }

// SortRowMajor orders the entries by (row, col).
func (c *COO) SortRowMajor() {
	sort.Slice(c.Entries, func(a, b int) bool {
		if c.Entries[a].I != c.Entries[b].I {
			return c.Entries[a].I < c.Entries[b].I
		}
		return c.Entries[a].J < c.Entries[b].J
	})
}

// ToDense materializes the matrix densely; duplicate coordinates sum.
func (c *COO) ToDense() *Dense {
	d := NewDense(c.Rows, c.Cols)
	for _, e := range c.Entries {
		d.Add(e.I, e.J, e.V)
	}
	return d
}

// DenseToCOO sparsifies a dense matrix, keeping nonzero elements. It is
// the linalg-level analogue of the paper's sparsify function.
func DenseToCOO(d *Dense) *COO {
	c := NewCOO(d.Rows, d.Cols)
	for i := 0; i < d.Rows; i++ {
		row := d.Data[i*d.Cols : (i+1)*d.Cols]
		for j, v := range row {
			if v != 0 {
				c.Entries = append(c.Entries, Entry{I: i, J: j, V: v})
			}
		}
	}
	return c
}

// CSR is a compressed sparse row matrix: RowPtr has Rows+1 entries;
// the column indices and values of row i live at [RowPtr[i],RowPtr[i+1]).
type CSR struct {
	Rows, Cols int
	RowPtr     []int
	ColIdx     []int
	Val        []float64
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.Val) }

// COOToCSR converts and deduplicates (summing duplicates) a COO matrix.
func COOToCSR(c *COO) *CSR {
	c.SortRowMajor()
	m := &CSR{Rows: c.Rows, Cols: c.Cols, RowPtr: make([]int, c.Rows+1)}
	for idx := 0; idx < len(c.Entries); {
		e := c.Entries[idx]
		v := e.V
		idx++
		for idx < len(c.Entries) && c.Entries[idx].I == e.I && c.Entries[idx].J == e.J {
			v += c.Entries[idx].V
			idx++
		}
		m.ColIdx = append(m.ColIdx, e.J)
		m.Val = append(m.Val, v)
		m.RowPtr[e.I+1] = len(m.Val)
	}
	// Rows with no entries inherit the running prefix.
	for i := 1; i <= c.Rows; i++ {
		if m.RowPtr[i] < m.RowPtr[i-1] {
			m.RowPtr[i] = m.RowPtr[i-1]
		}
	}
	return m
}

// At returns element (i,j) with a binary search within the row.
func (m *CSR) At(i, j int) float64 {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	idx := sort.SearchInts(m.ColIdx[lo:hi], j) + lo
	if idx < hi && m.ColIdx[idx] == j {
		return m.Val[idx]
	}
	return 0
}

// ToDense materializes the CSR matrix densely.
func (m *CSR) ToDense() *Dense {
	d := NewDense(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for idx := m.RowPtr[i]; idx < m.RowPtr[i+1]; idx++ {
			d.Set(i, m.ColIdx[idx], m.Val[idx])
		}
	}
	return d
}

// SpMV computes m * v for a CSR matrix.
func (m *CSR) SpMV(v *Vector) *Vector {
	if m.Cols != v.Len() {
		panic(ErrShape)
	}
	out := NewVector(m.Rows)
	for i := 0; i < m.Rows; i++ {
		var s float64
		for idx := m.RowPtr[i]; idx < m.RowPtr[i+1]; idx++ {
			s += m.Val[idx] * v.Data[m.ColIdx[idx]]
		}
		out.Data[i] = s
	}
	return out
}
