package tiled

import (
	"testing"

	"repro/internal/dataflow"
	"repro/internal/linalg"
)

func TestSparseFromCOORoundTrip(t *testing.T) {
	ctx := tctx()
	c := linalg.RandSparseCOO(11, 9, 0.2, 5, 71)
	m := SparseFromCOO(ctx, c, 4, 2)
	if !m.ToDense().Equal(c.ToDense()) {
		t.Fatal("sparse round trip")
	}
}

func TestSparseStoresOnlyNonEmptyTiles(t *testing.T) {
	ctx := tctx()
	c := linalg.NewCOO(8, 8)
	c.Append(0, 0, 1) // only tile (0,0)
	m := SparseFromCOO(ctx, c, 4, 2)
	if got := dataflow.Count(m.Tiles); got != 1 {
		t.Fatalf("stored tiles %d, want 1", got)
	}
	if m.BlockRows() != 2 || m.BlockCols() != 2 {
		t.Fatal("grid dims")
	}
}

func TestSparseMatVec(t *testing.T) {
	ctx := tctx()
	c := linalg.RandSparseCOO(9, 7, 0.25, 5, 76)
	x := linalg.RandVector(7, -1, 1, 77)
	sm := SparseFromCOO(ctx, c, 3, 2)
	bx := VectorFromDense(ctx, x, 3, 2)
	got := sm.MatVec(bx).ToDense()
	want := linalg.MatVec(c.ToDense(), x)
	if !got.EqualApprox(want, 1e-9) {
		t.Fatal("sparse matvec mismatch")
	}
}

func TestSparseMatVecWithEmptyRows(t *testing.T) {
	ctx := tctx()
	// A matrix whose bottom tile rows are entirely empty: the result
	// must still have blocks for those rows (zeros).
	c := linalg.NewCOO(8, 8)
	c.Append(0, 1, 2)
	c.Append(1, 7, 3)
	x := linalg.RandVector(8, 1, 2, 78)
	sm := SparseFromCOO(ctx, c, 2, 2)
	got := sm.MatVec(VectorFromDense(ctx, x, 2, 2))
	want := linalg.MatVec(c.ToDense(), x)
	if !got.ToDense().EqualApprox(want, 1e-9) {
		t.Fatal("empty-row matvec mismatch")
	}
	if got.ToDense().Len() != 8 {
		t.Fatal("missing blocks")
	}
}

// The space motivation: a sparse block matrix stores far fewer tiles
// and bytes than the densified form at low density.
func TestSparseSpaceAdvantage(t *testing.T) {
	ctx := tctx()
	c := linalg.RandSparseCOO(100, 100, 0.01, 5, 80)
	sm := SparseFromCOO(ctx, c, 10, 2)
	dm := FromDense(ctx, c.ToDense(), 10, 2)
	sparseTiles := dataflow.Count(sm.Tiles)
	denseTiles := dataflow.Count(dm.Tiles)
	if sparseTiles >= denseTiles {
		t.Fatalf("sparse %d tiles vs dense %d", sparseTiles, denseTiles)
	}
}
