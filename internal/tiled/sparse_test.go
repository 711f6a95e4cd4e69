package tiled

import (
	"testing"
	"testing/quick"

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
	if m.NNZ() != int64(c.NNZ()) {
		t.Fatalf("nnz %d vs %d", m.NNZ(), c.NNZ())
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

func TestSparseToTiled(t *testing.T) {
	ctx := tctx()
	c := linalg.RandSparseCOO(6, 6, 0.3, 5, 72)
	m := SparseFromCOO(ctx, c, 2, 2)
	d := m.ToTiled(ctx)
	if !d.ToDense().Equal(c.ToDense()) {
		t.Fatal("densify mismatch")
	}
	if got := dataflow.Count(d.Tiles); got != 9 {
		t.Fatalf("dense tiled should have all 9 tiles, got %d", got)
	}
}

func TestSparseSparsifyOnlyNonzeros(t *testing.T) {
	ctx := tctx()
	c := linalg.RandSparseCOO(10, 10, 0.15, 5, 73)
	m := SparseFromCOO(ctx, c, 4, 2)
	entries := dataflow.Collect(m.Sparsify())
	if len(entries) != c.NNZ() {
		t.Fatalf("sparsify entries %d vs nnz %d", len(entries), c.NNZ())
	}
	want := c.ToDense()
	for _, e := range entries {
		if want.At(int(e.I), int(e.J)) != e.V {
			t.Fatalf("entry (%d,%d)=%v mismatch", e.I, e.J, e.V)
		}
	}
}

func TestSparseMultiplyDense(t *testing.T) {
	ctx := tctx()
	c := linalg.RandSparseCOO(8, 6, 0.3, 5, 74)
	d := linalg.RandDense(6, 7, -1, 1, 75)
	sm := SparseFromCOO(ctx, c, 3, 2)
	dm := FromDense(ctx, d, 3, 2)
	got := sm.MultiplyDense(dm).ToDense()
	want := linalg.Mul(c.ToDense(), d)
	if !got.EqualApprox(want, 1e-9) {
		t.Fatalf("sparse*dense mismatch: %g", got.MaxAbsDiff(want))
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

func TestSparseScaleTranspose(t *testing.T) {
	ctx := tctx()
	c := linalg.RandSparseCOO(6, 9, 0.3, 5, 79)
	sm := SparseFromCOO(ctx, c, 3, 2)
	if !sm.Scale(2).ToDense().EqualApprox(linalg.Scale(c.ToDense(), 2), 1e-12) {
		t.Fatal("sparse scale mismatch")
	}
	tr := sm.Transpose()
	if tr.Rows != 9 || tr.Cols != 6 {
		t.Fatal("transpose dims")
	}
	if !tr.ToDense().Equal(c.ToDense().Transpose()) {
		t.Fatal("sparse transpose mismatch")
	}
}

// Property: sparse and dense block multiplication agree.
func TestQuickSparseDenseAgree(t *testing.T) {
	ctx := tctx()
	f := func(seed int64) bool {
		c := linalg.RandSparseCOO(7, 5, 0.3, 4, seed)
		d := linalg.RandDense(5, 6, -2, 2, seed+1)
		sm := SparseFromCOO(ctx, c, 2, 2)
		dm := FromDense(ctx, d, 2, 2)
		viaSparse := sm.MultiplyDense(dm).ToDense()
		viaDense := JoinMultiply(sm.ToTiled(ctx), dm, Product{}, true).ToDense()
		return viaSparse.EqualApprox(viaDense, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// The space motivation: a sparse block matrix stores far fewer tiles
// and bytes than the densified form at low density.
func TestSparseSpaceAdvantage(t *testing.T) {
	ctx := tctx()
	c := linalg.RandSparseCOO(100, 100, 0.01, 5, 80)
	sm := SparseFromCOO(ctx, c, 10, 2)
	dm := sm.ToTiled(ctx)
	sparseTiles := dataflow.Count(sm.Tiles)
	denseTiles := dataflow.Count(dm.Tiles)
	if sparseTiles >= denseTiles {
		t.Fatalf("sparse %d tiles vs dense %d", sparseTiles, denseTiles)
	}
}
