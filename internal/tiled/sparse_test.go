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

// TestSparseMatVecFillsEmptyTileRowOnReduceSide: a matrix whose middle
// tile row stores nothing still yields every block of y once, the empty
// row's block all zeros, with the answer unchanged; the blocks the
// reduce produced none for are added on the reduce side, so building
// the product runs nothing until an action asks for it (it used to
// gather the whole vector to the driver and parallelize it back).
// BuildVector fills its missing blocks the same way.
func TestSparseMatVecFillsEmptyTileRowOnReduceSide(t *testing.T) {
	ctx := tctx()
	c := linalg.NewCOO(9, 9)
	c.Append(0, 4, 2)
	c.Append(2, 8, 3)
	c.Append(7, 1, 5) // tile rows 0 and 2; tile row 1 (rows 3..5) is empty
	x := linalg.RandVector(9, 1, 2, 79)
	sm := SparseFromCOO(ctx, c, 3, 2)
	bx := VectorFromDense(ctx, x, 3, 2)
	for name, build := range map[string]func() *Vector{
		"MatVec": func() *Vector { return sm.MatVec(bx) },
		"BuildVector": func() *Vector {
			elems := dataflow.Parallelize(ctx, []dataflow.Pair[int64, float64]{
				dataflow.KV(int64(0), 1.0), dataflow.KV(int64(2), 2.0), dataflow.KV(int64(8), 3.0)}, 2)
			return BuildVector(9, 3, elems, 2)
		},
	} {
		before := ctx.Metrics().Stages
		v := build()
		if ran := ctx.Metrics().Stages - before; ran != 0 {
			t.Fatalf("%s: building the vector ran %d stages", name, ran)
		}
		blocks := dataflow.Collect(v.Blocks)
		seen := map[int64]*linalg.Vector{}
		for _, b := range blocks {
			if seen[b.Key] != nil {
				t.Fatalf("%s: block %d twice", name, b.Key)
			}
			seen[b.Key] = b.Value
		}
		if int64(len(seen)) != v.NumBlocks() {
			t.Fatalf("%s: %d blocks, want %d", name, len(seen), v.NumBlocks())
		}
		if !seen[1].Equal(linalg.NewVector(3)) {
			t.Fatalf("%s: block 1 is %v, want zeros", name, seen[1].Data)
		}
	}
	want := linalg.MatVec(c.ToDense(), x)
	if got := sm.MatVec(bx).ToDense(); !got.Equal(want) {
		t.Fatalf("matvec %v, want %v", got.Data, want.Data)
	}
}
