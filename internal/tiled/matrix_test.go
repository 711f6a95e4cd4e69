package tiled

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/dataflow"
	"repro/internal/linalg"
	"repro/internal/obs"
)

func tctx() *dataflow.Context { return dataflow.NewLocalContext() }

func TestFromDenseToDenseRoundTrip(t *testing.T) {
	ctx := tctx()
	for _, dims := range [][3]int{{4, 4, 2}, {5, 7, 3}, {1, 1, 4}, {6, 2, 6}, {10, 10, 4}} {
		d := linalg.RandDense(dims[0], dims[1], -5, 5, int64(dims[0]*31+dims[1]))
		m := FromDense(ctx, d, dims[2], 4)
		if got := m.ToDense(); !got.Equal(d) {
			t.Fatalf("round trip failed for %v", dims)
		}
	}
}

func TestBlockGrid(t *testing.T) {
	ctx := tctx()
	m := FromDense(ctx, linalg.NewDense(5, 7), 3, 2)
	if m.BlockRows() != 2 || m.BlockCols() != 3 {
		t.Fatalf("grid %dx%d", m.BlockRows(), m.BlockCols())
	}
	if got := dataflow.Count(m.Tiles); got != 6 {
		t.Fatalf("tiles %d", got)
	}
}

func TestGenerateMatchesFromDense(t *testing.T) {
	ctx := tctx()
	d := linalg.RandDense(7, 5, 0, 1, 99)
	viaDense := FromDense(ctx, d, 3, 2)
	viaGen := Generate(ctx, 7, 5, 3, 2, func(c Coord, rowOff, colOff int64, tile *linalg.Dense) {
		for i := 0; i < tile.Rows; i++ {
			for j := 0; j < tile.Cols; j++ {
				gi, gj := rowOff+int64(i), colOff+int64(j)
				if gi < 7 && gj < 5 {
					tile.Set(i, j, d.At(int(gi), int(gj)))
				}
			}
		}
	})
	if !viaGen.ToDense().Equal(viaDense.ToDense()) {
		t.Fatal("Generate and FromDense disagree")
	}
}

func TestGenerateClampsPadding(t *testing.T) {
	ctx := tctx()
	// Generator writes garbage everywhere; clamp must zero the padding.
	m := Generate(ctx, 3, 3, 2, 1, func(_ Coord, _, _ int64, tile *linalg.Dense) {
		tile.Fill(9)
	})
	d := m.ToDense()
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if d.At(i, j) != 9 {
				t.Fatal("in-bounds value lost")
			}
		}
	}
	// Padding cells in the stored tiles must be zero so ops like
	// multiply are unaffected.
	for _, b := range dataflow.Collect(m.Tiles) {
		for i := 0; i < 2; i++ {
			for j := 0; j < 2; j++ {
				gi, gj := b.Key.I*2+int64(i), b.Key.J*2+int64(j)
				if (gi >= 3 || gj >= 3) && b.Value.At(i, j) != 0 {
					t.Fatalf("padding not zeroed at tile %v (%d,%d)", b.Key, i, j)
				}
			}
		}
	}
}

func TestSparsifyBuildRoundTrip(t *testing.T) {
	ctx := tctx()
	d := linalg.RandDense(5, 6, -2, 2, 123)
	m := FromDense(ctx, d, 2, 3)
	entries := m.Sparsify()
	if got := dataflow.Count(entries); got != 30 {
		t.Fatalf("sparsify produced %d entries", got)
	}
	rebuilt := Build(ctx, 5, 6, 2, entries, 3)
	if !rebuilt.ToDense().Equal(d) {
		t.Fatal("build(sparsify(M)) != M")
	}
}

func TestBuildFillsMissingTiles(t *testing.T) {
	ctx := tctx()
	// Only one entry: all other tiles must still exist (zero-filled).
	entries := dataflow.Parallelize(ctx, []Entry{{I: 0, J: 0, V: 5}}, 1)
	m := Build(ctx, 4, 4, 2, entries, 2)
	if got := dataflow.Count(m.Tiles); got != 4 {
		t.Fatalf("tiles %d, want 4", got)
	}
	d := m.ToDense()
	if d.At(0, 0) != 5 || d.Sum() != 5 {
		t.Fatalf("built matrix wrong: %v", d)
	}
}

// BuildVector is Build in one dimension: elements land in their blocks,
// the ragged last block included, and untouched blocks are zero-filled.
func TestBuildVectorFillsMissingBlocks(t *testing.T) {
	elems := dataflow.Parallelize(tctx(), []dataflow.Pair[int64, float64]{{Key: 6, Value: 7}, {Key: 1, Value: 5}}, 2)
	v := BuildVector(7, 2, elems, 3)
	if got := dataflow.Count(v.Blocks); got != 4 {
		t.Fatalf("blocks %d, want 4", got)
	}
	if d := v.ToDense(); d.At(1) != 5 || d.At(6) != 7 || d.Sum() != 12 {
		t.Fatalf("built vector wrong: %v", d.Data)
	}
}

func TestRandMatrixDeterministic(t *testing.T) {
	ctx := tctx()
	a := RandMatrix(ctx, 6, 6, 2, 2, 0, 10, 7).ToDense()
	b := RandMatrix(ctx, 6, 6, 2, 2, 0, 10, 7).ToDense()
	c := RandMatrix(ctx, 6, 6, 2, 2, 0, 10, 8).ToDense()
	if !a.Equal(b) {
		t.Fatal("same seed should reproduce")
	}
	if a.Equal(c) {
		t.Fatal("different seeds should differ")
	}
	for _, v := range a.Data {
		if v < 0 || v >= 10 {
			t.Fatalf("value %v out of range", v)
		}
	}
}

// TestRandSpecPartitionsAreRandMatrix: a spec's partitions are the
// partitions RandMatrix streams — same count, same tiles in the same order,
// padding clamped — for ragged shapes, one tile and more partitions than
// tiles, and FromPartitions over them is the same matrix.
func TestRandSpecPartitionsAreRandMatrix(t *testing.T) {
	ctx := tctx()
	type tagged struct {
		part int
		b    Block
	}
	for _, s := range []RandSpec{
		{Rows: 64, Cols: 64, N: 16, Parts: 6, Hi: 10, Seed: 1},
		{Rows: 50, Cols: 23, N: 8, Parts: 5, Lo: -1, Hi: 1, Seed: 7},
		{Rows: 5, Cols: 5, N: 8, Parts: 4, Hi: 3, Seed: 2},
		{Rows: 20, Cols: 9, N: 10, Parts: 32, Hi: 3, Seed: 3},
	} {
		m := RandMatrix(ctx, s.Rows, s.Cols, s.N, s.Parts, s.Lo, s.Hi, s.Seed)
		if m.Tiles.NumPartitions() != s.NumPartitions() {
			t.Fatalf("%+v: RandMatrix has %d partitions, the spec %d", s, m.Tiles.NumPartitions(), s.NumPartitions())
		}
		var want []tagged
		for _, op := range dataflow.CollectOwned(m.Tiles) {
			for _, b := range op.Rows {
				want = append(want, tagged{op.Part, b})
			}
		}
		var got []tagged
		for p := 0; p < s.NumPartitions(); p++ {
			for _, b := range s.Partition(p) {
				got = append(got, tagged{p, b})
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%+v: %d tiles, RandMatrix has %d", s, len(got), len(want))
		}
		for i := range want {
			if got[i].part != want[i].part || got[i].b.Key != want[i].b.Key || !got[i].b.Value.Equal(want[i].b.Value) {
				t.Fatalf("%+v: tile %d is %v in partition %d, RandMatrix has %v in %d",
					s, i, got[i].b.Key, got[i].part, want[i].b.Key, want[i].part)
			}
		}
		back := FromPartitions(ctx, s.Rows, s.Cols, s.N, s.NumPartitions(), s.Partition)
		if !back.ToDense().Equal(m.ToDense()) {
			t.Fatalf("%+v: FromPartitions differs from RandMatrix", s)
		}
	}
}

// TestResidentMatrixGeneratesOnce: contexts reading one resident matrix
// at once generate each partition exactly once between them — one miss
// per partition, a hit for every other read, one copy's bytes — and each
// reads the matrix RandMatrix generates.
func TestResidentMatrixGeneratesOnce(t *testing.T) {
	const readers = 4
	s := RandSpec{Rows: 50, Cols: 23, N: 8, Parts: 5, Lo: -1, Hi: 1, Seed: 7}
	r := NewResident(s)
	want := RandMatrix(tctx(), s.Rows, s.Cols, s.N, s.Parts, s.Lo, s.Hi, s.Seed).ToDense()
	var c obs.LiveCounters
	var wg sync.WaitGroup
	got := make([]*linalg.Dense, readers)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = r.Bind(tctx(), &c).ToDense()
		}()
	}
	wg.Wait()
	for i, d := range got {
		if !d.Equal(want) {
			t.Fatalf("reader %d read another matrix than RandMatrix's", i)
		}
	}
	parts, tiles := int64(s.NumPartitions()), ceilDiv(s.Rows, int64(s.N))*ceilDiv(s.Cols, int64(s.N))
	if c.ResidentMisses.Load() != parts || c.ResidentHits.Load() != (readers-1)*parts || r.Bytes() != tiles*int64(s.N*s.N*8) {
		t.Fatalf("%d misses, %d hits, %d bytes; want %d, %d, %d", c.ResidentMisses.Load(), c.ResidentHits.Load(),
			r.Bytes(), parts, (readers-1)*parts, tiles*int64(s.N*s.N*8))
	}
}

func TestVectorRoundTrip(t *testing.T) {
	ctx := tctx()
	v := linalg.RandVector(11, -1, 1, 3)
	bv := VectorFromDense(ctx, v, 4, 2)
	if bv.NumBlocks() != 3 {
		t.Fatalf("blocks %d", bv.NumBlocks())
	}
	if !bv.ToDense().Equal(v) {
		t.Fatal("vector round trip")
	}
}

func TestVectorOps(t *testing.T) {
	ctx := tctx()
	v := linalg.RandVector(9, -1, 1, 4)
	bv := VectorFromDense(ctx, v, 4, 2)
	if !bv.Scale(2).ToDense().EqualApprox(v.Clone().ScaleInPlace(2), 1e-12) {
		t.Fatal("vector scale")
	}
}

func approx(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}

// Property: FromDense/ToDense round trip holds for arbitrary shapes
// and tile sizes.
func TestQuickTileRoundTrip(t *testing.T) {
	ctx := tctx()
	f := func(r, c, n uint8, seed int64) bool {
		rows, cols := int(r%12)+1, int(c%12)+1
		ts := int(n%5) + 1
		d := linalg.RandDense(rows, cols, -3, 3, seed)
		return FromDense(ctx, d, ts, 3).ToDense().Equal(d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
