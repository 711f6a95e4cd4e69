package stats

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/obs"
)

func sq(n int64, tile int) TableStats {
	return TableStats{Rows: n, Cols: n, Tile: tile}
}

func TestTableStatsBlocks(t *testing.T) {
	s := TableStats{Rows: 250, Cols: 100, Tile: 100}
	if s.BlockRows() != 3 || s.BlockCols() != 1 {
		t.Fatalf("blocks: %dx%d, want 3x1", s.BlockRows(), s.BlockCols())
	}
	// A flag, rows and cols (100 is a two-byte varint), the cell count
	// (a two-byte uvarint) and the cells.
	if s.TileBytes() != 1+2+2+2+100*100*8 {
		t.Fatalf("tile bytes %d", s.TileBytes())
	}
	// Block indices below 64 are one varint byte, up to 8191 two.
	if s.keyBytes() != 1 || sq(6400, 100).keyBytes() != 1 || sq(6500, 100).keyBytes() != 2 {
		t.Fatalf("key bytes %d, %d, %d", s.keyBytes(), sq(6400, 100).keyBytes(), sq(6500, 100).keyBytes())
	}
	if s.TotalBytes() != 3*(s.TileBytes()+2) {
		t.Fatalf("total bytes %d", s.TotalBytes())
	}
	if s.NumTiles() != 3 {
		t.Fatalf("num tiles %d", s.NumTiles())
	}
}

func TestEstimateMatmulFullGrid(t *testing.T) {
	a, b := sq(400, 100), sq(400, 100) // 4x4 blocks each
	est := EstimateMatmul(a, b, 0, 0, 8)
	tb := a.TileBytes()
	// Full grid: every A tile to 4 grid cols, every B tile to 4 rows,
	// each replica keyed by its cell, join key and group.
	if want := (16*4 + 16*4) * (tb + 4); est.GBJShuffleBytes != want {
		t.Fatalf("GBJ bytes %d, want %d", est.GBJShuffleBytes, want)
	}
	// join: both inputs once, keyed by join key and coordinate, +
	// combined partials (min(4*4*4, 8*16)=64) keyed by coordinate.
	if want := (16+16)*(tb+3) + 64*(tb+2); est.JoinShuffleBytes != want {
		t.Fatalf("join bytes %d, want %d", est.JoinShuffleBytes, want)
	}
	// With 4x4 blocks the combiner cannot help (64 partials vs a
	// 128-slot combine budget), so the two reduce flavors tie; on a
	// deeper contraction the combiner wins.
	if est.GroupByShuffleBytes != est.JoinShuffleBytes {
		t.Fatal("uncombinable shape: flavors should tie")
	}
	deep := EstimateMatmul(sq(800, 100), sq(800, 100), 0, 0, 4)
	if deep.GroupByShuffleBytes <= deep.JoinShuffleBytes {
		t.Fatal("groupByKey estimate must exceed combined reduceByKey on a deep contraction")
	}
	if est.JoinTempBytes != 64*(tb+2) {
		t.Fatalf("temp bytes %d", est.JoinTempBytes)
	}
}

func TestEstimateMatmulCoarseGridCheaper(t *testing.T) {
	a, b := sq(1600, 100), sq(1600, 100) // 16x16 blocks
	full := EstimateMatmul(a, b, 0, 0, 8)
	coarse := EstimateMatmul(a, b, 4, 4, 8)
	if coarse.GBJShuffleBytes >= full.GBJShuffleBytes {
		t.Fatalf("coarse grid (%d) not cheaper than full (%d)",
			coarse.GBJShuffleBytes, full.GBJShuffleBytes)
	}
}

func TestPickGrid(t *testing.T) {
	a, b := sq(1600, 100), sq(1600, 100) // 16x16 output blocks
	p, q := PickGrid(a.BlockRows(), b.BlockCols(), a.NumTiles(), b.NumTiles(), 16, 0)
	// Square inputs: replication is symmetric, so the minimizer is the
	// balanced grid.
	if p != 4 || q != 4 {
		t.Fatalf("grid %dx%d, want 4x4", p, q)
	}
	// The cluster-matmul shape: 10x10 blocks over 8 partitions. 2x4, 3x3
	// and 4x2 all replicate 600 tiles; the tie goes to the fewest cells
	// (one per partition), first found.
	c := sq(1000, 100)
	if p, q := PickGrid(10, 10, c.NumTiles(), c.NumTiles(), 8, 0); p != 2 || q != 4 {
		t.Fatalf("grid %dx%d, want 2x4", p, q)
	}
	// A much larger than B: replicate A as little as possible.
	if p, q := PickGrid(8, 8, 8*64, 8, 8, 0); p != 8 || q != 1 {
		t.Fatalf("grid %dx%d, want 8x1 (A is 64x heavier)", p, q)
	}
	// No more output tiles than partitions: full grid fallback.
	a2, b2 := sq(200, 100), sq(200, 100)
	p2, q2 := PickGrid(a2.BlockRows(), b2.BlockCols(), a2.NumTiles(), b2.NumTiles(), 16, 0)
	if p2 != a2.BlockRows() || q2 != b2.BlockCols() {
		t.Fatalf("small output should use the full grid, got %dx%d", p2, q2)
	}
}

// TestPickGridWorld: on a cluster the grid has one cell per rank while
// there are fewer ranks than partitions — on the cluster-matmul shape
// (10x10 blocks over DefaultPartitions(world)) 1x2 at world 2, 1x3 at
// world 3 and 2x4 at world 8 — and the partition count still caps it
// when there are more ranks than partitions. World 0 is a local session.
func TestPickGridWorld(t *testing.T) {
	c := sq(1000, 100)
	for _, w := range []struct {
		parts, world int
		p, q         int64
	}{{8, 0, 2, 4}, {8, 1, 1, 1}, {8, 2, 1, 2}, {12, 3, 1, 3}, {32, 8, 2, 4}, {4, 8, 2, 2}, {8, 200, 2, 4}} {
		if p, q := PickGrid(10, 10, c.NumTiles(), c.NumTiles(), w.parts, w.world); p != w.p || q != w.q {
			t.Errorf("parts %d world %d: grid %dx%d, want %dx%d", w.parts, w.world, p, q, w.p, w.q)
		}
	}
}

// TestPickGridFeasible: over random block shapes and every partition
// count 1..40 the grid stays inside the output grid, covers every
// partition whenever the output has that many tiles, and never
// replicates more than the full grid does.
func TestPickGridFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		gy, gx, bk := rng.Int63n(12)+1, rng.Int63n(12)+1, rng.Int63n(12)+1
		ta, tb := gy*bk, bk*gx
		for parts := 1; parts <= 40; parts++ {
			p, q := PickGrid(gy, gx, ta, tb, parts, 0)
			if p < 1 || q < 1 || p > gy || q > gx {
				t.Fatalf("%dx%d groups, parts %d: grid %dx%d outside the output grid", gy, gx, parts, p, q)
			}
			if gy*gx >= int64(parts) && p*q < int64(parts) {
				t.Fatalf("%dx%d groups, parts %d: grid %dx%d leaves partitions without a cell", gy, gx, parts, p, q)
			}
			if gy*gx <= int64(parts) && (p != gy || q != gx) {
				t.Fatalf("%dx%d groups, parts %d: want the full grid, got %dx%d", gy, gx, parts, p, q)
			}
			if ta*q+tb*p > ta*gx+tb*gy {
				t.Fatalf("%dx%d groups, parts %d: grid %dx%d replicates more than the full grid", gy, gx, parts, p, q)
			}
		}
	}
}

func TestFromSnapshotPicksMostSkewedStage(t *testing.T) {
	snap := dataflow.MetricsSnapshot{
		CounterSet: obs.CounterSet{ShuffledBytes: 123, ShuffledRecords: 7},
		PerStage: []dataflow.StageMetric{
			{Name: "even", TaskDur: dataflow.Dist{N: 4, P50: 10, P99: 12}},
			{Name: "skewed", TaskDur: dataflow.Dist{N: 4, P50: 10, P99: 90}},
		},
	}
	m := FromSnapshot(snap, 55)
	if m.WallNs != 55 || m.ShuffledBytes != 123 {
		t.Fatalf("totals wrong: %+v", m)
	}
	if m.MaxSkew != 9 {
		t.Fatalf("skew %v, want 9", m.MaxSkew)
	}
}

func TestMeasuredString(t *testing.T) {
	s := Measured{Runs: 3, WallNs: 2_000_000, ShuffledBytes: 1 << 20, MaxSkew: 4.5}.String()
	for _, want := range []string{"3 run(s)", "2ms", "skew 4.5x"} {
		if !strings.Contains(s, want) {
			t.Fatalf("%q missing %q", s, want)
		}
	}
}
