package bench

import (
	"strings"
	"testing"

	"repro/internal/tiled"
)

// The mechanism behind Figure 4.B at a small scale, with no clock in
// it: the group-by-join shuffles the fewest bytes, join+reduceByKey
// fewer than join+groupByKey, and only the group-by-join draws no tile
// beyond its output — the other two materialize one partial-product
// tile per (i,k,j). Which of them is faster on a given host is the
// benchmark's business (benchmark/run.sh), not tier-1's.
func TestFig4BMechanism(t *testing.T) {
	cfg := Config{TileSize: 50, Partitions: 4}
	const n, blocks = 400, 8 // 8x8 tiles per matrix
	run := func(mul func(a, b *tiled.Matrix) *tiled.Matrix) (shuffled, drawn int64) {
		ctx := newCtx(cfg)
		defer closeCtx(ctx)
		a := tiled.RandMatrix(ctx, n, n, cfg.TileSize, cfg.Partitions, 0, 10, 1)
		b := tiled.RandMatrix(ctx, n, n, cfg.TileSize, cfg.Partitions, 0, 10, 2)
		force(ctx, a.Tiles)
		force(ctx, b.Tiles)
		ctx.TilePool().ResetStats()
		_, m := measure(ctx, func() { forceBlocks(mul(a, b).Tiles) })
		ps := ctx.TilePool().Stats()
		return m.ShuffledBytes, ps.Hits + ps.Misses
	}
	join := func(reduceByKey bool) func(a, b *tiled.Matrix) *tiled.Matrix {
		return func(a, b *tiled.Matrix) *tiled.Matrix { return tiled.JoinMultiply(a, b, tiled.Product{}, reduceByKey) }
	}
	gbj, gbjDrawn := run((*tiled.Matrix).MultiplyGBJ)
	rbk, rbkDrawn := run(join(true))
	gbk, gbkDrawn := run(join(false))
	if !(gbj < rbk && rbk < gbk) {
		t.Errorf("shuffled bytes: GBJ %d, join+reduceByKey %d, join+groupByKey %d; want strictly increasing", gbj, rbk, gbk)
	}
	if gbjDrawn != blocks*blocks {
		t.Errorf("GBJ drew %d tiles for %d output tiles: it must materialize no partial products", gbjDrawn, blocks*blocks)
	}
	if partials := int64(blocks * blocks * blocks); rbkDrawn < partials || gbkDrawn < partials {
		t.Errorf("join plans drew %d and %d tiles, want at least the %d partial products", rbkDrawn, gbkDrawn, partials)
	}
}

func TestFig4BProducesSeries(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	p := Fig4B(Config{TileSize: 50, Partitions: 4}, []int64{200}).Points[0]
	for _, sys := range []string{"MLlib", "SAC", "SAC GBJ"} {
		if p.Seconds[sys] <= 0 || p.Shuffled[sys] <= 0 {
			t.Fatalf("%s: missing measurement: %+v %+v", sys, p.Seconds, p.Shuffled)
		}
	}
}

func TestFig4AProducesSeries(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	cfg := Config{TileSize: 50, Partitions: 4}
	s := Fig4A(cfg, []int64{100, 200})
	if len(s.Points) != 2 {
		t.Fatalf("points %d", len(s.Points))
	}
	for _, p := range s.Points {
		if p.Seconds["SAC"] <= 0 || p.Seconds["MLlib"] <= 0 {
			t.Fatalf("missing timings: %+v", p.Seconds)
		}
	}
	out := s.Format()
	if !strings.Contains(out, "Figure 4.A") || !strings.Contains(out, "MLlib(s)") {
		t.Fatalf("format output:\n%s", out)
	}
}

func TestFig4CProducesSeries(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	cfg := Config{TileSize: 25, Partitions: 4}
	s := Fig4C(cfg, []int64{100}, 50)
	p := s.Points[0]
	if p.Seconds["SAC GBJ"] <= 0 || p.Seconds["MLlib"] <= 0 {
		t.Fatalf("missing timings: %+v", p.Seconds)
	}
}

func TestRatios(t *testing.T) {
	s := Series{Points: []Point{
		{Seconds: map[string]float64{"a": 1, "b": 3}},
		{Seconds: map[string]float64{"a": 2, "b": 12}},
	}}
	if r := s.Ratios("a", "b"); r != 6 {
		t.Fatalf("ratio %v", r)
	}
}

func TestAblationReduceByKeyShuffleGap(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	cfg := Config{TileSize: 50, Partitions: 8}
	s := AblationReduceByKey(cfg, []int64{300})
	p := s.Points[0]
	if p.Shuffled["reduceByKey"] >= p.Shuffled["groupByKey"] {
		t.Fatalf("Rule 13 should shuffle less: %d vs %d",
			p.Shuffled["reduceByKey"], p.Shuffled["groupByKey"])
	}
}

func TestAblationCoordinateShufflesMore(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	cfg := Config{TileSize: 50, Partitions: 4}
	s := AblationCoordinate(cfg, []int64{100})
	p := s.Points[0]
	if p.Shuffled["coordinate"] <= p.Shuffled["tiled"] {
		t.Fatalf("coordinate format should shuffle more: %d vs %d",
			p.Shuffled["coordinate"], p.Shuffled["tiled"])
	}
	// The coordinate row is the compiler's Section 4 path, not a
	// hand-written copy of it.
	ctx := newCtx(cfg)
	defer closeCtx(ctx)
	a := tiled.RandMatrix(ctx, 100, 100, cfg.TileSize, cfg.Partitions, 0, 10, 1)
	plan := compileCoordMul(a, a).Explain()
	for _, want := range []string{"coordinate-format fallback", "2-way join chain (Rule 14)", "group-by via reduceByKey"} {
		if !strings.Contains(plan, want) {
			t.Fatalf("coordinate ablation plan %q lacks %q", plan, want)
		}
	}
}

func TestAblationTileSize(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	cfg := Config{Partitions: 4}
	s := AblationTileSize(cfg, 200, []int{25, 50, 100})
	if len(s.Points) != 1 || len(s.Points[0].Seconds) != 3 {
		t.Fatalf("ablation shape %+v", s)
	}
}

// TestOutOfCoreFigureReportsSpill runs one Figure 4.B point under a
// small memory budget and checks the spill counters reach the figure
// table (satellite of the out-of-core subsystem: benchmark evidence of
// spilling must be visible, not just internal).
func TestOutOfCoreFigureReportsSpill(t *testing.T) {
	cfg := Config{TileSize: 50, Partitions: 8, MemoryBudget: 1 << 20}
	s := Fig4B(cfg, []int64{200})
	p := s.Points[0]
	var spilled int64
	for _, sys := range s.Systems {
		spilled += p.Spilled[sys]
	}
	if spilled == 0 {
		t.Fatalf("budgeted figure run spilled nothing: %+v", p.Spilled)
	}
	table := s.Format()
	if !strings.Contains(table, "spillMB") || !strings.Contains(table, "merges") {
		t.Fatalf("figure table missing spill columns:\n%s", table)
	}
}

// TestUnbudgetedFigureTableShape pins the unbudgeted table to its
// original columns: no spill noise when the subsystem is idle.
func TestUnbudgetedFigureTableShape(t *testing.T) {
	s := Fig4A(Config{TileSize: 50, Partitions: 4}, []int64{100})
	table := s.Format()
	if strings.Contains(table, "spillMB") || strings.Contains(table, "merges") {
		t.Fatalf("unbudgeted table grew spill columns:\n%s", table)
	}
}
