package opt

import (
	"strings"
	"testing"

	"repro/internal/stats"
)

// fakeProvider supplies fixed square-matrix statistics; parts defaults
// to 8 input partitions.
type fakeProvider struct {
	n     int64
	tile  int
	parts int
	world int
}

func (p fakeProvider) ArrayStats(string) (stats.TableStats, bool) {
	parts := p.parts
	if parts == 0 {
		parts = 8
	}
	return stats.TableStats{Rows: p.n, Cols: p.n, Tile: p.tile, Parts: parts}, true
}
func (p fakeProvider) World() int { return p.world }

const matmulSrc = `tiled(6,6)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B,
        kk == k, let v = a*b, group by (i,j) ]`

func chooseStats(t *testing.T, src string, opts Options, prov StatsProvider) Strategy {
	t.Helper()
	s, err := ChooseWithStats(extract(t, src), opts, prov)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCostKeepsGBJ: GBJ materializes no intermediate tiles, so it is
// never Pareto-dominated and the paper's preferred translation must
// survive cost ranking at ANY partition count — including the full-grid
// ones (parts >= output tiles) where join+reduceByKey has fewer
// estimated shuffle bytes.
func TestCostKeepsGBJ(t *testing.T) {
	for _, parts := range []int{1, 2, 8, 64, 200} {
		s := chooseStats(t, matmulSrc, Options{}, fakeProvider{n: 800, tile: 100, parts: parts})
		gbj, ok := s.(*GroupByJoinStrategy)
		if !ok {
			t.Fatalf("parts=%d: got %T", parts, s)
		}
		if !gbj.UseGBJ {
			t.Fatalf("parts=%d: cost ranking flipped UseGBJ off", parts)
		}
		d := gbj.Decision
		if d == nil {
			t.Fatalf("parts=%d: no decision attached", parts)
		}
		if d.Chosen.Strategy != "summa-gbj" {
			t.Fatalf("parts=%d: chose %q", parts, d.Chosen.Strategy)
		}
		if len(d.Rejected) != 2 {
			t.Fatalf("parts=%d: %d rejected candidates, want 2", parts, len(d.Rejected))
		}
	}
}

// TestCostRespectsAblation: with GBJ disabled the decision must fall to
// join+reduceByKey and record why GBJ lost.
func TestCostRespectsAblation(t *testing.T) {
	s := chooseStats(t, matmulSrc, Options{DisableGBJ: true}, fakeProvider{n: 800, tile: 100})
	gbj := s.(*GroupByJoinStrategy)
	if gbj.UseGBJ || !gbj.UseReduceBy {
		t.Fatalf("ablation ignored: UseGBJ=%v UseReduceBy=%v", gbj.UseGBJ, gbj.UseReduceBy)
	}
	d := gbj.Decision
	if d.Chosen.Strategy != "join+reduceByKey" {
		t.Fatalf("chose %q", d.Chosen.Strategy)
	}
	found := false
	for _, r := range d.Rejected {
		if r.Strategy == "summa-gbj" && r.Reason == "disabled" {
			found = true
		}
	}
	if !found {
		t.Fatalf("GBJ rejection not recorded as disabled: %+v", d.Rejected)
	}
}

// TestCostStaticGridFromPartitions: the decision carries the processor
// grid derived from the inputs' partition count — coarser than the
// 32x32 output, one cell per partition — priced as it will run, and no
// partition count of its own.
func TestCostStaticGridFromPartitions(t *testing.T) {
	s := chooseStats(t, matmulSrc, Options{}, fakeProvider{n: 3200, tile: 100, parts: 8})
	d := s.(*GroupByJoinStrategy).Decision
	if d.GridP != 2 || d.GridQ != 4 {
		t.Fatalf("decision: grid %dx%d, want 2x4", d.GridP, d.GridQ)
	}
	if sum := d.Summary(); strings.Contains(sum, "parts ") {
		t.Fatalf("decision names a partition count: %s", sum)
	}
	// 32x32 tiles per input, A replicated 4 times and B twice; a replica
	// is its tile (a flag, three two-byte varints and the cells) and four
	// one-byte keys.
	if want := int64(1024*4+1024*2) * (1 + 3*2 + 100*100*8 + 4); d.Chosen.ShuffleBytes != want {
		t.Fatalf("estimate %d does not price the 2x4 grid (%d)", d.Chosen.ShuffleBytes, want)
	}
}

// TestCostGridFollowsWorld: planned for a cluster, the decision's grid
// has one cell per rank (the cluster-matmul shape: 1x2 on 2 ranks where
// a local session on the same 8 partitions gets 2x4), and the estimate
// prices that grid: A replicated twice, B once.
func TestCostGridFollowsWorld(t *testing.T) {
	s := chooseStats(t, matmulSrc, Options{}, fakeProvider{n: 1000, tile: 100, parts: 8, world: 2})
	d := s.(*GroupByJoinStrategy).Decision
	if d.GridP != 1 || d.GridQ != 2 {
		t.Fatalf("world 2: grid %dx%d, want 1x2", d.GridP, d.GridQ)
	}
	if want := int64(100*2+100*1) * (1 + 3*2 + 100*100*8 + 4); d.Chosen.ShuffleBytes != want {
		t.Fatalf("estimate %d does not price the 1x2 grid (%d)", d.Chosen.ShuffleBytes, want)
	}
}

// TestDecisionSummary: the Explain clause must name the chosen
// strategy, the rejected alternatives, and the estimates.
func TestDecisionSummary(t *testing.T) {
	s := chooseStats(t, matmulSrc, Options{}, fakeProvider{n: 800, tile: 100})
	sum := s.(*GroupByJoinStrategy).Decision.Summary()
	for _, want := range []string{"cost: summa-gbj", "shuffle", "rejected:", "join+reduceByKey", "join+groupByKey", "grid "} {
		if !strings.Contains(sum, want) {
			t.Fatalf("summary %q missing %q", sum, want)
		}
	}
	var nilD *Decision
	if nilD.Summary() != "" {
		t.Fatal("nil decision must render empty")
	}
}

// TestCostTileAgg: the single-input aggregation decision prefers
// reduceByKey and flips only under the ablation flag.
func TestCostTileAgg(t *testing.T) {
	src := `tiledvec(6)[ (i, +/m) | ((i,j),m) <- M, group by i ]`
	s := chooseStats(t, src, Options{}, fakeProvider{n: 800, tile: 100})
	agg, ok := s.(*TileAggStrategy)
	if !ok {
		t.Fatalf("got %T", s)
	}
	if agg.Decision == nil || agg.Decision.Chosen.Strategy != "reduceByKey" {
		t.Fatalf("decision %+v", agg.Decision)
	}
	s2 := chooseStats(t, src, Options{DisableReduceByKey: true}, fakeProvider{n: 800, tile: 100})
	d2 := s2.(*TileAggStrategy).Decision
	if d2.Chosen.Strategy != "groupByKey" {
		t.Fatalf("ablated decision chose %q", d2.Chosen.Strategy)
	}
	// The empty key (a total) moves nothing and names no shuffle.
	info, monoid := extractTotal(t, "+/[ m | ((i,j),m) <- M ]")
	d3 := ChooseTotal(info, monoid, Options{}, fakeProvider{n: 800, tile: 100}).(*TileAggStrategy).Decision
	if sum := d3.Summary(); d3.Chosen.ShuffleBytes != 0 || len(d3.Rejected) != 0 || strings.Contains(sum, "ByKey") {
		t.Fatalf("total decision %+v: %s", d3, sum)
	}
}

// TestChooseWithStatsNilProvider: a nil provider degrades to plain
// Choose with no decision.
func TestChooseWithStatsNilProvider(t *testing.T) {
	s, err := ChooseWithStats(extract(t, matmulSrc), Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := s.(*GroupByJoinStrategy).Decision; d != nil {
		t.Fatalf("nil provider attached a decision: %+v", d)
	}
}
