package jobs

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/opt"
	"repro/internal/spill"
)

// gbjDecision compiles p's query the way runQuery's session would on a
// cluster of world ranks (0: a local session) and returns the cost
// model's record of it.
func gbjDecision(t *testing.T, p QueryParams, world int) *opt.Decision {
	t.Helper()
	s := core.NewSession(core.Config{TileSize: int(p.Tile), Partitions: int(p.Partitions)})
	defer s.Close()
	s.PlanFor(world)
	registerInputs(s, p)
	c, err := s.Compile(p.Src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	d := c.Decision()
	if d == nil || d.Chosen.Strategy != "summa-gbj" {
		t.Fatalf("no group-by-join decision: %+v", d)
	}
	return d
}

// gbjParams is the shared shape: 4x4 output tiles over 6 partitions, so
// the derived grid (2x3) is coarser than the output grid.
func gbjParams() QueryParams {
	p := baseParams()
	p.Src = fig4Queries[0].src
	return p
}

// TestGBJEstimateMatchesMeasuredLocal: the cost clause prices the grid
// that runs, in the bytes the codecs write for its rows, so the measured
// shuffle volume is the estimate, exactly.
func TestGBJEstimateMatchesMeasuredLocal(t *testing.T) {
	p := gbjParams()
	d := gbjDecision(t, p, 0)
	if d.GridP != 2 || d.GridQ != 3 {
		t.Fatalf("grid %dx%d, want 2x3 for 4x4 output tiles on 6 partitions", d.GridP, d.GridQ)
	}
	_, snap, err := runQuery(p, 1, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := 16*d.GridQ + 16*d.GridP; snap.ShuffledRecords != want {
		t.Fatalf("shuffled %d tiles, want tilesA*q + tilesB*p = %d", snap.ShuffledRecords, want)
	}
	if snap.ShuffledBytes != d.Chosen.ShuffleBytes {
		t.Fatalf("measured %d shuffle bytes vs estimated %d", snap.ShuffledBytes, d.Chosen.ShuffleBytes)
	}
}

// TestClusterGridIgnoresParallelism is the SPMD invariant: ranks
// started with different task-slot counts derive the same processor
// grid — the one a planner derives for that world — so the stage graphs
// agree, the result is byte-identical to the local backend, and the
// cluster as a whole shuffles exactly the estimated volume.
func TestClusterGridIgnoresParallelism(t *testing.T) {
	p := gbjParams()
	want, err := RunQueryLocal(p)
	if err != nil {
		t.Fatalf("local: %v", err)
	}
	for _, pars := range [][]int{{1, 2, 5}, {1, 2, 3, 4, 5, 6, 7, 16}} {
		d := gbjDecision(t, p, len(pars))
		drv := startTestClusterPar(t, pars, 0)
		base := p
		base.Src = ""
		cs := NewClusterSession(drv, base, time.Minute)
		got, _, err := cs.Query(p.Src)
		if err != nil {
			t.Fatalf("world %d: %v", len(pars), err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("world %d with mixed parallelism differs from local: %s vs %s",
				len(pars), SummarizeBlob(got), SummarizeBlob(want))
		}
		snap := cs.Metrics()
		if snap.ShuffledBytes != d.Chosen.ShuffleBytes {
			t.Fatalf("world %d: measured %d shuffle bytes vs estimated %d on the %dx%d grid",
				len(pars), snap.ShuffledBytes, d.Chosen.ShuffleBytes, d.GridP, d.GridQ)
		}
	}
}

// gbjWire counts what the group-by-join of p's two square inputs moves
// between ranks (DESIGN §11): cell I·q + J of the gridP × gridQ grid —
// one cell per rank, the grid a cluster runs — is partition I·q + J and
// rank I·q + J; an op(A) tile of block row g is replicated to cells
// (cellRow(g), j) for j < q, an op(B) tile of block column g to cells
// (i, cellCol(g)) for i < p, and the map task that emits a tile is the
// input partition holding it, on its rank (partition mod W). A tile
// crosses once to each peer rank one of its replicas is bound for
// (perRank), or once per such replica when nothing shares it
// (perReplica).
func gbjWire(p QueryParams, world int, gridP, gridQ int64) (perRank, perReplica int64) {
	blocks := (p.N + p.Tile - 1) / p.Tile
	tiles, parts := blocks*blocks, p.Partitions
	home := func(t int64) int { // the rank of the input partition holding tile t
		m := int64(0)
		for (m+1)*tiles/parts <= t {
			m++
		}
		return int(m) % world
	}
	rankOf := func(i, j int64) int { return int(i*gridQ + j) }
	cross := func(from int, cells [][2]int64) {
		peers := map[int]bool{}
		for _, c := range cells {
			if r := rankOf(c[0], c[1]); r != from {
				perReplica++
				peers[r] = true
			}
		}
		perRank += int64(len(peers))
	}
	for t := int64(0); t < tiles; t++ {
		i, j := t/blocks, t%blocks
		var rowCells, colCells [][2]int64
		for jj := int64(0); jj < gridQ; jj++ {
			rowCells = append(rowCells, [2]int64{i * gridP / blocks, jj}) // A tile (i, j): group i
		}
		for ii := int64(0); ii < gridP; ii++ {
			colCells = append(colCells, [2]int64{ii, j * gridQ / blocks}) // B tile (i, j): group j
		}
		cross(home(t), rowCells)
		cross(home(t), colCells)
	}
	return perRank, perReplica
}

// TestGBJWireMatchesRankFormula: on the benchmark's product (n = 1000 in
// 100 × 100 tiles, the default partitions of each world) over TCP
// workers, the tiles the ranks decode whole from the blobs they fetch are
// exactly gbjWire's per-rank count — every replica a peer needs of one
// tile arrives in one blob, written once — and the wire carries exactly
// the blobs the ranks published for one another. Under a budget that
// spills every map task's output before it is published the replicas
// come back from run files as distinct tiles, so each crosses whole: the
// per-replica count, what the exchange moved when it knew buckets, not
// ranks. With one cell per rank no two replicas of a tile share a rank,
// so the two counts agree: 150 / 264 / 526 tiles at worlds 2 / 3 / 8,
// where a grid of one cell per partition moved 144 / 400 / 786 (288 /
// 461 / 1,044 under the budget).
func TestGBJWireMatchesRankFormula(t *testing.T) {
	for _, c := range []struct {
		world        int
		gridP, gridQ int64
		crossed      int64
	}{{2, 1, 2, 150}, {3, 1, 3, 264}, {8, 2, 4, 526}} {
		world := c.world
		p := QueryParams{N: 1000, Tile: 100, SeedA: 1, SeedB: 2, Partitions: int64(DefaultPartitions(world)), Src: fig4Queries[0].src}
		want, err := RunQueryLocal(p)
		if err != nil {
			t.Fatal(err)
		}
		d := gbjDecision(t, p, world)
		if d.GridP != c.gridP || d.GridQ != c.gridQ {
			t.Fatalf("world %d: grid %dx%d, want %dx%d: one cell per rank", world, d.GridP, d.GridQ, c.gridP, c.gridQ)
		}
		perRank, perReplica := gbjWire(p, world, d.GridP, d.GridQ)
		t.Logf("world %d: %dx%d grid on %d partitions: %d tiles cross per rank, %d per replica",
			world, d.GridP, d.GridQ, p.Partitions, perRank, perReplica)
		if perRank != c.crossed || perReplica != c.crossed {
			t.Fatalf("world %d: %d tiles per rank and %d per replica, want %d and %d", world, perRank, perReplica, c.crossed, c.crossed)
		}
		for _, budget := range []int64{0, spillingBudget} {
			drv := startTestClusterPar(t, twoSlots(world), budget)
			resetExchangeSpy()
			before := spill.Bound()
			run, err := drv.Run(spyQueryName, p.Encode(), time.Minute)
			if err != nil {
				t.Fatalf("world %d budget %d: %v", world, budget, err)
			}
			crossed := spill.Bound() - before
			if !bytes.Equal(run.Result, want) {
				t.Fatalf("world %d budget %d: result differs from local", world, budget)
			}
			if wantCrossed := map[bool]int64{true: perRank, false: perReplica}[budget == 0]; crossed != wantCrossed {
				t.Errorf("world %d budget %d: %d tiles crossed whole, want %d", world, budget, crossed, wantCrossed)
			}
			var published, wire int64
			exchangeSpy.Lock()
			for key, size := range exchangeSpy.published {
				if !peerBoundBlob(key) {
					t.Fatalf("world %d budget %d: published %q", world, budget, key)
				}
				published += int64(size)
			}
			exchangeSpy.Unlock()
			for _, w := range run.Workers {
				wire += w.Report.WireRawBytes
			}
			if wire != published {
				t.Errorf("world %d budget %d: %d raw bytes on the wire, %d published for peers", world, budget, wire, published)
			}
		}
	}
}

// TestGBJOneCellPerRank: on the benchmark's product at worlds 1, 2, 3
// and 8 the group-by-join's cells, read off the ranks' "kernel: gbj-cell"
// spans, form the grid the driver's planner names in Explain; no rank
// runs more than ⌈cells / world⌉ of them; and the ranks' output-tile
// counts differ by at most one tile column or row of a cell. Dealing the
// 2 × 4 grid of one cell per partition to 2 ranks by partition mod W gave
// rank 0 every wide cell: 60 output tiles against 40.
func TestGBJOneCellPerRank(t *testing.T) {
	const blocks = 10
	for _, world := range []int{1, 2, 3, 8} {
		p := QueryParams{N: 100 * blocks, Tile: 100, SeedA: 1, SeedB: 2, Trace: true}
		cs := NewClusterSession(startTestClusterPar(t, twoSlots(world), 0), p, time.Minute)
		q, err := cs.Compile(fig4Queries[0].src)
		if err != nil {
			t.Fatal(err)
		}
		d := q.Decision()
		if grid := fmt.Sprintf("grid %dx%d", d.GridP, d.GridQ); !strings.Contains(q.Explain(), grid) {
			t.Fatalf("world %d: Explain does not name %s:\n%s", world, grid, q.Explain())
		}
		_, run, err := cs.Query(fig4Queries[0].src)
		if err != nil {
			t.Fatalf("world %d: %v", world, err)
		}
		ran := map[string]bool{}
		var maxI, maxJ int64
		lo, hi := int64(blocks*blocks), int64(0)
		for _, w := range run.Workers {
			cells, tiles := 0, int64(0)
			for _, sp := range w.Telemetry.Spans {
				if sp.Name != "kernel: gbj-cell" {
					continue
				}
				attr := map[string]string{}
				for i, k := range sp.Keys {
					attr[k] = sp.Vals[i]
				}
				var ci, cj, n int64
				if _, err := fmt.Sscanf(attr["cell"]+" "+attr["tiles"], "(%d,%d) %d", &ci, &cj, &n); err != nil {
					t.Fatalf("world %d: gbj-cell span %v: %v", world, attr, err)
				}
				if ran[attr["cell"]] {
					t.Fatalf("world %d: cell %s ran twice", world, attr["cell"])
				}
				ran[attr["cell"]] = true
				maxI, maxJ = max(maxI, ci), max(maxJ, cj)
				cells++
				tiles += n
			}
			if limit := (int(d.GridP*d.GridQ) + world - 1) / world; cells > limit {
				t.Errorf("world %d: rank %s ran %d cells, more than ⌈%d/%d⌉", world, w.ID, cells, d.GridP*d.GridQ, world)
			}
			lo, hi = min(lo, tiles), max(hi, tiles)
		}
		if maxI+1 != d.GridP || maxJ+1 != d.GridQ || int64(len(ran)) != d.GridP*d.GridQ {
			t.Fatalf("world %d: %d cells ran up to (%d,%d), Explain names grid %dx%d",
				world, len(ran), maxI, maxJ, d.GridP, d.GridQ)
		}
		step := max((blocks+d.GridP-1)/d.GridP, (blocks+d.GridQ-1)/d.GridQ)
		t.Logf("world %d: grid %dx%d, %d..%d output tiles a rank", world, d.GridP, d.GridQ, lo, hi)
		if hi-lo > step {
			t.Errorf("world %d: ranks hold %d..%d output tiles, more apart than one cell row or column (%d)", world, lo, hi, step)
		}
	}
}
