package jobs

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/opt"
)

// gbjDecision compiles p's query the way runQuery's session would and
// returns the cost model's record of it.
func gbjDecision(t *testing.T, p QueryParams) *opt.Decision {
	t.Helper()
	s := core.NewSession(core.Config{TileSize: int(p.Tile), Partitions: int(p.Partitions)})
	defer s.Close()
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
// that runs. The estimate counts 16 key bytes per tile where the
// engine's rows carry 32 (cell coordinate + join key and group), so the
// measured shuffle volume minus 16 bytes per record is the estimate,
// exactly.
func TestGBJEstimateMatchesMeasuredLocal(t *testing.T) {
	p := gbjParams()
	d := gbjDecision(t, p)
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
	if got := snap.ShuffledBytes - 16*snap.ShuffledRecords; got != d.Chosen.ShuffleBytes {
		t.Fatalf("measured %d shuffle bytes (less row keys) vs estimated %d", got, d.Chosen.ShuffleBytes)
	}
}

// TestClusterGridIgnoresParallelism is the SPMD invariant: ranks
// started with different task-slot counts derive the same processor
// grid, so the stage graphs agree, the result is byte-identical to the
// local backend, and the cluster as a whole shuffles exactly the
// estimated volume.
func TestClusterGridIgnoresParallelism(t *testing.T) {
	p := gbjParams()
	want, err := RunQueryLocal(p)
	if err != nil {
		t.Fatalf("local: %v", err)
	}
	d := gbjDecision(t, p)
	for _, pars := range [][]int{{1, 2, 5}, {1, 2, 3, 4, 5, 6, 7, 16}} {
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
		if est := snap.ShuffledBytes - 16*snap.ShuffledRecords; est != d.Chosen.ShuffleBytes {
			t.Fatalf("world %d: measured %d shuffle bytes (less row keys) vs estimated %d on the %dx%d grid",
				len(pars), est, d.Chosen.ShuffleBytes, d.GridP, d.GridQ)
		}
	}
}
