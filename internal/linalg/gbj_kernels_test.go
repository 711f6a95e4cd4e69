package linalg_test

import (
	"testing"

	"repro/internal/dataflow"
	"repro/internal/linalg"
	"repro/internal/tiled"
)

// TestGBJBitIdenticalAcrossKernels runs the four group-by-join
// orientations, in memory and spilling under a budget, once per kernel
// of this host: every run must produce the same bits. That is what lets
// a cluster of mixed CPUs pass the driver's bytes.Equal, and what makes
// the grid, out-of-core and world × budget byte-identity suites
// kernel-independent (they each compare runs within one process).
func TestGBJBitIdenticalAcrossKernels(t *testing.T) {
	const n, tile = 230, 50 // ragged: 4.6 tiles a side
	type run struct {
		name   string
		budget int64
		prod   tiled.Product
	}
	orientations := map[string]tiled.Product{
		"multiply": {}, "transA": {TransA: true}, "transB": {TransB: true}, "transAB": {TransA: true, TransB: true},
	}
	var runs []run
	for _, budget := range []int64{0, 256 << 10} {
		mem := "in-memory"
		if budget > 0 {
			mem = "spilling"
		}
		for o, prod := range orientations {
			runs = append(runs, run{o + "/" + mem, budget, prod})
		}
	}
	da := linalg.RandDense(n, n, -1, 1, 1)
	db := linalg.RandDense(n, n, -1, 1, 2)
	first := map[string]*linalg.Dense{}
	linalg.ForEachKernel(t, func(t *testing.T) {
		for _, r := range runs {
			ctx := dataflow.NewContext(dataflow.Config{Parallelism: 2, DefaultPartitions: 4, MemoryBudget: r.budget})
			got := tiled.GroupByJoin(tiled.FromDense(ctx, da, tile, 4), tiled.FromDense(ctx, db, tile, 4), r.prod).ToDense()
			if r.budget > 0 && ctx.Metrics().SpilledBytes == 0 {
				t.Errorf("%s: nothing spilled under the budget", r.name)
			}
			if err := ctx.Close(); err != nil {
				t.Errorf("%s: Close: %v", r.name, err)
			}
			want, seen := first[r.name]
			if !seen {
				first[r.name] = got
				continue
			}
			if !got.Equal(want) {
				t.Errorf("%s on %s differs from the first kernel's result (max diff %g)",
					r.name, linalg.KernelFor(tile, tile), got.MaxAbsDiff(want))
			}
		}
	})
	// Orientation is handled in packing, so the spilling and in-memory
	// runs of one orientation agree too, and multiply is right.
	ref := linalg.Mul(da, db)
	if got := first["multiply/in-memory"]; !got.EqualApprox(ref, 1e-9) {
		t.Fatalf("multiply is wrong (max diff %g)", got.MaxAbsDiff(ref))
	}
	for o := range orientations {
		if !first[o+"/spilling"].Equal(first[o+"/in-memory"]) {
			t.Errorf("%s: spilling run differs from the in-memory run", o)
		}
	}
}

// BenchmarkGBJCell is the tile product where the engine runs it: an
// n = 1000 group-by-join at tile 100 (1,000 products, each A and B tile
// packed once per SUMMA step of its cell), per kernel. GFLOP/s here
// against BenchmarkGemmTile's packed row is what the cell adds around
// the micro-kernel: packing, cold C tiles, the shuffle.
func BenchmarkGBJCell(b *testing.B) {
	const n, tile = 1000, 100
	linalg.ForEachKernel(b, func(b *testing.B) {
		ctx := dataflow.NewContext(dataflow.Config{DefaultPartitions: 8})
		x := tiled.RandMatrix(ctx, n, n, tile, 8, -1, 1, 1).Persist()
		y := tiled.RandMatrix(ctx, n, n, tile, 8, -1, 1, 2).Persist()
		dataflow.Count(x.Tiles)
		dataflow.Count(y.Tiles)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			x.MultiplyGBJ(y).Drain()
		}
		b.ReportMetric(2*n*n*n*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
	})
}
