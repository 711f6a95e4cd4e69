package dataflow_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/mllib"
)

// mllibProduct multiplies two fixed random block matrices — a 7 x 5 by
// 5 x 6 block product with ragged edge blocks, on 4 partitions — with
// the MLlib baseline and collects the result in partition order.
func mllibProduct(ctx *dataflow.Context) []mllib.Block {
	a := mllib.RandBlockMatrix(ctx, 65, 47, 10, 4, -1, 1, 1)
	b := mllib.RandBlockMatrix(ctx, 47, 58, 10, 4, -1, 1, 2)
	return dataflow.Collect(a.Multiply(b).Blocks)
}

// sameBlocks reports where got differs from want, bit for bit.
func sameBlocks(got, want []mllib.Block) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d blocks, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Key != w.Key || g.Value.Rows != w.Value.Rows || g.Value.Cols != w.Value.Cols {
			return fmt.Errorf("block %d: %v %dx%d, want %v %dx%d", i, g.Key, g.Value.Rows, g.Value.Cols, w.Key, w.Value.Rows, w.Value.Cols)
		}
		for k := range w.Value.Data {
			if math.Float64bits(g.Value.Data[k]) != math.Float64bits(w.Value.Data[k]) {
				return fmt.Errorf("block %v cell %d: %v, want %v", w.Key, k, g.Value.Data[k], w.Value.Data[k])
			}
		}
	}
	return nil
}

// TestMLlibMultiplyOffSingleProcess: the MLlib baseline's multiply, whose
// replicas cross its shuffle through the tile codec, is bit-identical to
// the unbudgeted local run under a budget that spills every segment, and
// on 1, 3 and 8 ranks of the in-process SPMD transport, on every rank.
func TestMLlibMultiplyOffSingleProcess(t *testing.T) {
	local := dataflow.NewContext(dataflow.Config{Parallelism: 2})
	want := mllibProduct(local)
	local.Close()

	t.Run("budget", func(t *testing.T) {
		ctx := dataflow.NewContext(dataflow.Config{Parallelism: 2, MemoryBudget: 64})
		defer ctx.Close()
		if err := sameBlocks(mllibProduct(ctx), want); err != nil {
			t.Fatal(err)
		}
		if ctx.Metrics().SpilledBytes == 0 {
			t.Fatal("nothing spilled under a 64-byte budget")
		}
	})
	for _, world := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("world=%d", world), func(t *testing.T) {
			for r, got := range dataflow.RunOnRanks(t, world, mllibProduct) {
				if err := sameBlocks(got, want); err != nil {
					t.Fatalf("rank %d: %v", r, err)
				}
			}
		})
	}
}
