package dataflow

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestKernelBudget pins the budget arithmetic: idle contexts hand all
// of Parallelism to the kernel, saturated stage pools force budget 1,
// and partial occupancy divides the leftover cores.
func TestKernelBudget(t *testing.T) {
	ctx := NewContext(Config{Parallelism: 8})
	if got := ctx.KernelBudget(); got != 8 {
		t.Fatalf("idle budget = %d, want 8", got)
	}
	// Occupy stage-pool slots directly; KernelBudget reads len(sem).
	occupy := func(n int) {
		for i := 0; i < n; i++ {
			ctx.sem <- struct{}{}
		}
	}
	release := func(n int) {
		for i := 0; i < n; i++ {
			<-ctx.sem
		}
	}
	occupy(2)
	if got := ctx.KernelBudget(); got != 4 {
		t.Fatalf("budget with 2 busy = %d, want 4", got)
	}
	occupy(1) // 3 busy
	if got := ctx.KernelBudget(); got != 2 {
		t.Fatalf("budget with 3 busy = %d, want 2", got)
	}
	occupy(5) // 8 busy: saturated
	if got := ctx.KernelBudget(); got != 1 {
		t.Fatalf("budget when saturated = %d, want 1", got)
	}
	release(8)
	if got := ctx.KernelBudget(); got != 8 {
		t.Fatalf("budget after release = %d, want 8", got)
	}

	one := NewContext(Config{Parallelism: 1})
	if got := one.KernelBudget(); got != 1 {
		t.Fatalf("single-core budget = %d, want 1", got)
	}
}

// TestPoolMetricsFlow checks that tile-pool gauges surface through
// Metrics, diff correctly with Sub, reset with ResetMetrics, and show
// up in the FormatStages report.
func TestPoolMetricsFlow(t *testing.T) {
	ctx := NewContext(Config{Parallelism: 2})
	pool := ctx.TilePool()

	// Hits are not asserted individually: the pool rides on sync.Pool,
	// which may drop any Put (it does so deliberately under -race).
	// Gets (hits+misses) and returns are deterministic.
	a := pool.Get(4, 4)
	pool.Put(a)
	b := pool.Get(4, 4)
	pool.Put(b)

	snap := ctx.Metrics()
	if gets := snap.PoolHits + snap.PoolMisses; gets != 2 || snap.PoolReturns != 2 {
		t.Fatalf("pool gauges = hits %d misses %d returns %d, want 2 gets and 2 returns",
			snap.PoolHits, snap.PoolMisses, snap.PoolReturns)
	}

	// More activity, then diff against the first snapshot.
	c := pool.Get(4, 4)
	pool.Put(c)
	diff := ctx.Metrics().Sub(snap)
	if gets := diff.PoolHits + diff.PoolMisses; gets != 1 || diff.PoolReturns != 1 {
		t.Fatalf("diffed gauges = hits %d misses %d returns %d, want 1 get and 1 return",
			diff.PoolHits, diff.PoolMisses, diff.PoolReturns)
	}

	// The human-readable report includes the reuse line when the pool
	// was used at all.
	sumByParity(ctx) // ensure there is at least one stage row
	out := ctx.Metrics().FormatStages()
	if !strings.Contains(out, "tile pool:") {
		t.Fatalf("FormatStages missing tile pool line:\n%s", out)
	}

	ctx.ResetMetrics()
	after := ctx.Metrics()
	if after.PoolHits != 0 || after.PoolMisses != 0 || after.PoolReturns != 0 {
		t.Fatalf("gauges not reset: %+v", after)
	}
	if strings.Contains(after.FormatStages(), "tile pool:") {
		t.Fatalf("tile pool line printed with zero gets")
	}
}

// TestRegistryTotalsSurviveResetMetrics: the process-wide series count
// every task a context ran, whatever ResetMetrics did in between — a
// small query, a reset, then a larger one (the server resets before
// every local query), with records collected after the last stage end
// and tile-pool traffic the reset zeroes.
func TestRegistryTotalsSurviveResetMetrics(t *testing.T) {
	series := func(name string) int64 { return obs.Default.Counter(name, "").Value() }
	names := []string{"sac_dataflow_tasks_total", "sac_dataflow_stages_total",
		"sac_dataflow_collected_records_total", "sac_linalg_pool_returns_total"}
	before := make([]int64, len(names))
	for i, n := range names {
		before[i] = series(n)
	}
	ctx := NewContext(Config{Parallelism: 2})
	var want obs.CounterSet
	for _, parts := range []int{2, 16, 4} {
		ctx.ResetMetrics()
		pairs := Map(Parallelize(ctx, intRange(64), parts), func(v int) Pair[int, int] { return KV(v%8, v) })
		Collect(ReduceByKey(pairs, func(a, b int) int { return a + b }, parts))
		ctx.TilePool().Put(ctx.TilePool().Get(4, 4))
		want = obs.MergeCounters(want, ctx.Metrics().CounterSet)
	}
	ctx.ResetMetrics()
	for i, w := range []int64{want.Tasks, want.Stages, want.CollectedRecords, want.PoolReturns} {
		if got := series(names[i]) - before[i]; got != w || w == 0 {
			t.Errorf("%s advanced by %d, the context counted %d", names[i], got, w)
		}
	}
}
