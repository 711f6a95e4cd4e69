// Package bench regenerates the paper's evaluation (Section 6,
// Figure 4) on the in-process engine: matrix addition (4.A), matrix
// multiplication (4.B), and one gradient-descent factorization
// iteration (4.C), plus ablations of the individual optimizations.
// Each data point reports wall-clock seconds and shuffled bytes per
// system so both the paper's time series and the underlying cost
// driver are visible.
package bench

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/dataflow"
	"repro/internal/linalg"
	"repro/internal/ml"
	"repro/internal/mllib"
	"repro/internal/opt"
	"repro/internal/plan"
	"repro/internal/sacparser"
	"repro/internal/tiled"
)

// Config sizes a benchmark run. The paper used 1000x1000 tiles on a
// 4-node cluster; the defaults here are scaled for one process.
type Config struct {
	TileSize   int
	Partitions int
	Parallel   int
	// MemoryBudget bounds tracked engine memory per measured context;
	// shuffles and caches beyond it spill to disk and the figure tables
	// grow spilled-bytes / merge-pass columns. <= 0 disables spilling.
	MemoryBudget int64
}

// Point is one measurement: a problem size and per-system metrics.
// Spilled and Merges stay zero unless the run had a memory budget.
type Point struct {
	Elements int64 // total matrix elements, the paper's x-axis
	Seconds  map[string]float64
	Shuffled map[string]int64
	Spilled  map[string]int64
	Merges   map[string]int64
}

func newPoint(elements int64) Point {
	return Point{Elements: elements,
		Seconds:  map[string]float64{},
		Shuffled: map[string]int64{},
		Spilled:  map[string]int64{},
		Merges:   map[string]int64{},
	}
}

// record stores one system's measurement into the point.
func (p Point) record(sys string, sec float64, m dataflow.MetricsSnapshot) {
	p.Seconds[sys] = sec
	p.Shuffled[sys] = m.ShuffledBytes
	p.Spilled[sys] = m.SpilledBytes
	p.Merges[sys] = m.MergePasses
}

// Series is one figure's data.
type Series struct {
	Name    string
	Systems []string
	Points  []Point
}

// Format renders the series as an aligned text table mirroring the
// figure's data. Spilled-bytes and merge-pass columns appear only when
// some run actually spilled, so unbudgeted tables keep their shape.
func (s Series) Format() string {
	spilled := false
	for _, p := range s.Points {
		for _, sys := range s.Systems {
			if p.Spilled[sys] > 0 || p.Merges[sys] > 0 {
				spilled = true
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", s.Name)
	fmt.Fprintf(&b, "%-14s", "elements")
	for _, sys := range s.Systems {
		fmt.Fprintf(&b, "%16s", sys+"(s)")
	}
	for _, sys := range s.Systems {
		fmt.Fprintf(&b, "%18s", sys+"(shufMB)")
	}
	if spilled {
		for _, sys := range s.Systems {
			fmt.Fprintf(&b, "%19s", sys+"(spillMB)")
		}
		for _, sys := range s.Systems {
			fmt.Fprintf(&b, "%17s", sys+"(merges)")
		}
	}
	b.WriteByte('\n')
	for _, p := range s.Points {
		fmt.Fprintf(&b, "%-14d", p.Elements)
		for _, sys := range s.Systems {
			fmt.Fprintf(&b, "%16.3f", p.Seconds[sys])
		}
		for _, sys := range s.Systems {
			fmt.Fprintf(&b, "%18.1f", float64(p.Shuffled[sys])/(1<<20))
		}
		if spilled {
			for _, sys := range s.Systems {
				fmt.Fprintf(&b, "%19.1f", float64(p.Spilled[sys])/(1<<20))
			}
			for _, sys := range s.Systems {
				fmt.Fprintf(&b, "%17d", p.Merges[sys])
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Ratios summarizes max speedup of one system over another across the
// series (the paper's "up to k times faster" statements).
func (s Series) Ratios(fast, slow string) (maxRatio float64) {
	for _, p := range s.Points {
		f, sl := p.Seconds[fast], p.Seconds[slow]
		if f > 0 && sl/f > maxRatio {
			maxRatio = sl / f
		}
	}
	return maxRatio
}

// currentCtx remembers the most recently created bench context, whose
// metrics `sacbench -json` exports after a figure run.
var currentCtx atomic.Pointer[dataflow.Context]

// CurrentMetrics snapshots the metrics of the most recently created
// bench context (zero snapshot before the first run starts).
func CurrentMetrics() dataflow.MetricsSnapshot {
	if c := currentCtx.Load(); c != nil {
		return c.Metrics()
	}
	return dataflow.MetricsSnapshot{}
}

func newCtx(cfg Config) *dataflow.Context {
	ctx := dataflow.NewContext(dataflow.Config{
		Parallelism:       cfg.Parallel,
		DefaultPartitions: cfg.Partitions,
		MemoryBudget:      cfg.MemoryBudget,
	})
	currentCtx.Store(ctx)
	return ctx
}

// closeCtx releases a measured context's spill directory; errors only
// matter for leaked temp space, so they are ignored here.
func closeCtx(ctx *dataflow.Context) { _ = ctx.Close() }

// measure times fn and returns (seconds, the metrics the run accrued).
func measure(ctx *dataflow.Context, fn func()) (float64, dataflow.MetricsSnapshot) {
	ctx.ResetMetrics()
	start := time.Now()
	fn()
	return time.Since(start).Seconds(), ctx.Metrics()
}

// AddQuery is Figure 4.A's SAC side: the addition comprehension the
// compiler translates to a tiling-preserving join (Rule 17) with a
// generated per-tile kernel.
const AddQuery = "tiled(n,n)[ ((i,j), a+b) | ((i,j),a) <- A, ((ii,jj),b) <- B, ii == i, jj == j ]"

// CompiledAdd compiles and runs AddQuery over a and b — parse, plan,
// kernel lowering and execution, what a SAC user pays — and returns the
// lazy result.
func CompiledAdd(a, b *tiled.Matrix) *tiled.Matrix {
	cat := plan.NewCatalog(a.Tiles.Context()).BindMatrix("A", a).BindMatrix("B", b).BindScalar("n", a.Rows)
	res, err := plan.Run(sacparser.MustParse(AddQuery), cat, opt.Options{})
	if err != nil {
		panic(err)
	}
	return res.Matrix
}

// Fig4A reproduces matrix addition: MLlib (cogroup + serial kernel)
// vs SAC (the compiled comprehension: tiling-preserving join +
// generated kernel). sizes are matrix side lengths.
func Fig4A(cfg Config, sizes []int64) Series {
	s := Series{Name: "Figure 4.A — Matrix Addition (total time vs elements)",
		Systems: []string{"MLlib", "SAC"}}
	for _, n := range sizes {
		p := newPoint(n * n)

		{
			ctx := newCtx(cfg)
			a := mllib.RandBlockMatrix(ctx, n, n, cfg.TileSize, cfg.Partitions, 0, 10, 1)
			b := mllib.RandBlockMatrix(ctx, n, n, cfg.TileSize, cfg.Partitions, 0, 10, 2)
			force(ctx, a.Blocks)
			force(ctx, b.Blocks)
			sec, m := measure(ctx, func() { forceBlocks(a.Add(b).Blocks) })
			p.record("MLlib", sec, m)
			closeCtx(ctx)
		}
		{
			ctx := newCtx(cfg)
			a := tiled.RandMatrix(ctx, n, n, cfg.TileSize, cfg.Partitions, 0, 10, 1)
			b := tiled.RandMatrix(ctx, n, n, cfg.TileSize, cfg.Partitions, 0, 10, 2)
			force(ctx, a.Tiles)
			force(ctx, b.Tiles)
			sec, m := measure(ctx, func() { forceBlocks(CompiledAdd(a, b).Tiles) })
			p.record("SAC", sec, m)
			closeCtx(ctx)
		}
		s.Points = append(s.Points, p)
	}
	return s
}

// Fig4B reproduces matrix multiplication: MLlib BlockMatrix.multiply,
// SAC translated as a join followed by a group-by, and SAC GBJ
// (SUMMA group-by-join).
func Fig4B(cfg Config, sizes []int64) Series {
	s := Series{Name: "Figure 4.B — Matrix Multiplication (total time vs elements)",
		Systems: []string{"MLlib", "SAC", "SAC GBJ"}}
	for _, n := range sizes {
		p := newPoint(n * n)

		{
			ctx := newCtx(cfg)
			a := mllib.RandBlockMatrix(ctx, n, n, cfg.TileSize, cfg.Partitions, 0, 10, 1)
			b := mllib.RandBlockMatrix(ctx, n, n, cfg.TileSize, cfg.Partitions, 0, 10, 2)
			force(ctx, a.Blocks)
			force(ctx, b.Blocks)
			sec, m := measure(ctx, func() { forceBlocks(a.Multiply(b).Blocks) })
			p.record("MLlib", sec, m)
			closeCtx(ctx)
		}
		{
			ctx := newCtx(cfg)
			a := tiled.RandMatrix(ctx, n, n, cfg.TileSize, cfg.Partitions, 0, 10, 1)
			b := tiled.RandMatrix(ctx, n, n, cfg.TileSize, cfg.Partitions, 0, 10, 2)
			force(ctx, a.Tiles)
			force(ctx, b.Tiles)
			sec, m := measure(ctx, func() { forceBlocks(tiled.JoinMultiply(a, b, tiled.Product{}, false).Tiles) })
			p.record("SAC", sec, m)
			closeCtx(ctx)
		}
		{
			ctx := newCtx(cfg)
			a := tiled.RandMatrix(ctx, n, n, cfg.TileSize, cfg.Partitions, 0, 10, 1)
			b := tiled.RandMatrix(ctx, n, n, cfg.TileSize, cfg.Partitions, 0, 10, 2)
			force(ctx, a.Tiles)
			force(ctx, b.Tiles)
			sec, m := measure(ctx, func() { forceBlocks(a.MultiplyGBJ(b).Tiles) })
			p.record("SAC GBJ", sec, m)
			closeCtx(ctx)
		}
		s.Points = append(s.Points, p)
	}
	return s
}

// Fig4C reproduces one iteration of gradient-descent matrix
// factorization: MLlib operators vs SAC GBJ. R is n x n with 10%
// density, P and Q are n x k.
func Fig4C(cfg Config, sizes []int64, k int64) Series {
	s := Series{Name: "Figure 4.C — Matrix Factorization, one GD iteration (total time vs elements)",
		Systems: []string{"MLlib", "SAC GBJ"}}
	gd := ml.PaperConfig()
	for _, n := range sizes {
		p := newPoint(n * n)
		r := linalg.RandSparseCOO(int(n), int(n), 0.1, 5, 7).ToDense()

		{
			ctx := newCtx(cfg)
			br := mllib.FromDense(ctx, r, cfg.TileSize, cfg.Partitions)
			bp := mllib.RandBlockMatrix(ctx, n, k, cfg.TileSize, cfg.Partitions, 0, 1, 8)
			bq := mllib.RandBlockMatrix(ctx, n, k, cfg.TileSize, cfg.Partitions, 0, 1, 9)
			force(ctx, br.Blocks)
			force(ctx, bp.Blocks)
			force(ctx, bq.Blocks)
			sec, m := measure(ctx, func() {
				np, nq := ml.StepMLlib(br, bp, bq, gd)
				forceBlocks(np.Blocks)
				forceBlocks(nq.Blocks)
			})
			p.record("MLlib", sec, m)
			closeCtx(ctx)
		}
		{
			ctx := newCtx(cfg)
			tr := tiled.FromDense(ctx, r, cfg.TileSize, cfg.Partitions)
			tp := tiled.RandMatrix(ctx, n, k, cfg.TileSize, cfg.Partitions, 0, 1, 8)
			tq := tiled.RandMatrix(ctx, n, k, cfg.TileSize, cfg.Partitions, 0, 1, 9)
			force(ctx, tr.Tiles)
			force(ctx, tp.Tiles)
			force(ctx, tq.Tiles)
			sec, m := measure(ctx, func() {
				np, nq := ml.StepTiled(tr, tp, tq, gd)
				forceBlocks(np.Tiles)
				forceBlocks(nq.Tiles)
			})
			p.record("SAC GBJ", sec, m)
			closeCtx(ctx)
		}
		s.Points = append(s.Points, p)
	}
	return s
}

// AblationTileSize measures GBJ multiplication across tile sizes for
// a fixed matrix, exposing the tiling/parallelism trade-off the paper
// fixes at 1000.
func AblationTileSize(cfg Config, n int64, tileSizes []int) Series {
	s := Series{Name: fmt.Sprintf("Ablation — tile size for %dx%d GBJ multiply", n, n)}
	for _, ts := range tileSizes {
		s.Systems = append(s.Systems, fmt.Sprintf("N=%d", ts))
	}
	p := newPoint(n * n)
	for _, ts := range tileSizes {
		ctx := newCtx(cfg)
		a := tiled.RandMatrix(ctx, n, n, ts, cfg.Partitions, 0, 10, 1)
		b := tiled.RandMatrix(ctx, n, n, ts, cfg.Partitions, 0, 10, 2)
		force(ctx, a.Tiles)
		force(ctx, b.Tiles)
		name := fmt.Sprintf("N=%d", ts)
		sec, m := measure(ctx, func() { forceBlocks(a.MultiplyGBJ(b).Tiles) })
		p.record(name, sec, m)
		closeCtx(ctx)
	}
	s.Points = []Point{p}
	return s
}

// AblationReduceByKey compares reduceByKey vs groupByKey translations
// of the same multiplication (Rule 13).
func AblationReduceByKey(cfg Config, sizes []int64) Series {
	s := Series{Name: "Ablation — Rule 13: reduceByKey vs groupByKey multiply",
		Systems: []string{"reduceByKey", "groupByKey"}}
	for _, n := range sizes {
		p := newPoint(n * n)
		for _, variant := range s.Systems {
			ctx := newCtx(cfg)
			a := tiled.RandMatrix(ctx, n, n, cfg.TileSize, cfg.Partitions, 0, 10, 1)
			b := tiled.RandMatrix(ctx, n, n, cfg.TileSize, cfg.Partitions, 0, 10, 2)
			force(ctx, a.Tiles)
			force(ctx, b.Tiles)
			var fn func()
			if variant == "reduceByKey" {
				fn = func() { forceBlocks(tiled.JoinMultiply(a, b, tiled.Product{}, true).Tiles) }
			} else {
				fn = func() { forceBlocks(tiled.JoinMultiply(a, b, tiled.Product{}, false).Tiles) }
			}
			sec, m := measure(ctx, fn)
			p.record(variant, sec, m)
			closeCtx(ctx)
		}
		s.Points = append(s.Points, p)
	}
	return s
}

// coordMulQuery is the product the planner can only compile with the
// Section 4 coordinate-format fallback: an rdd head keeps it off the
// block rules, so it runs as a 2-way join chain (Rule 14) and
// reduceByKey (Rules 12-13) over one row per element.
const coordMulQuery = "rdd[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B, kk == k, let v = a*b, group by (i,j) ]"

// compileCoordMul compiles coordMulQuery over a and b.
func compileCoordMul(a, b *tiled.Matrix) *plan.Compiled {
	cat := plan.NewCatalog(a.Tiles.Context()).BindMatrix("A", a).BindMatrix("B", b)
	q, err := plan.Compile(sacparser.MustParse(coordMulQuery), cat, opt.Options{})
	if err != nil {
		panic(err)
	}
	return q
}

// AblationCoordinate compares tiled against coordinate-format
// storage for multiplication (the Section 4 vs Section 5 storage
// decision): the tiled GBJ product, and coordMulQuery compiled and run
// on the same tiles.
func AblationCoordinate(cfg Config, sizes []int64) Series {
	s := Series{Name: "Ablation — storage: tiled GBJ vs coordinate format multiply",
		Systems: []string{"tiled", "coordinate"}}
	for _, n := range sizes {
		p := newPoint(n * n)
		for _, sys := range s.Systems {
			ctx := newCtx(cfg)
			a := tiled.RandMatrix(ctx, n, n, cfg.TileSize, cfg.Partitions, 0, 10, 1)
			b := tiled.RandMatrix(ctx, n, n, cfg.TileSize, cfg.Partitions, 0, 10, 2)
			force(ctx, a.Tiles)
			force(ctx, b.Tiles)
			run := func() { forceBlocks(a.MultiplyGBJ(b).Tiles) }
			if sys == "coordinate" {
				run = func() {
					if _, err := compileCoordMul(a, b).Execute(); err != nil {
						panic(err)
					}
				}
			}
			sec, m := measure(ctx, run)
			p.record(sys, sec, m)
			closeCtx(ctx)
		}
		s.Points = append(s.Points, p)
	}
	return s
}

// StageBreakdown runs one SAC GBJ matrix multiplication of side n and
// renders the engine's per-stage execution table: each shuffle
// map-side and the final action with its wall time, tasks, records
// in/out, and shuffled bytes. The scheduler launches both SUMMA
// replication stages concurrently; on multi-core hosts the
// max-concurrent-stages line shows them overlapping (on a single core
// short CPU-bound stages may run back to back).
func StageBreakdown(cfg Config, n int64) string {
	ctx := newCtx(cfg)
	a := tiled.RandMatrix(ctx, n, n, cfg.TileSize, cfg.Partitions, 0, 10, 1)
	b := tiled.RandMatrix(ctx, n, n, cfg.TileSize, cfg.Partitions, 0, 10, 2)
	force(ctx, a.Tiles)
	force(ctx, b.Tiles)
	ctx.ResetMetrics()
	forceBlocks(a.MultiplyGBJ(b).Tiles)
	var out strings.Builder
	fmt.Fprintf(&out, "# Per-stage breakdown — SAC GBJ multiply, n=%d, tile=%d, %d partitions\n",
		n, cfg.TileSize, cfg.Partitions)
	out.WriteString(ctx.Metrics().FormatStages())
	closeCtx(ctx)
	return out.String()
}

// force materializes a dataset and caches it so setup work is
// excluded from measurements.
func force[T any](ctx *dataflow.Context, d *dataflow.Dataset[T]) {
	d.Persist()
	dataflow.Count(d)
	ctx.ResetMetrics()
}

// forceBlocks materializes a result dataset.
func forceBlocks[T any](d *dataflow.Dataset[T]) {
	dataflow.Count(d)
}
