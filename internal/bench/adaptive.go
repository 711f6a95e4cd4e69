// Adaptive-vs-static benchmark: adversarially skewed shuffles run
// twice — once with the engine's static hash partitioning, once with
// adaptive stage-boundary rebalancing (dataflow.Config.AdaptiveShuffle)
// — and the suite reports wall clock, shuffle volume, rebalance
// activity, and the records-per-partition balance of the skewed
// shuffle in a machine-readable shape (sacbench -fig adaptive -json
// writes it as BENCH_adaptive.json).

package bench

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"repro/internal/dataflow"
)

// AdaptiveBalance summarizes records per reduce partition at the
// skewed shuffle: Ratio = Max/P50 is the headline imbalance (1.0 is
// perfectly even).
type AdaptiveBalance struct {
	Max   int64   `json:"max"`
	P50   int64   `json:"p50"`
	Ratio float64 `json:"ratio"`
}

// AdaptiveRun is one execution of a skewed case under one policy.
type AdaptiveRun struct {
	Seconds       float64         `json:"seconds"`
	ShuffledBytes int64           `json:"shuffled_bytes"`
	Rebalances    int64           `json:"rebalances"`
	MovedRecords  int64           `json:"moved_records"`
	Balance       AdaptiveBalance `json:"partition_balance"`
}

// AdaptiveCase compares the two policies on one adversarial workload.
type AdaptiveCase struct {
	Name string `json:"name"`
	// Records is the input cardinality; HotKeys the number of distinct
	// keys engineered into the hot partition (0 when the skew is
	// distributional rather than engineered).
	Records int64 `json:"records"`
	HotKeys int   `json:"hot_keys"`
	// Static and Adaptive are the two runs over identical input.
	Static   AdaptiveRun `json:"static"`
	Adaptive AdaptiveRun `json:"adaptive"`
	// Speedup is static seconds / adaptive seconds.
	Speedup float64 `json:"speedup"`
	// ResultsMatch asserts the rebalance preserved the exact result.
	ResultsMatch bool `json:"results_match"`
}

// AdaptiveSuite is the BENCH_adaptive.json document.
type AdaptiveSuite struct {
	Partitions int            `json:"partitions"`
	Cases      []AdaptiveCase `json:"cases"`
}

// adaptiveCtx is newCtx plus the adaptive policy toggle. The skew
// thresholds stay at the engine defaults so the benchmark measures
// what users get out of the box. Parallelism defaults to the partition
// count (not GOMAXPROCS): the suite's work is latency-bound, so tasks
// must be able to overlap in flight even on hosts with fewer cores
// than partitions — otherwise a serial task queue hides exactly the
// straggler effect the suite measures.
func adaptiveCtx(cfg Config, adaptive bool) *dataflow.Context {
	par := cfg.Parallel
	if par <= 0 {
		par = cfg.Partitions
	}
	ctx := dataflow.NewContext(dataflow.Config{
		Parallelism:       par,
		DefaultPartitions: cfg.Partitions,
		MemoryBudget:      cfg.MemoryBudget,
		AdaptiveShuffle:   adaptive,
	})
	currentCtx.Store(ctx)
	return ctx
}

// collidingKeys returns n distinct int64 keys that all hash to
// partition 0 of parts — the adversarial input for the engine's hash
// partitioner.
func collidingKeys(n, parts int) []int64 {
	keys := make([]int64, 0, n)
	for k := int64(0); len(keys) < n; k++ {
		if dataflow.KeyPartition(k, parts) == 0 {
			keys = append(keys, k)
		}
	}
	return keys
}

// simWork models latency-bound per-group work — a remote feature
// fetch, an output commit, a service call — as a sleep proportional to
// the group's row count. Sleeps release the core, so concurrent reduce
// tasks overlap even when the host has fewer cores than partitions;
// this keeps the benchmark's static-vs-adaptive contrast about
// partition balance rather than about core count. (CPU-bound kernels
// benefit the same way, but only when idle cores exist to absorb the
// split work.)
func simWork(rows int) {
	time.Sleep(time.Duration(rows) * workPerRow)
}

const workPerRow = 40 * time.Microsecond

// worstBalance scans the run's per-stage histograms for the most
// imbalanced records-per-partition distribution.
func worstBalance(m dataflow.MetricsSnapshot) AdaptiveBalance {
	var b AdaptiveBalance
	for _, st := range m.PerStage {
		d := st.PartRecords
		if d.N < 2 || d.Max == 0 {
			continue
		}
		// Floor the median at 1: an adversarial input can leave most
		// partitions empty, and max/0 would hide exactly the worst case.
		p50 := d.P50
		if p50 < 1 {
			p50 = 1
		}
		if r := float64(d.Max) / float64(p50); r > b.Ratio {
			b = AdaptiveBalance{Max: d.Max, P50: d.P50, Ratio: r}
		}
	}
	return b
}

// runPolicy executes workload under one policy and returns the run
// record plus the workload's checksum for the exactness cross-check.
func runPolicy(cfg Config, adaptive bool, workload func(ctx *dataflow.Context) float64) (AdaptiveRun, float64) {
	ctx := adaptiveCtx(cfg, adaptive)
	defer closeCtx(ctx)
	var sum float64
	sec, m := measure(ctx, func() { sum = workload(ctx) })
	return AdaptiveRun{
		Seconds:       sec,
		ShuffledBytes: m.ShuffledBytes,
		Rebalances:    m.AdaptiveRebalances,
		MovedRecords:  m.AdaptiveMovedRecords,
		Balance:       worstBalance(m),
	}, sum
}

// adaptiveCase runs workload under both policies and assembles the
// comparison row.
func adaptiveCase(cfg Config, name string, records int64, hotKeys int,
	workload func(ctx *dataflow.Context) float64) AdaptiveCase {
	static, sumS := runPolicy(cfg, false, workload)
	adapt, sumA := runPolicy(cfg, true, workload)
	c := AdaptiveCase{Name: name, Records: records, HotKeys: hotKeys,
		Static: static, Adaptive: adapt,
		ResultsMatch: math.Abs(sumS-sumA) <= 1e-9*math.Max(math.Abs(sumS), 1)}
	if adapt.Seconds > 0 {
		c.Speedup = static.Seconds / adapt.Seconds
	}
	return c
}

// Adaptive runs the skewed suite. Three shapes:
//
//   - collide-reduceByKey: every key engineered into one reduce
//     partition, per-key downstream work — the splittable hot bucket
//     the rebalancer exists for.
//   - zipf-groupByKey: zipfian key popularity (s=1.2), group sizes and
//     key routing both skewed.
//   - hot-single-key: one giant key group; unsplittable by design
//     (whole groups move atomically), so adaptive must degrade to
//     exactly the static plan.
func Adaptive(cfg Config) AdaptiveSuite {
	parts := cfg.Partitions
	if parts <= 0 {
		parts = 8
	}
	suite := AdaptiveSuite{Partitions: parts}

	{
		const hotKeys, rowsPerKey = 96, 200
		keys := collidingKeys(hotKeys, parts)
		records := int64(hotKeys * rowsPerKey)
		suite.Cases = append(suite.Cases, adaptiveCase(cfg, "collide-reduceByKey", records, hotKeys,
			func(ctx *dataflow.Context) float64 {
				rows := make([]dataflow.Pair[int64, float64], 0, records)
				for _, k := range keys {
					for r := 0; r < rowsPerKey; r++ {
						rows = append(rows, dataflow.KV(k, float64(r%7)))
					}
				}
				in := dataflow.Parallelize(ctx, rows, parts)
				red := dataflow.ReduceByKey(in, func(a, b float64) float64 { return a + b }, parts)
				out := dataflow.Map(red, func(p dataflow.Pair[int64, float64]) float64 {
					simWork(10) // fixed per-key downstream cost
					return p.Value
				})
				return dataflow.Reduce(out, func(a, b float64) float64 { return a + b })
			}))
	}

	{
		const nKeys, records = 512, 40_000
		suite.Cases = append(suite.Cases, adaptiveCase(cfg, "zipf-groupByKey", records, 0,
			func(ctx *dataflow.Context) float64 {
				rng := rand.New(rand.NewSource(42))
				zipf := rand.NewZipf(rng, 1.2, 1, nKeys-1)
				rows := make([]dataflow.Pair[int64, float64], records)
				for i := range rows {
					rows[i] = dataflow.KV(int64(zipf.Uint64()), float64(i%11))
				}
				in := dataflow.Parallelize(ctx, rows, parts)
				grouped := dataflow.GroupByKey(in, parts)
				out := dataflow.Map(grouped, func(p dataflow.Pair[int64, []float64]) float64 {
					simWork(len(p.Value) / 20) // cost scales with group size
					s := 0.0
					for _, v := range p.Value {
						s += v
					}
					return s
				})
				return dataflow.Reduce(out, func(a, b float64) float64 { return a + b })
			}))
	}

	{
		const records = 20_000
		suite.Cases = append(suite.Cases, adaptiveCase(cfg, "hot-single-key", records, 1,
			func(ctx *dataflow.Context) float64 {
				rows := make([]dataflow.Pair[int64, float64], records)
				for i := range rows {
					k := int64(0) // one giant group...
					if i%10 == 9 {
						k = int64(1 + i%63) // ...plus a thin background
					}
					rows[i] = dataflow.KV(k, float64(i%5))
				}
				in := dataflow.Parallelize(ctx, rows, parts)
				grouped := dataflow.GroupByKey(in, parts)
				out := dataflow.Map(grouped, func(p dataflow.Pair[int64, []float64]) float64 {
					simWork(len(p.Value) / 20)
					return float64(len(p.Value))
				})
				return dataflow.Reduce(out, func(a, b float64) float64 { return a + b })
			}))
	}
	return suite
}

// Format renders the suite as an aligned table for terminal runs.
func (s AdaptiveSuite) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Adaptive stage-boundary rebalancing vs static hash partitioning (%d partitions)\n", s.Partitions)
	fmt.Fprintf(&b, "%-22s %12s %12s %9s %12s %12s %11s %11s %7s\n",
		"case", "static(s)", "adaptive(s)", "speedup", "stat.bal", "adap.bal", "rebalances", "moved", "exact")
	for _, c := range s.Cases {
		fmt.Fprintf(&b, "%-22s %12.3f %12.3f %8.2fx %11.1fx %11.1fx %11d %11d %7v\n",
			c.Name, c.Static.Seconds, c.Adaptive.Seconds, c.Speedup,
			c.Static.Balance.Ratio, c.Adaptive.Balance.Ratio,
			c.Adaptive.Rebalances, c.Adaptive.MovedRecords, c.ResultsMatch)
	}
	return b.String()
}
