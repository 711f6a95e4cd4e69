package harness

import (
	"fmt"
	"time"
)

// micro is one layer micro-benchmark: a loop around one public function
// of one module, on inputs from a fixed seed.
type micro struct {
	// name is the metric it reports (the compress micro adds its ratio).
	name string
	// prep builds the state and returns one iteration to time, a
	// clean-up, and report, which turns the median seconds of an
	// iteration into values for names.
	prep func(e microEnv) (fn microFn, report func(sec float64, out map[string]float64), err error)
}

type microEnv struct {
	sz  sizes
	tmp string
}

const (
	microReps  = 9       // timed iterations a micro's median is taken over
	nsBatch    = 100_000 // calls per iteration of a nanosecond-scale micro
	shortBatch = 200     // and of a microsecond-scale one
)

// value reports fn(sec) under one name.
func value(name string, fn func(sec float64) float64) func(float64, map[string]float64) {
	return func(sec float64, out map[string]float64) { out[name] = fn(sec) }
}

func perCall(name string, calls int, scale float64) func(float64, map[string]float64) {
	return value(name, func(sec float64) float64 { return sec * scale / float64(calls) })
}

func rate(name string, amount float64) func(float64, map[string]float64) {
	return value(name, func(sec float64) float64 { return amount / sec })
}

func compileMicro(name, stage string) micro {
	return micro{name, func(microEnv) (microFn, func(float64, map[string]float64), error) {
		srcs := make([]string, len(serveShapes))
		for i, q := range serveShapes {
			srcs[i] = q.src
		}
		// Mean per query over the five shapes, in microseconds.
		return prepCompile(stage, srcs).times(shortBatch), perCall(name, shortBatch*len(srcs), 1e6), nil
	}}
}

func tiledMicro(name, op string) micro {
	return micro{name, func(e microEnv) (microFn, func(float64, map[string]float64), error) {
		return prepTiled(op, e.sz.matmulN, e.sz.tile, partitions), value(name, func(s float64) float64 { return s }), nil
	}}
}

func dataflowMicro(name, op string) micro {
	return micro{name, func(e microEnv) (microFn, func(float64, map[string]float64), error) {
		return prepDataflow(op, e.sz.microRows, partitions), rate(name, float64(e.sz.microRows)/1e6), nil
	}}
}

func codecMicro(name, op string) micro {
	return micro{name, func(e microEnv) (microFn, func(float64, map[string]float64), error) {
		fn, bytes, ratio := prepCodec(op, 100, e.sz.tile)
		return fn, func(sec float64, out map[string]float64) {
			out[name] = float64(bytes) / 1e6 / sec
			if op == "compress" {
				out["spill.compress_ratio"] = ratio
			}
		}, nil
	}}
}

func runsMicro(name, op string) micro {
	return micro{name, func(e microEnv) (microFn, func(float64, map[string]float64), error) {
		fn, bytes := prepRuns(op, e.tmp, 200, e.sz.tile)
		return fn, rate(name, float64(bytes)/1e6), nil
	}}
}

func micros() []micro {
	return []micro{
		compileMicro("sacparser.parse_us", "parse"),
		compileMicro("comp.desugar_us", "desugar"),
		compileMicro("opt.choose_us", "choose"),
		compileMicro("plan.compile_us", "compile"),
		compileMicro("server.canonical_key_us", "key"),

		{"linalg.gemm_gflops_t100", func(e microEnv) (microFn, func(float64, map[string]float64), error) {
			n := float64(e.sz.tile)
			return prepGemm(e.sz.tile).times(shortBatch), rate("linalg.gemm_gflops_t100", shortBatch*2*n*n*n/1e9), nil
		}},
		{"linalg.gemm_gflops_512", func(e microEnv) (microFn, func(float64, map[string]float64), error) {
			n := 512
			if e.sz.tile < 100 {
				n = 64
			}
			f := float64(n)
			return prepGemm(n), rate("linalg.gemm_gflops_512", 2*f*f*f/1e9), nil
		}},
		{"linalg.add_gbs", func(e microEnv) (microFn, func(float64, map[string]float64), error) {
			// a += b reads two tiles and writes one.
			n := float64(e.sz.tile)
			return prepAdd(e.sz.tile).times(10 * shortBatch), rate("linalg.add_gbs", 10*shortBatch*3*8*n*n/1e9), nil
		}},

		tiledMicro("tiled.gbj_s_n2000", "gbj"),
		tiledMicro("mllib.multiply_s_n2000", "mllib"),
		tiledMicro("tiled.add_s_n2000", "add"),
		tiledMicro("tiled.rowsums_s_n2000", "rowsums"),
		tiledMicro("tiled.transpose_s_n2000", "transpose"),

		dataflowMicro("dataflow.reduce_by_key_mrows_s", "reduce"),
		dataflowMicro("dataflow.join_mrows_s", "join"),
		dataflowMicro("dataflow.repartition_mrows_s", "repartition"),
		{"dataflow.narrow_chain_allocs_op", func(microEnv) (microFn, func(float64, map[string]float64), error) {
			allocs := new([]float64)
			return prepNarrowChain(allocs), func(_ float64, out map[string]float64) {
				out["dataflow.narrow_chain_allocs_op"] = median(*allocs)
			}, nil
		}},

		codecMicro("spill.encode_tile_mbs", "encode"),
		codecMicro("spill.decode_tile_mbs", "decode"),
		codecMicro("spill.compress_mbs", "compress"),
		codecMicro("spill.decompress_mbs", "decompress"),
		runsMicro("spill.run_write_mbs", "write"),
		runsMicro("spill.merge_mbs", "merge"),
		{"memory.reserve_release_ns", func(microEnv) (microFn, func(float64, map[string]float64), error) {
			return prepMemory(nsBatch), perCall("memory.reserve_release_ns", nsBatch, 1e9), nil
		}},

		{"cluster.dispatch_ms", func(microEnv) (microFn, func(float64, map[string]float64), error) {
			fn, _, err := prepCluster("dispatch", 0, 0)
			return fn.times(shortBatch), perCall("cluster.dispatch_ms", shortBatch, 1e3), err
		}},
		{"cluster.exchange_mbs", func(e microEnv) (microFn, func(float64, map[string]float64), error) {
			fn, bytes, err := prepCluster("exchange", e.sz.exchangeBytes/(e.sz.tile*e.sz.tile*8), e.sz.tile)
			return fn, rate("cluster.exchange_mbs", float64(bytes)/1e6), err
		}},
		{"jobs.encode_result_mbs", func(e microEnv) (microFn, func(float64, map[string]float64), error) {
			fn, bytes := prepEncodeResult(e.sz.clusterN, e.sz.tile)
			return fn, rate("jobs.encode_result_mbs", float64(bytes)/1e6), nil
		}},
		{"jobs.run_query_local_ms", func(e microEnv) (microFn, func(float64, map[string]float64), error) {
			return prepRunQueryLocal(qRowsum, e.sz.clusterN, int64(e.sz.tile), partitions),
				perCall("jobs.run_query_local_ms", 1, 1e3), nil
		}},

		{"trace.span_ns", func(microEnv) (microFn, func(float64, map[string]float64), error) {
			return prepSpan(nsBatch / 10), perCall("trace.span_ns", nsBatch/10, 1e9), nil
		}},
		{"obs.counter_add_ns", func(microEnv) (microFn, func(float64, map[string]float64), error) {
			return prepCounter(nsBatch), perCall("obs.counter_add_ns", nsBatch, 1e9), nil
		}},
	}
}

// runMicro times one micro: a warm-up iteration, then microReps timed
// ones. The median iteration is what report sees.
func runMicro(m micro, e microEnv, out map[string]float64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s: %v", m.name, r)
		}
	}()
	fn, report, err := m.prep(e)
	if err != nil {
		return fmt.Errorf("%s: %w", m.name, err)
	}
	defer fn.done()
	fn.iter()
	secs := make([]float64, microReps)
	for i := range secs {
		t := time.Now()
		fn.iter()
		secs[i] = time.Since(t).Seconds()
	}
	report(median(secs), out)
	return nil
}

// RunLayers is the layer table: every micro once, and the ratio derived
// from two of them. Every traced run ends with it, and bench -layers
// runs it alone.
func RunLayers(sz sizes, tmp string, out map[string]float64) error {
	e := microEnv{sz: sz, tmp: tmp}
	for _, m := range micros() {
		if err := runMicro(m, e, out); err != nil {
			return err
		}
	}
	out["tiled.gbj_vs_mllib"] = out["tiled.gbj_s_n2000"] / out["mllib.multiply_s_n2000"]
	return nil
}

// RunLayerTable runs the layer table alone and reports just its
// metrics.
func RunLayerTable(smoke bool, tmp string, spec *Spec) (*RunResult, error) {
	sz := fullSizes
	if smoke {
		sz = smokeSizes
	}
	vals := map[string]float64{}
	if err := RunLayers(sz, tmp, vals); err != nil {
		return nil, err
	}
	var measured []MetricSpec
	for _, m := range spec.PerLayer {
		if _, ok := vals[m.Name]; ok {
			measured = append(measured, m)
		}
	}
	metrics, err := fill(measured, vals)
	return &RunResult{Correct: true, Attempted: len(vals), Workload: "layers", Trace: true, Metrics: metrics}, err
}
