package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// RunConfig is one run of one workload.
type RunConfig struct {
	Workload string
	Seed     int64
	Seconds  float64 // length of the timed section
	Trace    bool    // report per-layer metrics in place of end-to-end ones
	Smoke    bool    // small inputs, for tests
	Corrupt  bool    // damage the reference, to show that verification bites
	Root     string  // the checkout: BENCHMARK.json is here
	Tmp      string  // scratch directory inside the checkout
}

// RunResult is what one run reports; its first four fields are the
// object the benchmark prints last.
type RunResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Errors    []string          `json:"errors,omitempty"`
	// OpsMs is the spread of the successful timed ops by the wall clock:
	// fastest, median, 95th percentile, slowest; YardstickMs the host's
	// speed meanwhile. For people; no metric reads them.
	OpsMs       [4]float64 `json:"-"`
	YardstickMs float64    `json:"-"`
}

// opDeadline is how long the timed section may overrun before the ops
// still outstanding are counted as failed and the run ends.
const opDeadline = 120 * time.Second

type sample struct {
	ms     float64 // wall time
	block  int
	failed bool
}

// section is the log of one timed loop: blocks of ops, and the
// yardstick's times in the gaps before, between and after them.
type section struct {
	ops     [][]sample // per client
	gaps    []gap      // gaps[b] precedes block b, gaps[b+1] follows it
	blockMs []float64  // wall time of each block's ops
	errs    []string
	timeout bool // an op hung: the log was closed with that op failed
}

// timed runs inst's ops in a closed loop on each client for seconds, in
// blocks with a yardstick gap around each (calibrate.go), at least one
// op per client and block, with rec recording spans when tracing.
// Clients never overlap their own ops.
func timed(inst instance, clients int, seconds float64, rec *Recorder) section {
	s := section{ops: make([][]sample, clients), gaps: []gap{takeGap()}}
	var mu sync.Mutex
	start := time.Now()
	limit := time.Duration(seconds * float64(time.Second))
	blockLimit := min(time.Duration(blockSeconds*float64(time.Second)), limit/4)
	for b := 0; b == 0 || time.Since(start) < limit; b++ {
		var wg sync.WaitGroup
		blockStart := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i == 0 || time.Since(blockStart) < blockLimit; i++ {
					sp := rec.Op(c, len(s.ops[c]))
					t := time.Now()
					err := inst.op(c, sp)
					d := time.Since(t)
					sp.End()
					mu.Lock()
					if s.timeout {
						mu.Unlock()
						return
					}
					s.ops[c] = append(s.ops[c], sample{ms: float64(d.Nanoseconds()) / 1e6, block: b, failed: err != nil})
					if err != nil && len(s.errs) < 5 {
						s.errs = append(s.errs, err.Error())
					}
					mu.Unlock()
				}
			}(c)
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(time.Until(start.Add(limit + opDeadline))):
			// An op hung. Its client's goroutine cannot be stopped; count the
			// op as attempted and failed, and let the process exit end it.
			mu.Lock()
			for c := range s.ops {
				s.ops[c] = append(s.ops[c], sample{block: b, failed: true})
			}
			s.errs = append(s.errs, fmt.Sprintf("deadline: an op was still running %v after the timed section", opDeadline))
			s.timeout = true
			mu.Unlock()
		}
		s.blockMs = append(s.blockMs, float64(time.Since(blockStart).Nanoseconds())/1e6)
		s.gaps = append(s.gaps, takeGap())
		if s.timeout {
			break
		}
	}
	return s
}

// scale is what block b's wall times are multiplied by to read as on
// the nominal host.
func (s *section) scale(b int) float64 { return hostScale(s.gaps[b], s.gaps[b+1]) }

// nominalSeconds is the time the blocks' ops took, read as on the
// nominal host.
func (s *section) nominalSeconds() float64 {
	var ms float64
	for b, wall := range s.blockMs {
		ms += wall * s.scale(b)
	}
	return ms / 1e3
}

// yardstickMs is the median yardstick time over the section's gaps: the
// host's speed while the section ran (yardstickNominalMs = nominal).
func (s *section) yardstickMs() float64 {
	var all []float64
	for _, g := range s.gaps {
		all = append(all, g...)
	}
	return median(all)
}

// settle applies verification to a section: ops named wrong are failed.
func (s *section) settle(wrong []opRef) {
	for _, w := range wrong {
		if w.client < len(s.ops) && w.index < len(s.ops[w.client]) {
			s.ops[w.client][w.index].failed = true
		}
	}
}

// counts returns how many ops were attempted and failed, and the times
// of the others: as on the nominal host, and as the wall clock read.
func (s *section) counts() (attempted, failed int, okMs, wallMs []float64) {
	for _, ops := range s.ops {
		for _, o := range ops {
			attempted++
			if o.failed {
				failed++
			} else {
				okMs = append(okMs, o.ms*s.scale(o.block))
				wallMs = append(wallMs, o.ms)
			}
		}
	}
	return attempted, failed, okMs, wallMs
}

func memStats() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64) // malformed reads 0
			return kb / 1024
		}
	}
	return 0
}

// Run sets a workload up, runs its timed section, verifies every
// answer, and reports the metrics BENCHMARK.json lists for this kind of
// run: the end-to-end ones, or with cfg.Trace the per-layer ones (traced
// ops, then the layer table).
func Run(cfg RunConfig, spec *Spec) (*RunResult, error) {
	env := runEnv{seed: cfg.Seed, sz: fullSizes, tmp: cfg.Tmp}
	if cfg.Smoke {
		env.sz = smokeSizes
	}
	def, ok := findWorkload(cfg.Workload, env.sz)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (there are %s)", cfg.Workload, strings.Join(Workloads(), ", "))
	}
	res := &RunResult{Workload: cfg.Workload, Seed: cfg.Seed, Trace: cfg.Trace}
	vals := map[string]float64{}

	// Set-up: several times when it is the thing measured, once when
	// tracing. The last instance is the one the ops run on.
	setups := env.sz.setups
	if cfg.Trace {
		setups = 1
	}
	var inst instance
	var setupS []float64 // as on the nominal host, like the ops
	last := takeGap()
	for k := 0; k < setups; k++ {
		if inst != nil {
			inst.close()
			runtime.GC()
		}
		t := time.Now()
		var err error
		if inst, err = def.setup(env); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", cfg.Workload, err)
		}
		wall := time.Since(t).Seconds()
		next := takeGap()
		setupS = append(setupS, wall*hostScale(last, next))
		last = next
	}
	runtime.GC()

	// The timed sections. A traced run spends a third of the time on
	// untraced ops (the base that tracing overhead is measured against)
	// and a third on traced ones.
	seconds := cfg.Seconds
	if cfg.Trace {
		seconds /= 3
	}
	var sections []*section
	if def.settle > 0 {
		// Untimed, but verified like every other op.
		settle := timed(inst, def.clients, def.settle, nil)
		sections = append(sections, &settle)
	}
	before := memStats()
	plain := timed(inst, def.clients, seconds, nil)
	after := memStats()
	sections = append(sections, &plain)
	var rec *Recorder
	if cfg.Trace {
		rec = NewRecorder()
		traced := timed(inst, def.clients, seconds, rec)
		sections = append(sections, &traced)
	}

	// Verification: outside set-up and outside the timed sections.
	hung := false
	for _, s := range sections {
		hung = hung || s.timeout
	}
	var verifyErr error
	if !hung {
		var wrong []opRef
		wrong, verifyErr = inst.verify(cfg.Corrupt)
		// verify names ops by their index in the instance's own log, which
		// runs on across sections.
		offset := make([]int, def.clients)
		for _, s := range sections {
			var mine []opRef
			for _, w := range wrong {
				if i := w.index - offset[w.client]; i >= 0 && i < len(s.ops[w.client]) {
					mine = append(mine, opRef{w.client, i})
				}
			}
			s.settle(mine)
			for c := range s.ops {
				offset[c] += len(s.ops[c])
			}
		}
	}
	for _, s := range sections {
		a, f, _, _ := s.counts()
		res.Attempted += a
		res.Failed += f
		res.Errors = append(res.Errors, s.errs...)
	}

	// Latency comes from the untraced section, over the ops that
	// succeeded and were right, each read as on the nominal host.
	attempted, _, okMs, wallMs := plain.counts()
	p50, wallP50 := median(okMs), median(wallMs)
	res.OpsMs = [4]float64{percentile(wallMs, 0), wallP50, percentile(wallMs, 0.95), percentile(wallMs, 1)}
	res.YardstickMs = plain.yardstickMs()
	specs := spec.EndToEnd
	var layerErr error
	if !cfg.Trace {
		vals["setup_s"] = median(setupS)
		vals["op_ms_p50"] = p50
		vals["op_ms_p95"] = p50
		if def.tail {
			vals["op_ms_p95"] = percentile(okMs, 0.95)
		}
		vals["ops_per_s"] = float64(len(okMs)) / plain.nominalSeconds()
	} else {
		specs = spec.PerLayer
		_, _, tracedMs, _ := sections[len(sections)-1].counts()
		if p50 > 0 {
			vals["trace.overhead_share"] = (median(tracedMs) - p50) / p50
		}
		vals["op_ms_p99"] = percentile(okMs, 0.99)
		vals["op_wall_ms_p50"] = wallP50
		vals["host.yardstick_ms"] = plain.yardstickMs()
		vals["proc.alloc_mb_op"] = float64(after.TotalAlloc-before.TotalAlloc) / 1e6 / float64(attempted)
		vals["proc.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
		vals["proc.peak_rss_mb"] = peakRSSMB() // before the layer table adds its own
		if !hung {
			inst.layers(rec, wallP50, vals)
		}
		dir := filepath.Join(cfg.Root, "benchmark", "results")
		err := os.MkdirAll(dir, 0o755)
		if err == nil {
			err = rec.WriteFile(filepath.Join(dir, "trace-"+cfg.Workload+".json"), cfg.Workload, cfg.Seed, CaptureEnv(cfg.Root))
		}
		if err != nil {
			res.Errors = append(res.Errors, "trace file: "+err.Error())
		}
	}
	if !hung {
		inst.close()
	}
	if cfg.Trace && !hung {
		// The layer table, on a heap the workload has left.
		runtime.GC()
		layerErr = RunLayers(env.sz, cfg.Tmp, vals)
		if g := vals["linalg.gemm_gflops_t100"]; g > 0 && wallP50 > 0 && def.matmulN > 0 {
			// Computed, not measured: the product's 2n^3 flops at the
			// one-thread tile rate, as a share of the op (both by the wall
			// clock). Two cores running kernels side by side can take it
			// above 1.
			n := float64(def.matmulN)
			vals["linalg.kernel_share_computed"] = 2 * n * n * n / (g * 1e9) / (wallP50 / 1e3)
		}
	}

	for _, err := range []error{verifyErr, layerErr} {
		if err != nil {
			res.Errors = append(res.Errors, err.Error())
		}
	}
	res.Correct = res.Failed == 0 && verifyErr == nil && layerErr == nil && !hung
	var err error
	res.Metrics, err = fill(specs, vals)
	return res, err
}
