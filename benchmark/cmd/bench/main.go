// Command bench is the repository's benchmark.
//
//	bench --workload W --seed S --seconds T --trace 0|1
//
// runs one workload in this process and prints its metrics by name,
// then, as the last line, one JSON object with the keys correct,
// attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json
// with --trace 0, its per-layer metrics with --trace 1.
//
//	bench [-seed S] [-runs R] [-out FILE]
//
// runs everything: each workload R times untraced and once traced (the
// traced run ends with the layer table), each in a child process of its
// own, and writes the result set to FILE. -traced runs only the traced
// runs, -layers only the layer table.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/benchmark/harness"
)

// The engine is measured on two cores: every workload process, however
// it was started, runs with GOMAXPROCS=2.
const cores = 2

// childLimit ends a child that has not finished; a run is allowed 180 s.
const childLimit = 175 * time.Second

func main() {
	workload := flag.String("workload", "", "run this one workload in-process (default: the whole suite, each in a child process)")
	seed := flag.Int64("seed", 1, "matrices are seeded seed and seed+1, the serve clients from seed")
	seconds := flag.Float64("seconds", 0, "length of a timed section (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1: the traced run, reporting per-layer metrics")
	layers := flag.Bool("layers", false, "only the layer micro-benchmark table")
	traced := flag.Bool("traced", false, "suite: only the traced runs")
	runs := flag.Int("runs", 1, "suite: untraced runs per workload, on seeds seed, seed+1, ...")
	out := flag.String("out", "", "suite: result file (default benchmark/results/latest.json)")
	smoke := flag.Bool("smoke", false, "small inputs and short runs, to try the harness out")
	corrupt := flag.Bool("corrupt", false, "damage the verifier's reference; the run must then fail")
	flag.Parse()

	root, err := harness.FindRoot()
	if err != nil {
		fatal(err)
	}
	spec, err := harness.LoadSpec(root)
	if err != nil {
		fatal(err)
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
		if *smoke {
			*seconds = 0.3
		}
	}
	runtime.GOMAXPROCS(cores)
	s := &suite{root: root, spec: spec, seed: *seed, seconds: *seconds, smoke: *smoke, corrupt: *corrupt}
	tmp, removeTmp, err := harness.TempRoot(root, s.stopChild)
	if err != nil {
		fatal(err)
	}
	code := 0
	switch {
	case *workload != "":
		cfg := harness.RunConfig{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
			Smoke: *smoke, Corrupt: *corrupt, Root: root, Tmp: tmp}
		code = report(harness.Run(cfg, spec))
	case *layers:
		code = report(harness.RunLayerTable(*smoke, tmp, spec))
	default:
		code = s.run(*runs, *traced, *out)
	}
	removeTmp()
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// report prints a run for people, then the one line for programs.
func report(res *harness.RunResult, err error) int {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	harness.PrintMetrics(os.Stdout, res)
	line, err := json.Marshal(struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]harness.Metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// suite runs workloads as child processes of this binary, one at a time.
type suite struct {
	root    string
	spec    *harness.Spec
	seed    int64
	seconds float64
	smoke   bool
	corrupt bool

	mu     sync.Mutex
	cancel context.CancelFunc // of the child now running
}

// stopChild is called when the suite is interrupted.
func (s *suite) stopChild() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cancel != nil {
		s.cancel()
	}
}

// child runs one invocation of this binary and parses its last line.
func (s *suite) child(args ...string) (*harness.RunResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if s.smoke {
		args = append(args, "-smoke")
	}
	if s.corrupt {
		args = append(args, "-corrupt")
	}
	ctx, cancel := context.WithTimeout(context.Background(), childLimit)
	s.mu.Lock()
	s.cancel = cancel
	s.mu.Unlock()
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	// SIGTERM first, so the child removes its temp root; kill if it lingers.
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 5 * time.Second
	cmd.Dir = s.root
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output()
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res harness.RunResult
	if err := json.Unmarshal(last, &res); err != nil {
		os.Stdout.Write(stdout)
		return nil, fmt.Errorf("child %v: %v (no result line)", args, runErr)
	}
	if runErr != nil {
		os.Stdout.Write(stdout)
	}
	return &res, nil
}

func (s *suite) run(runs int, tracedOnly bool, out string) int {
	file := &harness.ResultFile{Env: harness.CaptureEnv(s.root), Seed: s.seed, Seconds: s.seconds, Runs: runs}
	file.Env.GOMAXPROCS = cores
	bad := 0
	one := func(w string, seed int64, trace int) *harness.RunResult {
		start := time.Now()
		res, err := s.child("-workload", w, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(s.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			bad++
			return nil
		}
		res.Workload, res.Seed, res.Trace = w, seed, trace == 1
		if !res.Correct {
			bad++
		}
		fmt.Printf("%-18s seed=%-3d trace=%d  %d ops, %d failed, run took %.1fs\n",
			w, seed, trace, res.Attempted, res.Failed, time.Since(start).Seconds())
		return res
	}
	if !tracedOnly {
		// Round-robin over workloads, so slow drift of the machine lands
		// on all of them alike.
		for r := 0; r < runs; r++ {
			for _, w := range harness.Workloads() {
				if res := one(w, s.seed+int64(r), 0); res != nil {
					file.Untraced = append(file.Untraced, res)
				}
			}
		}
	}
	for _, w := range harness.Workloads() {
		if res := one(w, s.seed, 1); res != nil {
			file.Traced = append(file.Traced, res)
		}
	}
	file.PrintSummary(os.Stdout, s.spec)
	if out == "" {
		out = filepath.Join(s.root, "benchmark", "results", "latest.json")
	}
	if err := file.Write(out); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Printf("\nresult set written to %s\n", out)
	if bad > 0 {
		fmt.Printf("%d run(s) failed or returned a wrong answer\n", bad)
		return 1
	}
	return 0
}
