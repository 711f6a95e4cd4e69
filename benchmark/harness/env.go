package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// MetricSpec is one metric of BENCHMARK.json. Bound is set only on
// end-to-end metrics.
type MetricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// Spec is BENCHMARK.json: the one place metric names, units, directions
// and bounds are written down. The harness looks units up here and
// refuses to emit a name the file does not list.
type Spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []MetricSpec `json:"end_to_end"`
	PerLayer []MetricSpec `json:"per_layer"`
}

// FindRoot walks up from the working directory to the one that holds
// BENCHMARK.json: the root of the checkout.
func FindRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		up := filepath.Dir(dir)
		if up == dir {
			return "", errors.New("BENCHMARK.json not found in the working directory or above it")
		}
		dir = up
	}
}

func LoadSpec(root string) (*Spec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fill turns measured values into the reported set: exactly the names
// in specs, with their units. A measured name the spec lacks is an
// error; a listed name that was not measured reads 0, which is how a
// per-layer metric reads on a workload that never enters that layer.
func fill(specs []MetricSpec, vals map[string]float64) (map[string]Metric, error) {
	out := make(map[string]Metric, len(specs))
	for _, m := range specs {
		out[m.Name] = Metric{Value: vals[m.Name], Unit: m.Unit}
	}
	for name := range vals {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %q is measured but not listed in BENCHMARK.json", name)
		}
	}
	return out, nil
}

// Environment is recorded in every result and trace file.
type Environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func CaptureEnv(root string) Environment {
	return Environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		CPUModel:   cpuModel(),
		Commit:     gitCommit(root),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads the checked-out commit from .git without running git;
// a checkout that is not a repository reads "unknown".
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
				return hash
			}
		}
	}
	return "unknown"
}

// TempRoot creates the one directory a run may write scratch files in
// (spill runs, anything that asks os.TempDir), inside the checkout, and
// returns its removal. SIGINT and SIGTERM call onSignal, remove it too,
// and end the process.
func TempRoot(root string, onSignal func()) (dir string, remove func(), err error) {
	base := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", nil, err
	}
	dir, err = os.MkdirTemp(base, "run-")
	if err != nil {
		return "", nil, err
	}
	os.Setenv("TMPDIR", dir)
	remove = func() { os.RemoveAll(dir) }
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		onSignal()
		remove()
		os.Exit(130)
	}()
	return dir, remove, nil
}
