package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var (
	buildOnce sync.Once
	binPath   string
	buildErr  error
)

// buildBinary compiles the sac command once per test run.
func buildBinary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "sacbin")
		if err != nil {
			buildErr = err
			return
		}
		binPath = filepath.Join(dir, "sac")
		cmd := exec.Command("go", "build", "-o", binPath, ".")
		out, err := cmd.CombinedOutput()
		if err != nil {
			buildErr = err
			t.Logf("build output: %s", out)
		}
	})
	if buildErr != nil {
		t.Fatalf("building sac: %v", buildErr)
	}
	return binPath
}

func runSac(t *testing.T, stdin string, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(buildBinary(t), args...)
	if stdin != "" {
		cmd.Stdin = strings.NewReader(stdin)
	}
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	err := cmd.Run()
	return buf.String(), err
}

func TestCLIExplain(t *testing.T) {
	out, err := runSac(t, "", "-n", "8", "-tile", "4",
		"-explain", "tiledvec(n)[ (i, +/a) | ((i,j),a) <- A, group by i ]")
	if err != nil {
		t.Fatalf("explain failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "Rule 13") {
		t.Fatalf("explain output: %s", out)
	}
}

func TestCLIQuery(t *testing.T) {
	out, err := runSac(t, "", "-n", "8", "-tile", "4",
		"-query", "tiled(n,n)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B, kk == k, let v = a*b, group by (i,j) ]")
	if err != nil {
		t.Fatalf("query failed: %v\n%s", err, out)
	}
	for _, want := range []string{"SUMMA", "cost: summa-gbj", "rejected:", "grid 2x2", "result:", "metrics:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, "parts ") {
		t.Fatalf("the plan names a partition count of its own:\n%s", out)
	}
}

func TestCLIStdin(t *testing.T) {
	queries := "rdd[ ((i,j), a) | ((i,j),a) <- A, i == j ]\n+/[ a | ((i,j),a) <- A ]\n"
	out, err := runSac(t, queries, "-n", "6", "-tile", "3", "-run-stdin")
	if err != nil {
		t.Fatalf("stdin run failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "list of 6 rows") {
		t.Fatalf("diagonal rows missing:\n%s", out)
	}
}

func TestCLILoop(t *testing.T) {
	prog := `
var V: vector[n];
for i = 0, n-1 do
    for j = 0, n-1 do
        V[i] += A[i, j];
`
	out, err := runSac(t, prog, "-n", "8", "-tile", "4", "-loop")
	if err != nil {
		t.Fatalf("loop run failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "V <-") || !strings.Contains(out, "aggregation") {
		t.Fatalf("loop plans missing:\n%s", out)
	}
}

func TestCLIAnalyze(t *testing.T) {
	out, err := runSac(t, "", "-n", "8", "-tile", "4",
		"-analyze", "tiled(n,n)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B, kk == k, let v = a*b, group by (i,j) ]")
	if err != nil {
		t.Fatalf("analyze failed: %v\n%s", err, out)
	}
	for _, want := range []string{
		"plan: ", "SUMMA", // the chosen translation
		"stages:", "taskP50", "taskP99", "skew", // annotated stage table
		"trace:", "phase: execute", "stage: ", "task", // span tree
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("analyze output missing %q:\n%s", want, out)
		}
	}
}

// TestCLIHistory: `sac history` prints from the -eventlog record exactly
// the report -analyze printed, and -chrome writes the record's spans as a
// Chrome trace.
func TestCLIHistory(t *testing.T) {
	dir := t.TempDir()
	out, err := runSac(t, "", "-n", "8", "-tile", "4", "-eventlog", dir,
		"-analyze", "tiled(n,n)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B, kk == k, let v = a*b, group by (i,j) ]")
	if err != nil {
		t.Fatalf("analyze failed: %v\n%s", err, out)
	}
	report, logLine, ok := strings.Cut(out, "eventlog: ")
	if !ok {
		t.Fatalf("no eventlog line:\n%s", out)
	}
	path := strings.TrimSpace(logLine)
	replayed, err := runSac(t, "", "history", path)
	if err != nil || replayed != report {
		t.Fatalf("history (%v) drifted from the live report:\nlive:\n%s\nhistory:\n%s", err, report, replayed)
	}

	chrome := filepath.Join(dir, "trace.json")
	if out, err := runSac(t, "", "history", "-chrome", chrome, path); err != nil || !strings.Contains(out, "trace: wrote") {
		t.Fatalf("history -chrome: %v\n%s", err, out)
	}
	raw, err := os.ReadFile(chrome)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var sawQuery, sawStage, sawTask bool
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("unexpected event phase %q", ev.Ph)
		}
		sawQuery = sawQuery || ev.Name == "query"
		sawStage = sawStage || strings.HasPrefix(ev.Name, "stage:")
		sawTask = sawTask || ev.Name == "task"
	}
	if !sawQuery || !sawStage || !sawTask {
		t.Fatalf("trace missing span kinds (query=%v stage=%v task=%v) among %d events",
			sawQuery, sawStage, sawTask, len(doc.TraceEvents))
	}

	if out, err := runSac(t, "", "history", filepath.Join(dir, "missing.jsonl")); err == nil {
		t.Fatalf("history of a missing file succeeded:\n%s", out)
	}
}

func TestCLIDebugEndpoint(t *testing.T) {
	// -debug with an impossible address must fail loudly, not silently.
	if out, err := runSac(t, "", "-n", "8", "-tile", "4", "-debug", "256.0.0.1:bad",
		"-query", "+/[ a | ((i,j),a) <- A ]"); err == nil {
		t.Fatalf("bad -debug address accepted:\n%s", out)
	}
	out, err := runSac(t, "", "-n", "8", "-tile", "4", "-debug", "127.0.0.1:0",
		"-query", "+/[ a | ((i,j),a) <- A ]")
	if err != nil {
		t.Fatalf("query with -debug failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "debug endpoint: http://127.0.0.1:") {
		t.Fatalf("missing debug endpoint banner:\n%s", out)
	}
}

func TestCLIErrors(t *testing.T) {
	if out, err := runSac(t, "", "-query", "tiled(2,2)[ broken"); err == nil {
		t.Fatalf("expected parse failure, got:\n%s", out)
	}
	if out, err := runSac(t, "not a program", "-loop"); err == nil {
		t.Fatalf("expected loop parse failure, got:\n%s", out)
	}
}

func TestCLIAblationFlags(t *testing.T) {
	out, err := runSac(t, "", "-n", "8", "-tile", "4", "-no-gbj",
		"-explain", "tiled(n,n)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B, kk == k, let v = a*b, group by (i,j) ]")
	if err != nil {
		t.Fatalf("explain failed: %v\n%s", err, out)
	}
	if strings.Contains(out, "SUMMA") {
		t.Fatalf("-no-gbj ignored:\n%s", out)
	}
}
