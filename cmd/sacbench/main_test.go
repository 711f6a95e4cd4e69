package main

import (
	"bytes"
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

func buildBinary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "sacbenchbin")
		if err != nil {
			buildErr = err
			return
		}
		binPath = filepath.Join(dir, "sacbench")
		out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput()
		if err != nil {
			buildErr = err
			t.Logf("build output: %s", out)
		}
	})
	if buildErr != nil {
		t.Fatalf("building sacbench: %v", buildErr)
	}
	return binPath
}

func runBench(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(buildBinary(t), args...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	if err := cmd.Run(); err != nil {
		t.Fatalf("sacbench %v: %v\n%s", args, err, buf.String())
	}
	return buf.String()
}

func TestBenchFig4ATiny(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real measurements")
	}
	out := runBench(t, "-fig", "4a", "-tile", "25", "-sizes", "50,100")
	if !strings.Contains(out, "Figure 4.A") || !strings.Contains(out, "SAC(s)") {
		t.Fatalf("output:\n%s", out)
	}
	if strings.Count(out, "\n") < 4 {
		t.Fatalf("expected at least two data rows:\n%s", out)
	}
}

func TestBenchFig4BTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real measurements")
	}
	out := runBench(t, "-fig", "4b", "-tile", "25", "-sizes", "50")
	for _, want := range []string{"Figure 4.B", "MLlib", "SAC GBJ", "measured"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
}

func TestBenchFig4CTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real measurements")
	}
	out := runBench(t, "-fig", "4c", "-tile", "25", "-k", "25", "-sizes", "50")
	if !strings.Contains(out, "Figure 4.C") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestBenchKernelsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real measurements")
	}
	out := runBench(t, "-fig", "kernels", "-quick", "-tile", "25", "-parts", "4")
	for _, want := range []string{"Local GEMM kernels", "blocked-par", "tile pool", "gets reused"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
}

func TestBenchRejectsUnknownFigure(t *testing.T) {
	cmd := exec.Command(buildBinary(t), "-fig", "9z")
	if err := cmd.Run(); err == nil {
		t.Fatal("expected failure for unknown figure")
	}
}

func TestBenchRejectsBadSizes(t *testing.T) {
	cmd := exec.Command(buildBinary(t), "-fig", "4a", "-sizes", "abc")
	if err := cmd.Run(); err == nil {
		t.Fatal("expected failure for bad sizes")
	}
}
