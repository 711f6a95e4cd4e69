package plan

import (
	"strings"
	"testing"

	"repro/internal/linalg"
	"repro/internal/opt"
	"repro/internal/sacparser"
)

const matmulSrc = "tiled(n, n)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B, kk == k, let v = a*b, group by (i,j) ]"

// TestExecuteTraced checks the span hierarchy of a traced Force of a matmul:
// query → plan/execute phases → stage → task, with tile-kernel leaves,
// and that the result is both correct and forced inside the window.
func TestExecuteTraced(t *testing.T) {
	f := newFixture(t, 8, 8, 8, 8, 4)
	q, err := Compile(sacparser.MustParse(matmulSrc), f.cat, opt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, tr, err := q.Force(true)
	if err != nil {
		t.Fatal(err)
	}
	want := linalg.Mul(f.da, f.db)
	if !res.Matrix.ToDense().EqualApprox(want, 1e-9) {
		t.Fatalf("traced execution returned a wrong product")
	}

	spans := tr.Spans()
	byID := map[int64]string{}
	for _, s := range spans {
		byID[s.ID] = s.Name
	}
	var sawPlan, sawExec, sawStage, sawTask, sawKernel bool
	for _, s := range spans {
		switch {
		case s.Name == "phase: plan":
			sawPlan = true
			if byID[s.ParentID] != "query" {
				t.Fatalf("plan phase parents under %q", byID[s.ParentID])
			}
		case s.Name == "phase: execute":
			sawExec = true
			if byID[s.ParentID] != "query" {
				t.Fatalf("execute phase parents under %q", byID[s.ParentID])
			}
		case strings.HasPrefix(s.Name, "stage: "):
			sawStage = true
			if byID[s.ParentID] != "phase: execute" {
				t.Fatalf("stage %q parents under %q, want execute phase", s.Name, byID[s.ParentID])
			}
		case s.Name == "task":
			sawTask = true
			if !strings.HasPrefix(byID[s.ParentID], "stage: ") {
				t.Fatalf("task parents under %q, want a stage", byID[s.ParentID])
			}
		case strings.HasPrefix(s.Name, "kernel: "):
			sawKernel = true
		}
	}
	if !sawPlan || !sawExec || !sawStage || !sawTask || !sawKernel {
		t.Fatalf("missing span kinds (plan=%v exec=%v stage=%v task=%v kernel=%v):\n%s",
			sawPlan, sawExec, sawStage, sawTask, sawKernel, tr.Tree())
	}

	// Tracing must be uninstalled afterwards.
	if f.ctx.Tracer() != nil {
		t.Fatalf("tracer left installed after the traced run")
	}
}
