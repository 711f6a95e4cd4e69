package dataflow

import (
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

func sumByParity(ctx *Context) {
	d := Parallelize(ctx, []int{1, 2, 3, 4, 5, 6, 7, 8}, 4)
	pairs := Map(d, func(v int) Pair[int, int] { return KV(v%2, v) })
	Collect(ReduceByKey(pairs, func(a, b int) int { return a + b }, 2))
}

// TestSubDiffsPerStage checks the metering contract: snapshotting
// before and after one query on a reused context and subtracting must
// report only that query's stages and counters.
func TestSubDiffsPerStage(t *testing.T) {
	ctx := NewContext(Config{Parallelism: 4})
	sumByParity(ctx) // unrelated earlier work
	before := ctx.Metrics()
	if len(before.PerStage) == 0 {
		t.Fatalf("setup query recorded no stages")
	}
	sumByParity(ctx)
	diff := ctx.Metrics().Sub(before)

	if int64(len(diff.PerStage)) != diff.Stages {
		t.Fatalf("diff has %d PerStage rows but Stages=%d", len(diff.PerStage), diff.Stages)
	}
	for _, st := range diff.PerStage {
		for _, old := range before.PerStage {
			if st.ID == old.ID {
				t.Fatalf("diff contains pre-snapshot stage %d %s", st.ID, st.Name)
			}
		}
	}
	if diff.Tasks <= 0 || diff.Tasks >= ctx.Metrics().Tasks {
		t.Fatalf("diff.Tasks = %d not strictly between 0 and the total", diff.Tasks)
	}
	// The recomputed high-water mark must be consistent with the diffed
	// stages alone.
	if diff.MaxConcurrentStages < 1 || diff.MaxConcurrentStages > diff.Stages {
		t.Fatalf("MaxConcurrentStages = %d outside [1, %d]", diff.MaxConcurrentStages, diff.Stages)
	}
}

// TestSkewHistograms gives partition 0 dramatically more data and work
// than its peers and checks that both distributions expose it: p99 far
// above p50, ArgMax naming partition 0, and a warning emitted by
// FormatStages.
func TestSkewHistograms(t *testing.T) {
	ctx := NewContext(Config{Parallelism: 4})
	const parts = 8
	d := Generate(ctx, parts, func(p int) []int {
		if p == 0 {
			out := make([]int, 5000)
			for i := range out {
				out[i] = i
			}
			return out
		}
		return []int{p}
	})
	slow := Map(d, func(v int) int {
		s := 0 // busy work: task cost scales with partition size
		for i := 0; i < 5000; i++ {
			s += (i ^ v) * 31
		}
		return s
	})
	Count(slow)

	snap := ctx.Metrics()
	var st *StageMetric
	for i := range snap.PerStage {
		if strings.HasPrefix(snap.PerStage[i].Name, "count(") {
			st = &snap.PerStage[i]
		}
	}
	if st == nil {
		t.Fatalf("no count stage recorded: %+v", snap.PerStage)
	}
	if st.PartRecords.N != parts {
		t.Fatalf("PartRecords.N = %d, want %d", st.PartRecords.N, parts)
	}
	if st.PartRecords.ArgMax != 0 || st.PartRecords.Max != 5000 || st.PartRecords.P50 != 1 {
		t.Fatalf("records-per-partition distribution missed the skew: %+v", st.PartRecords)
	}
	if st.PartRecords.Skew() < 100 {
		t.Fatalf("records p99/p50 = %.1f, want >> 1", st.PartRecords.Skew())
	}
	if st.TaskDur.N != parts || st.TaskDur.ArgMax != 0 {
		t.Fatalf("task-duration distribution missed the straggler: %+v", st.TaskDur)
	}
	if st.TaskDur.Skew() <= obs.DefaultSkewThreshold {
		t.Fatalf("duration p99/p50 = %.1f, want > %.1f", st.TaskDur.Skew(), obs.DefaultSkewThreshold)
	}

	w, ok := st.SkewWarning(0)
	if !ok {
		t.Fatalf("no skew warning for a 5000x-skewed stage")
	}
	if !strings.Contains(w, "suspect partition 0") {
		t.Fatalf("warning does not name the suspect partition: %s", w)
	}

	out := snap.FormatStages()
	for _, want := range []string{"taskP50", "taskP99", "skew", "warning: skew:", "suspect partition 0"} {
		if !strings.Contains(out, want) {
			t.Fatalf("FormatStages missing %q:\n%s", want, out)
		}
	}
}

// TestFormatStagesTable checks the table layout fields on an unskewed
// run.
func TestFormatStagesTable(t *testing.T) {
	ctx := NewContext(Config{Parallelism: 2})
	sumByParity(ctx)
	out := ctx.Metrics().FormatStages()
	for _, want := range []string{"id", "stage", "wall", "tasks", "recordsIn", "recordsOut", "shufBytes", "taskP50", "taskP99", "skew", "max concurrent stages:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("FormatStages missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "shuffle(") && !strings.Contains(out, "narrow-read(") {
		t.Fatalf("FormatStages has no shuffle stage row:\n%s", out)
	}
}

// TestTracedStageDAG installs a tracer and checks the recorded span
// hierarchy: every stage span parents under the configured root, every
// task span parents under a stage span, and every executed stage
// appears.
func TestTracedStageDAG(t *testing.T) {
	ctx := NewContext(Config{Parallelism: 4})
	tr := trace.New()
	root := tr.Start(nil, "query")
	ctx.SetTracer(tr)
	ctx.SetTraceRoot(root)
	sumByParity(ctx)
	ctx.SetTracer(nil)
	root.End()

	spans := tr.Spans()
	byID := map[int64]*trace.Span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	var stageSpans, taskSpans int
	for _, s := range spans {
		switch {
		case strings.HasPrefix(s.Name, "stage: "):
			stageSpans++
			if s.ParentID != root.ID {
				t.Fatalf("stage span %q parents under %d, want query root %d", s.Name, s.ParentID, root.ID)
			}
			if s.Duration() <= 0 {
				t.Fatalf("stage span %q has no duration", s.Name)
			}
		case s.Name == "task":
			taskSpans++
			p := byID[s.ParentID]
			if p == nil || !strings.HasPrefix(p.Name, "stage: ") {
				t.Fatalf("task span parents under %v, want a stage span", p)
			}
		}
	}
	snap := ctx.Metrics()
	if int64(stageSpans) != snap.Stages {
		t.Fatalf("recorded %d stage spans for %d stages", stageSpans, snap.Stages)
	}
	if int64(taskSpans) != snap.Tasks {
		t.Fatalf("recorded %d task spans for %d tasks", taskSpans, snap.Tasks)
	}

	// After SetTracer(nil) new stages must record nothing.
	n := len(tr.Spans())
	sumByParity(ctx)
	if len(tr.Spans()) != n {
		t.Fatalf("stages kept recording spans after tracing was disabled")
	}
}

// TestDistSummary pins down the nearest-rank percentile math.
func TestDistSummary(t *testing.T) {
	ran := []int64{1, 1, 1, 1, 1}
	d := summarizeDist([]int64{10, 20, 30, 40, 1000}, ran)
	if d.N != 5 || d.Min != 10 || d.Max != 1000 || d.ArgMax != 4 {
		t.Fatalf("bad summary: %+v", d)
	}
	if d.P50 != 30 || d.P99 != 1000 {
		t.Fatalf("percentiles: p50=%d p99=%d, want 30 and 1000", d.P50, d.P99)
	}
	if z := summarizeDist(nil, nil); z != (Dist{}) {
		t.Fatalf("empty dist = %+v", z)
	}
	one := summarizeDist([]int64{7}, ran)
	if one.P50 != 7 || one.P99 != 7 || one.N != 1 {
		t.Fatalf("singleton dist = %+v", one)
	}
}

// TestMergeDist pins down the cross-rank distribution fold.
func TestMergeDist(t *testing.T) {
	a := Dist{N: 4, Min: 10, P50: 20, P99: 40, Max: 40, ArgMax: 3}
	b := Dist{N: 2, Min: 5, P50: 50, P99: 90, Max: 95, ArgMax: 1}
	m := mergeDist(a, b)
	if m.N != 6 || m.Min != 5 || m.Max != 95 || m.ArgMax != 1 {
		t.Fatalf("merged extremes: %+v", m)
	}
	if m.P99 != 90 {
		t.Fatalf("p99 = %d, want max of halves (90)", m.P99)
	}
	if want := (int64(20)*4 + int64(50)*2) / 6; m.P50 != want {
		t.Fatalf("p50 = %d, want N-weighted %d", m.P50, want)
	}
	// Empty halves pass the other side through unchanged.
	if mergeDist(Dist{}, b) != b || mergeDist(a, Dist{}) != a {
		t.Fatal("empty half not passed through")
	}
}

// TestMergeStageRows folds three ranks' copies of two SPMD stages.
func TestMergeStageRows(t *testing.T) {
	base := time.Unix(100, 0)
	row := func(id int64, worker string, startOff, wall time.Duration, tasks int64, maxDur int64) StageMetric {
		return StageMetric{
			ID: id, Name: "stage: s", Start: base.Add(startOff), Wall: wall,
			Tasks: tasks, RecordsIn: 10, RecordsOut: 5, ShuffledBytes: 100,
			Worker:  worker,
			TaskDur: Dist{N: int(tasks), Min: 1, P50: 2, P99: maxDur, Max: maxDur},
		}
	}
	rows := []StageMetric{
		row(1, "w0", 10*time.Millisecond, 50*time.Millisecond, 4, 30),
		row(2, "w0", 0, 20*time.Millisecond, 2, 10),
		row(1, "w1", 5*time.Millisecond, 90*time.Millisecond, 4, 80), // slowest task
		row(1, "w2", 20*time.Millisecond, 40*time.Millisecond, 4, 20),
		row(2, "w1", 0, 25*time.Millisecond, 2, 12),
	}
	merged := MergeStageRows(rows)
	if len(merged) != 2 {
		t.Fatalf("got %d merged rows, want 2: %+v", len(merged), merged)
	}
	s1 := merged[0]
	if s1.ID != 1 || s1.Tasks != 12 || s1.RecordsIn != 30 || s1.ShuffledBytes != 300 {
		t.Fatalf("summed counts wrong: %+v", s1)
	}
	if s1.Wall != 90*time.Millisecond {
		t.Fatalf("wall = %v, want max across ranks", s1.Wall)
	}
	if !s1.Start.Equal(base.Add(5 * time.Millisecond)) {
		t.Fatalf("start = %v, want earliest rank start", s1.Start)
	}
	if s1.Worker != "w1" {
		t.Fatalf("worker = %q, want rank with slowest task (w1)", s1.Worker)
	}
	if s1.TaskDur.N != 12 || s1.TaskDur.Max != 80 {
		t.Fatalf("merged dist: %+v", s1.TaskDur)
	}
	// Single-rank stages pass through untouched.
	solo := MergeStageRows(rows[:1])
	if len(solo) != 1 || solo[0].Worker != "w0" || solo[0].Tasks != 4 {
		t.Fatalf("single-row merge drifted: %+v", solo)
	}
}

// TestStragglerWarnings names the slow rank when one worker's stage
// wall dwarfs the median.
func TestStragglerWarnings(t *testing.T) {
	mk := func(worker string, wall time.Duration) StageMetric {
		return StageMetric{ID: 3, Name: "stage: reduce", Worker: worker, Wall: wall}
	}
	s := MetricsSnapshot{WorkerStages: []StageMetric{
		mk("w0", 10*time.Millisecond),
		mk("w1", 11*time.Millisecond),
		mk("w2", 95*time.Millisecond),
	}}
	warns := s.StragglerWarnings(0)
	if len(warns) != 1 {
		t.Fatalf("got %d warnings, want 1: %v", len(warns), warns)
	}
	if !strings.Contains(warns[0], "worker w2") || !strings.Contains(warns[0], "stage 3") {
		t.Fatalf("warning does not name the straggler: %q", warns[0])
	}
	// Balanced ranks stay quiet.
	bal := MetricsSnapshot{WorkerStages: []StageMetric{
		mk("w0", 10*time.Millisecond), mk("w1", 12*time.Millisecond), mk("w2", 11*time.Millisecond),
	}}
	if w := bal.StragglerWarnings(0); len(w) != 0 {
		t.Fatalf("balanced ranks warned: %v", w)
	}
	// A single rank cannot straggle relative to itself.
	one := MetricsSnapshot{WorkerStages: []StageMetric{mk("w0", time.Second)}}
	if w := one.StragglerWarnings(0); len(w) != 0 {
		t.Fatalf("single rank warned: %v", w)
	}
	// And the warning surfaces in FormatStages output.
	if out := s.FormatStages(); !strings.Contains(out, "straggler: stage 3") {
		t.Fatalf("FormatStages missing straggler warning:\n%s", out)
	}
}

// TestSkewWarningNamesWorker checks the worker attribution added to
// cluster-merged rows.
func TestSkewWarningNamesWorker(t *testing.T) {
	st := StageMetric{
		ID: 7, Name: "stage: join", Worker: "w3",
		TaskDur: Dist{N: 8, Min: 1, P50: 10, P99: 500, Max: 600, ArgMax: 5},
	}
	w, ok := st.SkewWarning(0)
	if !ok || !strings.Contains(w, "on worker w3") {
		t.Fatalf("skew warning missing worker: ok=%v %q", ok, w)
	}
	st.Worker = ""
	w, _ = st.SkewWarning(0)
	if strings.Contains(w, "on worker") {
		t.Fatalf("local skew warning mentions a worker: %q", w)
	}
}
