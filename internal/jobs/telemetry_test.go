package jobs

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/dataflow"
	"repro/internal/obs"
)

// TestClusterMergedStageTable is the observability acceptance test:
// a 3-worker cluster query must yield a merged per-stage table built
// from rows reported by EVERY rank, and a traced Run's Report must render
// it with per-worker rows and a merged trace lane per rank.
func TestClusterMergedStageTable(t *testing.T) {
	d := startTestClusterPar(t, twoSlots(3), 0)
	cs := NewClusterSession(d, baseParams(), time.Minute)
	src := fig4Queries[0].src
	q, err := cs.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	out, err := cs.Run(q, src, false)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	snap := out.Metrics

	// Every rank contributed stage rows, each stamped with its worker.
	ranks := map[string]int{}
	for _, st := range snap.WorkerStages {
		if st.Worker == "" {
			t.Fatalf("worker stage row without a worker: %+v", st)
		}
		ranks[st.Worker]++
	}
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("w%d", i)
		if ranks[id] == 0 {
			t.Fatalf("no stage rows from rank %s (got %v)", id, ranks)
		}
	}

	// The merged table folds the ranks: every merged row's task count
	// is the sum of that stage's per-rank rows, and stage IDs repeat
	// nowhere.
	if len(snap.PerStage) == 0 {
		t.Fatal("no merged PerStage rows")
	}
	merged := map[string]dataflow.StageMetric{}
	for _, st := range snap.PerStage {
		k := fmt.Sprintf("%d/%s", st.ID, st.Name)
		if _, dup := merged[k]; dup {
			t.Fatalf("stage %s appears twice in merged table", k)
		}
		merged[k] = st
	}
	sums := map[string]int64{}
	for _, st := range snap.WorkerStages {
		sums[fmt.Sprintf("%d/%s", st.ID, st.Name)] += st.Tasks
	}
	for k, want := range sums {
		if got := merged[k].Tasks; got != want {
			t.Fatalf("stage %s merged tasks = %d, want sum %d", k, got, want)
		}
	}

	// SPMD means every rank ran the same stages: each merged row has a
	// contribution from all three ranks.
	perStageRanks := map[string]map[string]bool{}
	for _, st := range snap.WorkerStages {
		k := fmt.Sprintf("%d/%s", st.ID, st.Name)
		if perStageRanks[k] == nil {
			perStageRanks[k] = map[string]bool{}
		}
		perStageRanks[k][st.Worker] = true
	}
	for k, rs := range perStageRanks {
		if len(rs) != 3 {
			t.Fatalf("stage %s has rows from %d ranks, want 3", k, len(rs))
		}
	}

	// The formatted table renders without tracing; the per-worker rows
	// name every rank.
	table := snap.FormatStages()
	for i := 0; i < 3; i++ {
		if !strings.Contains(table, fmt.Sprintf("w%d", i)) {
			t.Fatalf("FormatStages missing rank w%d:\n%s", i, table)
		}
	}

	// No tracing was requested, so no merged trace.
	if out.Trace != nil {
		t.Fatal("trace present on an untraced run")
	}

	// The run is recorded on the driver's plan it ran.
	if ex := q.Explain(); !strings.Contains(ex, "observed 1 run(s)") {
		t.Fatalf("plan missing the run's observation:\n%s", ex)
	}
}

// TestClusterAnalyzeMergedTrace runs a traced query on a 3-worker
// cluster and checks its Report carries the merged stage table plus one
// trace lane per rank.
func TestClusterAnalyzeMergedTrace(t *testing.T) {
	d := startTestClusterPar(t, twoSlots(3), 0)
	cs := NewClusterSession(d, baseParams(), time.Minute)
	src := fig4Queries[2].src
	q, err := cs.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	out, err := cs.Run(q, src, true)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	report := out.Report()
	for _, want := range []string{"plan: ", "result: ", "stages:", "trace:", "totals:"} {
		if !strings.Contains(report, want) {
			t.Fatalf("report missing %q:\n%s", want, report)
		}
	}
	for i := 0; i < 3; i++ {
		if !strings.Contains(report, fmt.Sprintf("worker: w%d", i)) {
			t.Fatalf("report missing rank w%d trace lane:\n%s", i, report)
		}
	}
	// Stage spans from the engine made it across the wire into the
	// merged tree.
	if !strings.Contains(report, "stage:") {
		t.Fatalf("report has no stage spans:\n%s", report)
	}
	if out.Trace == nil {
		t.Fatal("traced run returned no merged trace")
	}
}

// TestClusterMergedSnapshotCarriesEveryCounter: the driver's merged
// snapshot is the ranks' reports folded by the schema's rules, every
// counter of them. At the parent commit reportFrom forwarded 11 of the
// counters, so a budgeted cluster run read "0 files (0 rows), 0 merge
// passes" however much the ranks spilled.
func TestClusterMergedSnapshotCarriesEveryCounter(t *testing.T) {
	d := startTestClusterPar(t, twoSlots(3), 64<<10)
	p := baseParams()
	p.N, p.Tile = 128, 32
	cs := NewClusterSession(d, p, time.Minute)
	if _, _, err := cs.Query(fig4Queries[0].src); err != nil {
		t.Fatalf("query: %v", err)
	}
	snap := cs.Metrics()
	if snap.SpillFiles == 0 || snap.SpilledRecords == 0 || snap.MergePasses == 0 || snap.Shuffles == 0 {
		t.Fatalf("merged snapshot lost the ranks' spill counters: files=%d rows=%d passes=%d shuffles=%d",
			snap.SpillFiles, snap.SpilledRecords, snap.MergePasses, snap.Shuffles)
	}
	// Every counter is the per-worker rows merged by its rule: sums add
	// up, high-water marks take the largest rank.
	var want obs.CounterSet
	for _, w := range snap.PerWorker {
		want = obs.MergeCounters(want, w.CounterSet)
	}
	if snap.CounterSet != want {
		t.Fatalf("merged counters are not the merge of the PerWorker rows:\ngot  %+v\nwant %+v", snap.CounterSet, want)
	}
	var files, peak, wall int64
	for _, w := range snap.PerWorker {
		files += w.SpillFiles
		peak, wall = max(peak, w.MemoryPeak), max(wall, w.WallNanos)
	}
	if snap.SpillFiles != files || snap.MemoryPeak != peak || snap.WallNanos != wall || wall == 0 {
		t.Fatalf("files %d (rows sum %d), peak %d (rows max %d), wall %d (rows max %d)",
			snap.SpillFiles, files, snap.MemoryPeak, peak, snap.WallNanos, wall)
	}
	if out := snap.FormatStages(); !strings.Contains(out, "spill: ") || strings.Contains(out, " in 0 files") {
		t.Fatalf("FormatStages does not report the spill:\n%s", out)
	}
}
