package jobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
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
// cluster and checks its report carries the merged stage table plus one
// trace lane per rank, and that the record, written as JSON and read
// back, prints the same report byte for byte and a Chrome trace with the
// same lanes — what `sac -analyze`, `sac history` and `sac history
// -chrome` print of it.
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
	if out.Trace == nil {
		t.Fatal("traced run returned no merged trace")
	}
	rec := out.Record(src, nil)
	report := rec.Report()
	for _, want := range []string{"plan: ", "result: ", "stages:", "trace:", "totals:",
		"stage:", // engine stage spans crossed the wire into the merged tree
	} {
		if !strings.Contains(report, want) {
			t.Fatalf("report missing %q:\n%s", want, report)
		}
	}
	for i := 0; i < 3; i++ {
		if !strings.Contains(report, fmt.Sprintf("worker: w%d", i)) {
			t.Fatalf("report missing rank w%d trace lane:\n%s", i, report)
		}
	}

	raw, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var replayed core.Record
	if err := json.Unmarshal(raw, &replayed); err != nil {
		t.Fatal(err)
	}
	if got := replayed.Report(); got != report {
		t.Fatalf("replayed report drifted:\nlive:\n%s\nreplayed:\n%s", report, got)
	}
	var chrome bytes.Buffer
	if err := replayed.Trace().WriteChrome(&chrome); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Tid  int64  `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &doc); err != nil {
		t.Fatalf("replayed Chrome trace: %v", err)
	}
	lanes := map[string]int64{}
	for _, e := range doc.TraceEvents {
		if strings.HasPrefix(e.Name, "worker: ") {
			lanes[e.Name] = e.Tid
		}
	}
	if len(lanes) != 3 || lanes["worker: w0"] == lanes["worker: w1"] || lanes["worker: w1"] == lanes["worker: w2"] ||
		lanes["worker: w0"] == 0 || lanes["worker: w2"] == 0 {
		t.Fatalf("replayed Chrome trace lanes %v, want one each for worker: w0..w2", lanes)
	}
}

// TestClusterRunFailureKeepsWhatWasMeasured: a query that fails on every
// rank still hands back, beside the error, each rank's row and spans, as
// a local Session.Run keeps what it measured (core.Backend.Run), and its
// record prints the error.
func TestClusterRunFailureKeepsWhatWasMeasured(t *testing.T) {
	d := startTestClusterPar(t, twoSlots(3), 0)
	cs := NewClusterSession(d, baseParams(), time.Minute)
	src := "+/[ i / (j - j) | ((i,j),a) <- A ]" // every tile divides by zero
	q, err := cs.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	out, err := cs.Run(q, src, true)
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("want a division by zero, got %v", err)
	}
	if len(out.Metrics.PerWorker) != 3 || out.Trace == nil {
		t.Fatalf("failed run kept %d worker rows, trace %v", len(out.Metrics.PerWorker), out.Trace != nil)
	}
	for i, w := range out.Metrics.PerWorker {
		if w.ID != fmt.Sprintf("w%d", i) || w.Lost || w.WallNanos == 0 {
			t.Errorf("rank %d row %+v", i, w)
		}
	}
	if cs.Metrics().PerWorker == nil {
		t.Error("Metrics does not show the failed run")
	}
	report := out.Record(src, err).Report()
	for _, want := range []string{"plan: ", "error: ", "division by zero", "worker: w2"} {
		if !strings.Contains(report, want) {
			t.Fatalf("report missing %q:\n%s", want, report)
		}
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
