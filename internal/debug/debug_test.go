package debug

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/dataflow"
	"repro/internal/obs"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestServe(t *testing.T) {
	ctx := dataflow.NewContext(dataflow.Config{Parallelism: 2})
	// Run something so the snapshot has stages to show.
	d := dataflow.Parallelize(ctx, []int64{1, 2, 3, 4, 5, 6}, 3)
	pairs := dataflow.Map(d, func(v int64) dataflow.Pair[int64, int64] { return dataflow.KV(v%2, v) })
	dataflow.Collect(dataflow.ReduceByKey(pairs, func(a, b int64) int64 { return a + b }, 2))

	srv, err := Serve("127.0.0.1:0", ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	code, body := get(t, base+"/debug/metrics")
	if code != http.StatusOK {
		t.Fatalf("/debug/metrics status %d", code)
	}
	if n, err := obs.ValidateExposition(strings.NewReader(body)); err != nil || n == 0 {
		t.Fatalf("/debug/metrics is not valid Prometheus text (%d samples): %v\n%s", n, err, body)
	}
	if !strings.Contains(body, "sac_dataflow_stages_total") {
		t.Fatalf("/debug/metrics missing engine counters:\n%s", body)
	}

	code, body = get(t, base+"/debug/metrics.json")
	if code != http.StatusOK {
		t.Fatalf("/debug/metrics.json status %d", code)
	}
	var snap dataflow.MetricsSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/debug/metrics.json is not a MetricsSnapshot: %v\n%s", err, body)
	}
	if snap.Stages == 0 || len(snap.PerStage) == 0 {
		t.Fatalf("snapshot shows no stages: %+v", snap)
	}

	code, body = get(t, base+"/debug/stages")
	if code != http.StatusOK || !strings.Contains(body, "max concurrent stages") {
		t.Fatalf("/debug/stages status %d body:\n%s", code, body)
	}
	if !strings.Contains(body, "shuffle(") {
		t.Fatalf("/debug/stages missing shuffle stage row:\n%s", body)
	}

	code, body = get(t, base+"/debug/stages.json")
	if code != http.StatusOK {
		t.Fatalf("/debug/stages.json status %d", code)
	}
	var doc struct {
		Stages []struct {
			Name        string `json:"name"`
			WallNs      int64  `json:"wall_ns"`
			PartRecords *struct {
				Max int64 `json:"max"`
			} `json:"part_records"`
		} `json:"stages"`
		Totals struct {
			ShuffledRecords int64 `json:"shuffled_records"`
		} `json:"totals"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/debug/stages.json is not valid JSON: %v\n%s", err, body)
	}
	if len(doc.Stages) == 0 || doc.Totals.ShuffledRecords == 0 {
		t.Fatalf("/debug/stages.json shows no stages:\n%s", body)
	}
	foundShuffle := false
	for _, st := range doc.Stages {
		if strings.Contains(st.Name, "shuffle") && st.PartRecords != nil && st.PartRecords.Max > 0 {
			foundShuffle = true
		}
	}
	if !foundShuffle {
		t.Fatalf("/debug/stages.json missing shuffle stage with a partition histogram:\n%s", body)
	}

	code, _ = get(t, base+"/debug/pprof/")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d", code)
	}

	code, body = get(t, base+"/")
	if code != http.StatusOK || !strings.Contains(body, "/debug/metrics") {
		t.Fatalf("index page wrong: %d\n%s", code, body)
	}

	if code, _ := get(t, base+"/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown path should 404, got %d", code)
	}
}

// TestServeMemory runs a budgeted shuffle big enough to spill and
// checks that /debug/memory reports the live budget gauge and the
// spill counters.
func TestServeMemory(t *testing.T) {
	const budget = 1 << 20
	ctx := dataflow.NewContext(dataflow.Config{Parallelism: 4, MemoryBudget: budget})
	defer ctx.Close()
	d := dataflow.Generate(ctx, 16, func(p int) []int64 {
		rows := make([]int64, 16384)
		for i := range rows {
			rows[i] = int64(p*len(rows) + i)
		}
		return rows
	})
	pairs := dataflow.Map(d, func(v int64) dataflow.Pair[int64, int64] {
		return dataflow.KV(v%100003, v)
	})
	dataflow.Count(dataflow.GroupByKey(pairs, 8))

	srv, err := Serve("127.0.0.1:0", ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	code, body := get(t, "http://"+srv.Addr()+"/debug/memory")
	if code != http.StatusOK {
		t.Fatalf("/debug/memory status %d", code)
	}
	var snap memorySnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/debug/memory is not a memorySnapshot: %v\n%s", err, body)
	}
	if snap.Budget != budget {
		t.Fatalf("budget gauge %d, want %d\n%s", snap.Budget, budget, body)
	}
	if snap.Spilled.Bytes == 0 || snap.Spilled.Files == 0 {
		t.Fatalf("working set over budget but /debug/memory shows no spill:\n%s", body)
	}
	if snap.Peak == 0 {
		t.Fatalf("peak gauge should be nonzero after a budgeted run:\n%s", body)
	}
}

// TestServeNilSource covers the sacworker shape: no session attached,
// so the Prometheus and pprof routes serve while snapshot-backed
// routes answer 503.
func TestServeNilSource(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	code, body := get(t, base+"/debug/metrics")
	if code != http.StatusOK {
		t.Fatalf("/debug/metrics status %d with nil source", code)
	}
	if _, err := obs.ValidateExposition(strings.NewReader(body)); err != nil {
		t.Fatalf("nil-source exposition invalid: %v", err)
	}
	for _, path := range []string{"/debug/metrics.json", "/debug/stages", "/debug/stages.json", "/debug/memory"} {
		if code, _ := get(t, base+path); code != http.StatusServiceUnavailable {
			t.Fatalf("%s status %d with nil source, want 503", path, code)
		}
	}
	if code, _ := get(t, base+"/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d with nil source", code)
	}
}

// clusterSource fakes a ClusterSession snapshot: merged PerStage rows
// plus per-worker rows with a straggler.
type clusterSource struct{ snap dataflow.MetricsSnapshot }

func (c clusterSource) Metrics() dataflow.MetricsSnapshot { return c.snap }

func TestStagesJSONClusterRows(t *testing.T) {
	mk := func(worker string, wallMs int64) dataflow.StageMetric {
		return dataflow.StageMetric{ID: 1, Name: "stage: shuffle(join)", Worker: worker,
			Wall: time.Duration(wallMs) * time.Millisecond, Tasks: 4}
	}
	workers := []dataflow.StageMetric{mk("w0", 10), mk("w1", 12), mk("w2", 80)}
	snap := dataflow.MetricsSnapshot{
		WorkerStages: workers,
		PerStage:     dataflow.MergeStageRows(workers),
	}
	srv, err := Serve("127.0.0.1:0", clusterSource{snap})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	code, body := get(t, "http://"+srv.Addr()+"/debug/stages.json")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var doc struct {
		Stages []struct {
			Worker string `json:"worker"`
			Tasks  int64  `json:"tasks"`
		} `json:"stages"`
		WorkerStages []struct {
			Worker string `json:"worker"`
		} `json:"worker_stages"`
		Stragglers []string `json:"stragglers"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if len(doc.Stages) != 1 || doc.Stages[0].Tasks != 12 {
		t.Fatalf("merged stages wrong:\n%s", body)
	}
	if len(doc.WorkerStages) != 3 {
		t.Fatalf("want 3 worker rows:\n%s", body)
	}
	seen := map[string]bool{}
	for _, ws := range doc.WorkerStages {
		seen[ws.Worker] = true
	}
	if !seen["w0"] || !seen["w1"] || !seen["w2"] {
		t.Fatalf("worker rows missing ranks: %v", seen)
	}
	if len(doc.Stragglers) != 1 || !strings.Contains(doc.Stragglers[0], "w2") {
		t.Fatalf("straggler not surfaced: %v", doc.Stragglers)
	}
}
