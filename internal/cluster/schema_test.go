package cluster

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/eventlog"
	"repro/internal/obs"
)

// legacySeries are the counter series that existed, hand-declared, before
// the schema, and the two histograms that still are: dashboards scrape
// these names, so the schema must keep them.
var legacySeries = []string{
	"sac_dataflow_stages_total", "sac_dataflow_tasks_total", "sac_dataflow_records_in_total",
	"sac_dataflow_shuffled_bytes_total", "sac_dataflow_spilled_bytes_total", "sac_dataflow_spill_files_total",
	"sac_dataflow_merge_passes_total",
	"sac_cluster_wire_fetched_bytes_total", "sac_cluster_wire_raw_bytes_total",
	"sac_cluster_chunks_fetched_total",
	"sac_cluster_conn_pool_hits_total", "sac_cluster_conn_pool_misses_total",
	"sac_cluster_fetch_retries_total", "sac_cluster_fetch_gone_total",
	"sac_dataflow_stage_seconds_count", "sac_dataflow_task_seconds_count",
}

// TestReportSchemaEndToEnd walks one counter set, a distinct value in
// every field, through everything that is derived from the schema: live
// set -> snapshot -> wire report -> cross-rank merge -> Prometheus
// exposition -> the event log's JSON metrics record and back. A field
// added to obs.Counters is covered here with no edit.
func TestReportSchemaEndToEnd(t *testing.T) {
	var live obs.LiveCounters
	for i := range obs.Schema {
		reflect.ValueOf(&live.Counters).Elem().Field(i).Addr().Interface().(*atomic.Int64).Add(1000 + 7*int64(i))
	}
	snap := live.Snapshot()

	// Wire: what a rank reports is what the driver reads.
	got, err := decodeReport(encodeReport(snap))
	if err != nil || got != snap {
		t.Fatalf("report round trip: %v\ngot  %+v\nwant %+v", err, got, snap)
	}
	done, err := decodeJobDone((&jobDoneMsg{JobID: 1, OK: true, Report: snap}).encode())
	if err != nil || done.Report != snap {
		t.Fatalf("jobdone round trip: %v %+v", err, done.Report)
	}

	// Merge: three ranks reporting the same set.
	merged := obs.MergeCounters(obs.MergeCounters(snap, snap), snap)
	for i, f := range obs.Schema {
		want := 3 * obs.CounterValues(snap)[i]
		if f.Rule == obs.Max {
			want /= 3
		}
		if got := obs.CounterValues(merged)[i]; got != want {
			t.Errorf("3-rank merge of %s (%s) = %d, want %d", f.Name, f.Rule, got, want)
		}
	}

	// Prometheus: every schema series exactly once, typed by its rule,
	// carrying what was published; the legacy names are among them.
	live.Publish()
	var exp bytes.Buffer
	if err := obs.Default.WritePrometheus(&exp); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateExposition(bytes.NewReader(exp.Bytes())); err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	samples := map[string]int{}
	for _, line := range strings.Split(exp.String(), "\n") {
		if name, _, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			samples[name]++
		}
	}
	for _, f := range obs.Schema {
		typ := "gauge"
		if f.Rule == obs.Sum {
			typ = "counter"
		}
		if samples[f.Prom] != 1 || !strings.Contains(exp.String(), "# TYPE "+f.Prom+" "+typ+"\n") {
			t.Errorf("series %s: %d samples, want 1 of type %s", f.Prom, samples[f.Prom], typ)
		}
	}
	for _, name := range legacySeries {
		if samples[name] != 1 {
			t.Errorf("legacy series %s: %d samples, want 1", name, samples[name])
		}
	}

	// JSON: the event log's metrics record replays to the same set,
	// under the field names as keys.
	path := filepath.Join(t.TempDir(), "q.jsonl")
	w, err := eventlog.NewWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	in := dataflow.MetricsSnapshot{CounterSet: merged,
		PerWorker: []dataflow.WorkerStat{{ID: "w0", Alive: true, CounterSet: snap}}}
	if err := eventlog.LogRun(w, "q", &core.Outcome{Metrics: in}, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	run, err := eventlog.ReplayFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if run.Snapshot.CounterSet != merged || len(run.Snapshot.PerWorker) != 1 || run.Snapshot.PerWorker[0].CounterSet != snap {
		t.Fatalf("event log round trip drifted:\ngot  %+v\nwant %+v", run.Snapshot, in)
	}
	raw, _ := os.ReadFile(path)
	for _, f := range obs.Schema {
		if !bytes.Contains(raw, []byte(`"`+f.Name+`":`)) {
			t.Errorf("metrics record has no key %q", f.Name)
		}
	}
}
