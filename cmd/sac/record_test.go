package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// runRecorded runs src traced on a fresh local session and writes its
// record, returning the live report and the file.
func runRecorded(t *testing.T, src string) (string, string) {
	t.Helper()
	s := core.NewSession(core.Config{TileSize: 8, Partitions: 4})
	defer s.Close()
	s.RegisterRandMatrix("A", 32, 32, 0, 10, 1)
	s.RegisterScalar("z", int64(0))
	out := &core.Outcome{}
	q, err := s.Compile(src)
	if err == nil {
		out, err = s.Run(q, src, true)
	}
	rec := out.Record(src, err)
	path := filepath.Join(t.TempDir(), "eventlog", recordFileName(time.Now(), 1))
	if err := writeRecord(path, rec); err != nil {
		t.Fatalf("write: %v", err)
	}
	return rec.Report(), path
}

// TestReplayMatchesLive: `sac history` prints what `sac -analyze`
// printed, byte for byte, from the record file alone.
func TestReplayMatchesLive(t *testing.T) {
	src := "+/[ m | ((i,j),m) <- A ]"
	live, path := runRecorded(t, src)
	rec, err := readRecord(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if got := rec.Report(); got != live {
		t.Fatalf("replayed report drifted:\nlive:\n%s\nreplayed:\n%s", live, got)
	}
	if rec.Query != src || rec.Plan == "" || rec.Error != "" || rec.WallNs <= 0 ||
		len(rec.Metrics.PerStage) == 0 || len(rec.Spans) == 0 {
		t.Fatalf("record lost a part of the run: %+v", rec)
	}
	for _, want := range []string{"query: " + src, "plan: ", "result: ", "totals: ", "stages:", "trace:", "phase: execute"} {
		if !strings.Contains(live, want) {
			t.Fatalf("report missing %q:\n%s", want, live)
		}
	}
}

// TestReplayFailedRuns: a query that did not compile leaves a record
// with no plan, and one that failed running keeps its plan; both replay
// with their error.
func TestReplayFailedRuns(t *testing.T) {
	for _, c := range []struct {
		src, err string
		plan     bool
	}{
		{"+/[ m | ((i,j),m) <- Nope ]", "Nope", false},
		{"+/[ i % z | ((i,j),a) <- A ]", "by zero", true},
	} {
		live, path := runRecorded(t, c.src)
		rec, err := readRecord(path)
		if err != nil {
			t.Fatalf("%s: read: %v", c.src, err)
		}
		got := rec.Report()
		if got != live || !strings.Contains(got, "error: ") || !strings.Contains(rec.Error, c.err) ||
			strings.Contains(got, "result: ") || strings.Contains(got, "\nplan: ") != c.plan {
			t.Fatalf("%s: replayed\n%s\nlive\n%s", c.src, got, live)
		}
	}
}

// TestReplayToleratesGrowth: a record written by another build still
// reads — unknown keys and counters the schema has since dropped are
// ignored — while a malformed record fails naming its position and an
// empty file is refused.
func TestReplayToleratesGrowth(t *testing.T) {
	live, path := runRecorded(t, "+/[ m | ((i,j),m) <- A ]")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec map[string]json.RawMessage
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	rec["metrics"] = withRetiredCounters(t, rec["metrics"])
	rec["future"] = json.RawMessage(`{"kind":"adaptive","worker":"w9"}`)
	grown, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	read := func(name, content string) (*core.Record, error) {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return readRecord(p)
	}
	old, err := read("grown.jsonl", string(grown)+"\n")
	if err != nil {
		t.Fatalf("read grown record: %v", err)
	}
	if got := old.Report(); got != live {
		t.Fatalf("unknown keys changed the report:\n%s\nwant:\n%s", got, live)
	}

	for name, c := range map[string]struct{ content, want string }{
		"malformed": {`{"query":"q",` + "\n" + `oops}`, "byte 15"},
		"truncated": {string(raw[:len(raw)/2]), "unexpected EOF"},
		"trailing":  {string(raw) + "{}", "data after the record"},
		"empty":     {"\n", "no record"},
	} {
		if _, err := read(name, c.content); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s record: error %v, want one naming %q", name, err, c.want)
		}
	}
}

// withRetiredCounters adds the counters an earlier schema wrote to a
// record's metrics: the adaptive rebalancer's, the engine's count of
// fetched bytes and the data server's served pair.
func withRetiredCounters(t *testing.T, metrics json.RawMessage) json.RawMessage {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(metrics, &m); err != nil {
		t.Fatal(err)
	}
	if _, ok := m["ShuffledBytes"]; !ok {
		t.Fatalf("no counters at the snapshot's top level: %s", metrics)
	}
	for key, v := range map[string]string{"AdaptiveRebalances": "1", "AdaptiveMovedRecords": "56",
		"RemoteFetchedBytes": "4096", "ServedFetches": "3", "ServedBytes": "4096"} {
		m[key] = json.RawMessage(v)
	}
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFileName pins the session-relative naming scheme.
func TestFileName(t *testing.T) {
	at := time.Date(2026, 8, 7, 10, 30, 0, 0, time.UTC)
	if got := recordFileName(at, 7); got != "query-20260807-103000-007.jsonl" {
		t.Fatalf("recordFileName = %q", got)
	}
	if a, b := recordFileName(at, 1), recordFileName(at, 2); a == b {
		t.Fatalf("names collide: %q", a)
	}
}
