package eventlog

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// runLogged executes one query on a fresh local session and logs it,
// returning the log path and the live metered snapshot's stage table.
func runLogged(t *testing.T, dir, src string) (string, string) {
	t.Helper()
	s := core.NewSession(core.Config{TileSize: 8, Partitions: 4})
	defer s.Close()
	s.RegisterRandMatrix("A", 32, 32, 0, 10, 1)
	s.RegisterRandMatrix("B", 32, 32, 0, 10, 2)
	s.RegisterScalar("n", int64(32))

	start := time.Now()
	q, err := s.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	out, err := s.Run(q, src, false)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	snap := out.Metrics
	if len(snap.PerStage) == 0 {
		t.Fatal("query ran no stages; pick an eager query")
	}

	path := filepath.Join(dir, FileName(start, 1))
	w, err := NewWriter(path)
	if err != nil {
		t.Fatalf("writer: %v", err)
	}
	if err := LogRun(w, src, out, nil); err != nil {
		t.Fatalf("log: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return path, snap.FormatStages()
}

// TestReplayMatchesLive is the acceptance test: `sac history` must
// reproduce a run's stage summary from the log alone, byte for byte.
func TestReplayMatchesLive(t *testing.T) {
	src := "+/[ m | ((i,j),m) <- A ]"
	path, liveTable := runLogged(t, t.TempDir(), src)

	run, err := ReplayFile(path)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if run.Query != src {
		t.Fatalf("query = %q", run.Query)
	}
	if run.Plan == "" || run.Error != "" || run.Wall <= 0 {
		t.Fatalf("run header drifted: %+v", run)
	}
	if got := run.Snapshot.FormatStages(); got != liveTable {
		t.Fatalf("replayed stage table drifted:\nlive:\n%s\nreplayed:\n%s", liveTable, got)
	}
	// The per-event stage rows agree with the embedded snapshot.
	if len(run.Stages) != len(run.Snapshot.PerStage) {
		t.Fatalf("%d stage events vs %d snapshot rows", len(run.Stages), len(run.Snapshot.PerStage))
	}
	out := run.Format()
	for _, want := range []string{"query: " + src, "plan: ", "totals: ", "stages:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format missing %q:\n%s", want, out)
		}
	}
}

// TestReplayToleratesGrowth checks forward compatibility: unknown
// event kinds are carried through, blank lines skipped, and a log
// truncated before the metrics record still replays its stage events.
func TestReplayToleratesGrowth(t *testing.T) {
	src := "+/[ m | ((i,j),m) <- A ]"
	path, _ := runLogged(t, t.TempDir(), src)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	// Inject an unknown kind and a blank line mid-stream.
	grown := append([]string{lines[0],
		`{"time":"2026-08-07T00:00:00Z","kind":"future.thing","worker":"w9"}`, ""},
		lines[1:]...)
	run, err := Replay(strings.NewReader(strings.Join(grown, "\n")))
	if err != nil {
		t.Fatalf("replay grown log: %v", err)
	}
	found := false
	for _, e := range run.Events {
		if e.Kind == "future.thing" {
			found = true
		}
	}
	if !found {
		t.Fatal("unknown event dropped")
	}

	// A log written when shuffles could rebalance their buckets carries
	// an "adaptive" record and two counters the schema has since dropped:
	// the record stays as an unknown kind, the counters are ignored, and
	// the report `sac history` prints is the same.
	before, err := Replay(strings.NewReader(strings.Join(lines, "\n")))
	if err != nil {
		t.Fatalf("replay log: %v", err)
	}
	old := []string{lines[0], `{"time":"2026-08-07T00:00:00Z","kind":"adaptive","adaptive":` +
		`{"Stage":"shuffle(reduceByKey)","Before":{"N":8,"Min":0,"P50":0,"P99":64,"Max":64,"ArgMax":0},` +
		`"After":{"N":8,"Min":7,"P50":8,"P99":9,"Max":9,"ArgMax":3},"MovedRecords":56,"MovedGroups":56}}`}
	for _, l := range lines[1:] {
		if strings.Contains(l, `"kind":"metrics"`) {
			l = withRetiredCounters(t, l)
		}
		old = append(old, l)
	}
	oldRun, err := Replay(strings.NewReader(strings.Join(old, "\n")))
	if err != nil {
		t.Fatalf("replay log with retired records: %v", err)
	}
	if got := oldRun.Events[1].Kind; got != "adaptive" {
		t.Fatalf("retired record replayed as kind %q", got)
	}
	if got, want := oldRun.Format(), before.Format(); got != want {
		t.Fatalf("retired records changed the report:\n%s\nwant:\n%s", got, want)
	}

	// Truncate before the metrics record: stage events must survive.
	cut := -1
	for i, l := range lines {
		if strings.Contains(l, `"kind":"metrics"`) {
			cut = i
			break
		}
	}
	if cut < 0 {
		t.Fatal("no metrics record in log")
	}
	tr, err := Replay(strings.NewReader(strings.Join(lines[:cut], "\n")))
	if err != nil {
		t.Fatalf("replay truncated log: %v", err)
	}
	if len(tr.Stages) == 0 {
		t.Fatal("truncated replay lost stage events")
	}
	if tr.Snapshot.Stages != 0 {
		t.Fatal("truncated replay invented a snapshot")
	}

	// A malformed line names its position.
	if _, err := Replay(strings.NewReader("{\"kind\":\"plan\"}\n{oops\n")); err == nil ||
		!strings.Contains(err.Error(), "line 2") {
		t.Fatalf("malformed line error = %v", err)
	}
	if _, err := Replay(strings.NewReader("")); err == nil {
		t.Fatal("empty log replayed")
	}
}

// withRetiredCounters adds the adaptive-rebalance counters an earlier
// schema wrote to a metrics record's snapshot.
func withRetiredCounters(t *testing.T, line string) string {
	t.Helper()
	var e, m map[string]json.RawMessage
	if err := json.Unmarshal([]byte(line), &e); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(e["metrics"], &m); err != nil {
		t.Fatal(err)
	}
	if _, ok := m["ShuffledBytes"]; !ok {
		t.Fatalf("no counters at the snapshot's top level: %s", e["metrics"])
	}
	m["AdaptiveRebalances"], m["AdaptiveMovedRecords"] = json.RawMessage("1"), json.RawMessage("56")
	var err error
	if e["metrics"], err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestFileName pins the session-relative naming scheme.
func TestFileName(t *testing.T) {
	at := time.Date(2026, 8, 7, 10, 30, 0, 0, time.UTC)
	if got := FileName(at, 7); got != "query-20260807-103000-007.jsonl" {
		t.Fatalf("FileName = %q", got)
	}
	if a, b := FileName(at, 1), FileName(at, 2); a == b {
		t.Fatalf("names collide: %q", a)
	}
	_ = fmt.Sprint() // keep fmt imported if assertions change
}
