package trace

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestRingBufferDropsOldest(t *testing.T) {
	tr := NewAt(fakeClock())
	tr.SetLimit(3)
	for i := 0; i < 5; i++ {
		tr.Start(nil, fmt.Sprintf("s%d", i)).End()
	}
	if got := tr.Dropped(); got != 2 {
		t.Fatalf("dropped = %d, want 2", got)
	}
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("retained %d spans, want 3", len(spans))
	}
	for i, want := range []string{"s2", "s3", "s4"} {
		if spans[i].Name != want {
			t.Fatalf("span[%d] = %q, want %q (order must survive wraparound)", i, spans[i].Name, want)
		}
	}
	if !strings.HasPrefix(tr.Tree(), "[trace: 2 span(s) dropped by buffer limit]\n") {
		t.Fatalf("tree header missing drop count:\n%s", tr.Tree())
	}
}

func TestSetLimitShrinksAndCountsDrops(t *testing.T) {
	tr := NewAt(fakeClock())
	for i := 0; i < 6; i++ {
		tr.Start(nil, fmt.Sprintf("s%d", i)).End()
	}
	tr.SetLimit(2)
	if got := tr.Dropped(); got != 4 {
		t.Fatalf("dropped = %d, want 4", got)
	}
	spans := tr.Spans()
	if len(spans) != 2 || spans[0].Name != "s4" || spans[1].Name != "s5" {
		t.Fatalf("retained = %v, want [s4 s5]", spans)
	}
	// The new limit applies from here on.
	tr.Start(nil, "s6").End()
	if got := tr.Dropped(); got != 5 {
		t.Fatalf("dropped after overflow = %d, want 5", got)
	}
}

func TestOrphanedChildReRootsInTree(t *testing.T) {
	tr := NewAt(fakeClock())
	tr.SetLimit(2)
	root := tr.Start(nil, "root")
	child := root.StartChild("child")
	child.StartChild("grandchild").End() // evicts root from the ring
	child.End()
	root.End()
	tree := tr.Tree()
	if !strings.Contains(tree, "child") || !strings.Contains(tree, "grandchild") {
		t.Fatalf("orphaned spans vanished from tree:\n%s", tree)
	}
}

func TestExportRecordFields(t *testing.T) {
	tr := NewAt(fakeClock())
	tr.SetAutoAttr("worker", "w1")
	root := tr.Start(nil, "query")
	child := root.StartChild("stage").SetAttr("partition", 3)
	child.End()
	recs, dropped := tr.Export()
	if dropped != 0 {
		t.Fatalf("dropped = %d", dropped)
	}
	if len(recs) != 2 {
		t.Fatalf("exported %d records, want 2", len(recs))
	}
	r := recs[1]
	if r.Name != "stage" || r.ParentID != recs[0].ID {
		t.Fatalf("bad child record: %+v", r)
	}
	if r.EndNs == 0 {
		t.Fatal("ended span exported with EndNs 0")
	}
	if recs[0].EndNs != 0 {
		t.Fatal("unfinished span exported with an end time")
	}
	want := map[string]string{"worker": "w1", "partition": "3"}
	for i, k := range r.Keys {
		if want[k] != r.Vals[i] {
			t.Fatalf("attr %s = %q, want %q", k, r.Vals[i], want[k])
		}
		delete(want, k)
	}
	if len(want) != 0 {
		t.Fatalf("missing attrs: %v", want)
	}
}

// buildWorkerTrace simulates one rank's trace: a query root with one
// stage and per-rank tasks, on a clock offset so ranks interleave.
func buildWorkerTrace(rank int) WorkerTrace {
	base := time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)
	n := 0
	tr := NewAt(func() time.Time {
		n++
		return base.Add(time.Duration(rank)*100*time.Microsecond + time.Duration(n)*time.Millisecond)
	})
	tag := fmt.Sprintf("w%d", rank)
	tr.SetAutoAttr("worker", tag)
	root := tr.Start(nil, "query")
	st := root.StartChild("stage: shuffle")
	for i := 0; i < 2; i++ {
		st.StartChild("task").SetAttr("partition", rank*2+i).End()
	}
	st.End()
	root.End()
	recs, dropped := tr.Export()
	return WorkerTrace{Worker: tag, Dropped: dropped, Spans: recs}
}

func TestMergeStructure(t *testing.T) {
	groups := []WorkerTrace{buildWorkerTrace(0), buildWorkerTrace(1), buildWorkerTrace(2)}
	groups[1].Dropped = 7
	merged := Merge(groups)
	if got := merged.Dropped(); got != 7 {
		t.Fatalf("merged dropped = %d, want 7", got)
	}
	tree := merged.Tree()
	for _, want := range []string{
		"[trace: 7 span(s) dropped by buffer limit]",
		"worker: w0", "worker: w1", "worker: w2",
		`dropped=7`,
	} {
		if !strings.Contains(tree, want) {
			t.Fatalf("merged tree missing %q:\n%s", want, tree)
		}
	}
	// Every group contributes its spans under its own synthetic root.
	spans := merged.Spans()
	roots := map[int64]string{}
	for _, s := range spans {
		if s.ParentID == 0 {
			roots[s.ID] = s.Name
		}
	}
	if len(roots) != 3 {
		t.Fatalf("want 3 worker roots, got %v", roots)
	}
	perRoot := map[string]int{}
	under := map[int64]int64{} // span → owning root
	for _, s := range spans {
		if s.ParentID == 0 {
			under[s.ID] = s.ID
			continue
		}
		under[s.ID] = under[s.ParentID]
		perRoot[roots[under[s.ID]]]++
	}
	for _, w := range []string{"worker: w0", "worker: w1", "worker: w2"} {
		if perRoot[w] != 4 { // query + stage + 2 tasks
			t.Fatalf("%s holds %d spans, want 4\n%s", w, perRoot[w], tree)
		}
	}
}

func TestMergeReRootsMissingParents(t *testing.T) {
	g := buildWorkerTrace(0)
	// Simulate the query root having been dropped before shipping.
	g.Spans = g.Spans[1:]
	merged := Merge([]WorkerTrace{g})
	for _, s := range merged.Spans() {
		if s.Name == "stage: shuffle" {
			parent := ""
			for _, p := range merged.Spans() {
				if p.ID == s.ParentID {
					parent = p.Name
				}
			}
			if parent != "worker: w0" {
				t.Fatalf("orphan re-rooted under %q, want the worker span", parent)
			}
			return
		}
	}
	t.Fatal("stage span missing from merge")
}

// TestMergedChromeGolden pins the merged 3-rank Chrome trace
// byte-for-byte (regenerate with -update): three worker lanes, tasks
// nested under their rank's stage, deterministic interleaved clocks.
func TestMergedChromeGolden(t *testing.T) {
	merged := Merge([]WorkerTrace{buildWorkerTrace(0), buildWorkerTrace(1), buildWorkerTrace(2)})
	var buf bytes.Buffer
	if err := merged.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_merged_golden.json")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("merged chrome trace drifted from golden (run with -update)\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestReplayRendersAsLive: a tracer rebuilt from its export prints the
// tree the live one did — the drop header, orphans re-rooted, and every
// attribute the same whether it was set as a number or replayed as a
// string (numbers bare, anything else quoted).
func TestReplayRendersAsLive(t *testing.T) {
	tr := buildSample()
	tr.SetLimit(5) // drops the query root and its plan phase
	recs, dropped := tr.Export()
	live, replayed := tr.Tree(), Replay(recs, dropped).Tree()
	if replayed != live {
		t.Fatalf("replayed tree drifted:\nlive:\n%s\nreplayed:\n%s", live, replayed)
	}
	for _, want := range []string{"[trace: 2 span(s) dropped", "partition=1", "stage: shuffle(B)"} {
		if !strings.Contains(replayed, want) {
			t.Fatalf("replayed tree missing %q:\n%s", want, replayed)
		}
	}
	full := buildSample()
	recs, _ = full.Export()
	if got := Replay(recs, 0).Tree(); got != full.Tree() || !strings.Contains(got, `plan="A*B"`) {
		t.Fatalf("replayed tree:\n%s\nlive:\n%s", got, full.Tree())
	}
}
