package cluster

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

func init() {
	// test.telemetry hands over two spans and two stage rows, so the
	// driver's view of each rank's run can be asserted end to end.
	RegisterProgram("test.telemetry", func(env *JobEnv) ([]byte, Report, error) {
		tr := trace.NewAt(func() time.Time { return time.Unix(0, int64(env.Rank)*1000) })
		tr.SetAutoAttr("worker", env.WorkerTag)
		tr.Start(nil, "query").End()
		tr.Start(nil, "collect").End()
		spans, _ := tr.Export()
		env.Observe([]obs.StageMetric{
			{ID: 1, Name: "stage: early", Tasks: 2},
			{ID: 2, Name: "stage: late", Tasks: 3},
		}, spans, int64(env.Rank)) // a dropped count distinguishable per rank
		return []byte("done"), Report{Tasks: 2}, nil
	})
}

// sampleTelemetry is a rank's run as its reply carries it: a dropped
// count, finished and unfinished spans with and without attributes, and
// stage rows with every field set or, for Start, unset.
func sampleTelemetry() RankTelemetry {
	return RankTelemetry{
		DroppedSpans: 17,
		Spans: []trace.SpanRec{
			{ID: 1, Name: "query", StartNs: 100, EndNs: 900,
				Keys: []string{"worker"}, Vals: []string{"w0"}},
			{ID: 2, ParentID: 1, Name: "stage: shuffle", StartNs: 150, EndNs: 800,
				Keys: []string{"worker", "partitions"}, Vals: []string{"w0", "8"}},
			{ID: 3, ParentID: 2, Name: "task", StartNs: 200}, // unfinished, no attrs
		},
		Stages: []obs.StageMetric{
			{ID: 5, Name: "stage: shuffle(join)",
				Start: time.Unix(12, 345), Wall: 90 * time.Millisecond,
				Tasks: 8, RecordsIn: 100, RecordsOut: 50, ShuffledBytes: 4096,
				Worker:      "w7",
				TaskDur:     obs.Dist{N: 8, Min: 1, P50: 5, P99: 80, Max: 90, ArgMax: 3},
				PartRecords: obs.Dist{N: 8, Min: 10, P50: 12, P99: 15, Max: 16, ArgMax: 1}},
			{ID: 6, Name: "stage: collect"}, // no Start: the zero time survives
		},
	}
}

// TestTelemetryRoundTrip: a reply's telemetry decodes to what was sent,
// on a failed reply too, and a reply with none decodes to none.
func TestTelemetryRoundTrip(t *testing.T) {
	for _, m := range []jobDoneMsg{
		{JobID: 42, Err: "query failed", Telemetry: sampleTelemetry()},
		{JobID: 1, OK: true},
	} {
		got, err := decodeJobDone(m.encode())
		if err != nil || !reflect.DeepEqual(got, m) {
			t.Fatalf("round trip drifted: %v\ngot:  %+v\nwant: %+v", err, got, m)
		}
	}
}

// TestStageRowRoundTrip pins the stage record's wire form: what a rank
// sends is what the driver reads, every field, set or unset.
func TestStageRowRoundTrip(t *testing.T) {
	m := jobDoneMsg{OK: true, Telemetry: RankTelemetry{Stages: sampleTelemetry().Stages}}
	got, err := decodeJobDone(m.encode())
	if err != nil || !reflect.DeepEqual(got.Telemetry.Stages, m.Telemetry.Stages) {
		t.Fatalf("round trip drifted: %v\ngot:  %+v\nwant: %+v", err, got.Telemetry.Stages, m.Telemetry.Stages)
	}
}

// TestTelemetryTruncationSafe: a span, stage or attribute count larger
// than any frame is an error, not a giant allocation.
func TestTelemetryTruncationSafe(t *testing.T) {
	head := func() *wireBuf {
		var w wireBuf
		w.i64(9) // job
		w.i64(1) // ok
		w.str("")
		w.blob(encodeReport(Report{}))
		w.i64(0) // dropped
		return &w
	}
	spans := head()
	spans.u64(1 << 40)
	stages := head()
	stages.u64(0)
	stages.u64(1 << 40)
	attrs := head()
	attrs.u64(1)
	attrs.i64(1)
	attrs.i64(0)
	attrs.str("task")
	attrs.i64(1)
	attrs.i64(2)
	attrs.u64(1 << 40)
	for name, w := range map[string]*wireBuf{"span": spans, "stage": stages, "attribute": attrs} {
		if _, err := decodeJobDone(w.b); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
			t.Errorf("absurd %s count: err = %v", name, err)
		}
	}
}

func TestTelemetryFlowsToDriver(t *testing.T) {
	d, _ := startCluster(t, 3, 3*time.Second)
	res, err := d.Run("test.telemetry", nil, 10*time.Second)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for r, wr := range res.Workers {
		tl := wr.Telemetry
		if tl.DroppedSpans != int64(r) {
			t.Errorf("rank %d: dropped=%d, want %d", r, tl.DroppedSpans, r)
		}
		var names []string
		for _, s := range tl.Spans {
			names = append(names, s.Name)
		}
		if fmt.Sprint(names) != "[query collect]" {
			t.Errorf("rank %d spans = %v", r, names)
		}
		if len(tl.Stages) != 2 || tl.Stages[0].Name != "stage: early" || tl.Stages[1].Name != "stage: late" {
			t.Errorf("rank %d stages = %+v", r, tl.Stages)
		}
		// The rank's counters cross in the same reply.
		if wr.Report.Tasks != 2 {
			t.Errorf("rank %d job report tasks = %d", r, wr.Report.Tasks)
		}
	}
	// The merged trace carries one lane per rank with its spans.
	merged := res.MergedTrace()
	if merged == nil {
		t.Fatal("no merged trace despite telemetry")
	}
	tree := merged.Tree()
	for r := 0; r < 3; r++ {
		if !strings.Contains(tree, fmt.Sprintf("worker: w%d", r)) {
			t.Fatalf("merged tree missing rank %d lane:\n%s", r, tree)
		}
	}
	if !strings.Contains(tree, "query") || !strings.Contains(tree, "collect") {
		t.Fatalf("merged tree missing spans:\n%s", tree)
	}
}

func TestTelemetryNilWhenNotFlushed(t *testing.T) {
	d, _ := startCluster(t, 2, 3*time.Second)
	res, err := d.Run("test.echo", []byte("x"), 10*time.Second)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, wr := range res.Workers {
		if !reflect.DeepEqual(wr.Telemetry, RankTelemetry{}) {
			t.Fatalf("echo program observed nothing, but rank %d has telemetry %+v", wr.Rank, wr.Telemetry)
		}
	}
	if res.MergedTrace() != nil {
		t.Fatal("merged trace should be nil when no rank sent spans")
	}
}
