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
	// test.telemetry flushes two batches — one periodic-style, one
	// final — each with spans and a stage row, so driver-side
	// accumulation and ordering can be asserted end to end.
	RegisterProgram("test.telemetry", func(env *JobEnv) ([]byte, Report, error) {
		tr := trace.NewAt(func() time.Time { return time.Unix(0, int64(env.Rank)*1000) })
		tr.SetAutoAttr("worker", env.WorkerTag)
		tr.Start(nil, "query").End()
		if env.Telemetry != nil {
			recs := tr.DrainEnded()
			if err := env.Telemetry(TelemetryBatch{
				Spans:  recs,
				Stages: []obs.StageMetric{{ID: 1, Name: "stage: early", Tasks: 2}},
			}); err != nil {
				return nil, Report{}, err
			}
		}
		tr.Start(nil, "collect").End()
		if env.Telemetry != nil {
			if err := env.Telemetry(TelemetryBatch{
				Final:   true,
				Dropped: int64(env.Rank), // distinguishable per rank
				Spans:   tr.DrainEnded(),
				Stages:  []obs.StageMetric{{ID: 2, Name: "stage: late", Tasks: 3}},
			}); err != nil {
				return nil, Report{}, err
			}
		}
		return []byte("done"), Report{Tasks: 2}, nil
	})
}

func sampleTelemetry() telemetryMsg {
	return telemetryMsg{
		JobID: 42,
		Seq:   3,
		TelemetryBatch: TelemetryBatch{
			Final:   true,
			Dropped: 17,
			Spans: []trace.SpanRec{
				{ID: 1, Name: "query", StartNs: 100, EndNs: 900,
					Keys: []string{"worker"}, Vals: []string{"w0"}},
				{ID: 2, ParentID: 1, Name: "stage: shuffle", StartNs: 150, EndNs: 800,
					Keys: []string{"worker", "partitions"}, Vals: []string{"w0", "8"}},
				{ID: 3, ParentID: 2, Name: "task", StartNs: 200}, // unfinished, no attrs
			},
			Stages: []obs.StageMetric{
				{ID: 1, Name: "stage: shuffle", Start: time.Unix(0, 150), Wall: 650,
					Tasks: 8, RecordsIn: 1000, RecordsOut: 500, ShuffledBytes: 4096,
					TaskDur:     obs.Dist{N: 8, ArgMax: 3, Min: 10, P50: 20, P99: 90, Max: 95},
					PartRecords: obs.Dist{N: 8, Min: 100, P50: 120, P99: 150, Max: 151}},
			},
		},
	}
}

func TestTelemetryRoundTrip(t *testing.T) {
	m := sampleTelemetry()
	got, err := decodeTelemetry(m.encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip drifted:\ngot:  %+v\nwant: %+v", got, m)
	}
	// Empty batch (no spans, no stages) round-trips too.
	empty := telemetryMsg{JobID: 1, Seq: 1}
	ge, err := decodeTelemetry(empty.encode())
	if err != nil || ge.JobID != 1 || len(ge.Spans) != 0 || len(ge.Stages) != 0 {
		t.Fatalf("empty round trip: %+v %v", ge, err)
	}
}

// TestStageRowRoundTrip pins the stage record's wire form: what a rank
// ships is what the driver reads, every field, set or unset.
func TestStageRowRoundTrip(t *testing.T) {
	m := telemetryMsg{TelemetryBatch: TelemetryBatch{Stages: []obs.StageMetric{
		{ID: 5, Name: "stage: shuffle(join)",
			Start: time.Unix(12, 345), Wall: 90 * time.Millisecond,
			Tasks: 8, RecordsIn: 100, RecordsOut: 50, ShuffledBytes: 4096,
			Worker:      "w7",
			TaskDur:     obs.Dist{N: 8, Min: 1, P50: 5, P99: 80, Max: 90, ArgMax: 3},
			PartRecords: obs.Dist{N: 8, Min: 10, P50: 12, P99: 15, Max: 16, ArgMax: 1}},
		{ID: 6, Name: "stage: collect"}, // no Start: the zero time survives
	}}}
	got, err := decodeTelemetry(m.encode())
	if err != nil || !reflect.DeepEqual(got.Stages, m.Stages) {
		t.Fatalf("round trip drifted: %v\ngot:  %+v\nwant: %+v", err, got.Stages, m.Stages)
	}
}

func TestTelemetryTruncationSafe(t *testing.T) {
	m := sampleTelemetry()
	blob := m.encode()
	for cut := 0; cut < len(blob); cut++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("decode panicked at cut %d: %v", cut, r)
				}
			}()
			_, _ = decodeTelemetry(blob[:cut])
		}()
	}
	// Every proper prefix is short somewhere: a frame cut anywhere must
	// be an error, never a batch with zero-filled counters.
	for cut := 0; cut < len(blob); cut++ {
		if _, err := decodeTelemetry(blob[:cut]); err == nil {
			t.Fatalf("telemetry cut at %d of %d decoded without error", cut, len(blob))
		}
	}
	// A corrupt span count must not drive a giant allocation.
	var w wireBuf
	w.i64(1)       // job
	w.i64(1)       // seq
	w.i64(0)       // final
	w.i64(0)       // dropped
	w.u64(1 << 40) // absurd span count
	if _, err := decodeTelemetry(w.b); err == nil {
		t.Fatal("absurd span count decoded without error")
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
		if !tl.Received || !tl.Final {
			t.Fatalf("rank %d: telemetry received=%v final=%v", r, tl.Received, tl.Final)
		}
		if tl.DroppedSpans != int64(r) {
			t.Errorf("rank %d: dropped=%d, want %d", r, tl.DroppedSpans, r)
		}
		// Both flushes accumulated in order.
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
		// The rank's counters cross in its JobDone.
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
		if wr.Telemetry.Received {
			t.Fatalf("echo program never flushed, but rank %d has telemetry", wr.Rank)
		}
	}
	if res.MergedTrace() != nil {
		t.Fatal("merged trace should be nil when no rank flushed")
	}
}
