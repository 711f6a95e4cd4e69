// Package eventlog is the persistent third leg of the observability
// plane: one JSONL file per query recording what the planner chose and
// what the engine measured — the plan decision, every stage's
// execution record, worker losses, spill
// pressure, and the complete metrics snapshot. A log replays into the
// exact stage summary the live run printed (`sac history <file>`), so
// a slow query can be diagnosed after the fact, on another machine,
// with nothing but the file.
package eventlog

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataflow"
)

// Event kinds, in the order LogRun writes them.
const (
	KindQueryStart = "query.start"  // Query, Time
	KindPlan       = "plan"         // Plan (the chosen physical translation)
	KindStage      = "stage"        // Stage (one completed stage's record)
	KindWorkerLost = "worker.lost"  // Worker (a rank that died mid-job)
	KindSpill      = "spill"        // SpilledBytes/SpillFiles summary
	KindMetrics    = "metrics"      // Metrics (the full final snapshot)
	KindQueryEnd   = "query.finish" // WallNs, Result or Error
)

// Event is one JSONL record. Kind selects which payload fields are
// set; unknown kinds are preserved by Replay so the format can grow.
type Event struct {
	Time time.Time `json:"time"`
	Kind string    `json:"kind"`

	Query  string `json:"query,omitempty"`
	Plan   string `json:"plan,omitempty"`
	Result string `json:"result,omitempty"`
	Error  string `json:"error,omitempty"`
	Worker string `json:"worker,omitempty"`
	WallNs int64  `json:"wallNs,omitempty"`

	SpilledBytes int64 `json:"spilledBytes,omitempty"`
	SpillFiles   int64 `json:"spillFiles,omitempty"`

	Stage   *dataflow.StageMetric     `json:"stage,omitempty"`
	Metrics *dataflow.MetricsSnapshot `json:"metrics,omitempty"`
}

// Writer appends events to one query's log file.
type Writer struct {
	mu  sync.Mutex
	f   *os.File
	bw  *bufio.Writer
	enc *json.Encoder
}

// NewWriter creates (truncating) the log file at path, making parent
// directories as needed.
func NewWriter(path string) (*Writer, error) {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriter(f)
	return &Writer{f: f, bw: bw, enc: json.NewEncoder(bw)}, nil
}

// Emit appends one event, stamping Time if the caller left it zero.
func (w *Writer) Emit(e Event) error {
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.enc.Encode(e)
}

// Close flushes and closes the file.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.bw.Flush(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// FileName derives a log file name for the n-th query of a session
// started at t: deterministic within a session, unique across them.
func FileName(t time.Time, n int) string {
	return fmt.Sprintf("query-%s-%03d.jsonl", t.Format("20060102-150405"), n)
}

// LogRun writes one query's complete record: start, plan, per-stage
// rows, worker losses, spill pressure, the full
// metrics snapshot, and the finish marker. o is the run's outcome — its
// Metrics cover exactly the run, so the stage rows are the run's — or,
// with runErr set, as much of one as the caller has (a plan that
// compiled, the wall time before the failure).
func LogRun(w *Writer, query string, o *core.Outcome, runErr error) error {
	snap, wall := o.Metrics, o.Wall
	start := time.Now().Add(-wall)
	if err := w.Emit(Event{Time: start, Kind: KindQueryStart, Query: query}); err != nil {
		return err
	}
	if o.Plan != nil {
		if err := w.Emit(Event{Kind: KindPlan, Plan: o.Plan.Explain()}); err != nil {
			return err
		}
	}
	for i := range snap.PerStage {
		if err := w.Emit(Event{Kind: KindStage, Stage: &snap.PerStage[i]}); err != nil {
			return err
		}
	}
	for _, ws := range snap.PerWorker {
		if !ws.Lost {
			continue
		}
		if err := w.Emit(Event{Kind: KindWorkerLost, Worker: ws.ID}); err != nil {
			return err
		}
	}
	if snap.SpilledBytes > 0 || snap.SpillFiles > 0 {
		if err := w.Emit(Event{Kind: KindSpill,
			SpilledBytes: snap.SpilledBytes, SpillFiles: snap.SpillFiles}); err != nil {
			return err
		}
	}
	if err := w.Emit(Event{Kind: KindMetrics, Metrics: &snap}); err != nil {
		return err
	}
	end := Event{Kind: KindQueryEnd, WallNs: wall.Nanoseconds(), Result: o.Summary.Head()}
	if runErr != nil {
		end.Error = runErr.Error()
	}
	return w.Emit(end)
}

// Run is a replayed query log.
type Run struct {
	Query  string
	Plan   string
	Result string
	Error  string
	Wall   time.Duration
	// Stages holds the per-stage events in file order; Snapshot is the
	// embedded full snapshot (zero-valued if the log predates one or
	// was truncated before the metrics record).
	Stages   []dataflow.StageMetric
	Snapshot dataflow.MetricsSnapshot
	Losses   []string
	Events   []Event
}

// Replay parses a JSONL event stream back into a Run. Unknown kinds
// are kept in Events but otherwise ignored; a malformed line fails
// loudly with its line number.
func Replay(r io.Reader) (*Run, error) {
	run := &Run{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	line := 0
	for sc.Scan() {
		line++
		if len(strings.TrimSpace(sc.Text())) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("eventlog: line %d: %w", line, err)
		}
		run.Events = append(run.Events, e)
		switch e.Kind {
		case KindQueryStart:
			run.Query = e.Query
		case KindPlan:
			run.Plan = e.Plan
		case KindStage:
			if e.Stage != nil {
				run.Stages = append(run.Stages, *e.Stage)
			}
		case KindWorkerLost:
			run.Losses = append(run.Losses, e.Worker)
		case KindMetrics:
			if e.Metrics != nil {
				run.Snapshot = *e.Metrics
			}
		case KindQueryEnd:
			run.Wall = time.Duration(e.WallNs)
			run.Result = e.Result
			run.Error = e.Error
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(run.Events) == 0 {
		return nil, fmt.Errorf("eventlog: empty log")
	}
	return run, nil
}

// ReplayFile replays one log file.
func ReplayFile(path string) (*Run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Replay(f)
}

// Format renders the replayed run the way the live `-analyze` report
// printed it: query, plan, totals, and the stage table (straggler and
// skew warnings included — they derive from the snapshot). The stage
// table is byte-identical to the live run's FormatStages output.
func (r *Run) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "query: %s\n", r.Query)
	if r.Plan != "" {
		fmt.Fprintf(&b, "plan: %s\n", r.Plan)
	}
	if r.Error != "" {
		fmt.Fprintf(&b, "error: %s\n", r.Error)
	}
	if r.Result != "" {
		fmt.Fprintf(&b, "result: %s\n", r.Result)
	}
	if r.Wall > 0 {
		fmt.Fprintf(&b, "wall: %s\n", r.Wall.Round(time.Microsecond))
	}
	for _, w := range r.Losses {
		fmt.Fprintf(&b, "worker lost: %s\n", w)
	}
	fmt.Fprintf(&b, "totals: %s\n\nstages:\n", r.Snapshot)
	b.WriteString(r.Snapshot.FormatStages())
	return b.String()
}
