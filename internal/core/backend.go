package core

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/comp"
	"repro/internal/dataflow"
	"repro/internal/linalg"
	"repro/internal/plan"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Backend is one way to run a query: *Session executes in this process,
// jobs.ClusterSession on a worker cluster. A front end picks one where
// it is constructed and holds only this afterwards; everything it shows
// a user — the plan preview, the footprint estimate, the result, the
// metrics, the EXPLAIN ANALYZE report — comes through these four calls.
type Backend interface {
	// Compile plans src against the catalog the backend executes on, so
	// Explain and EstimateFootprintBytes describe what Run will do.
	Compile(src string) (*plan.Compiled, error)
	// Run executes a plan Compile returned for src (callers that cache
	// plans pass any source with the same canonical key), forcing lazy
	// results, and records the measured profile in the backend's stats
	// cache; traced also records the span tree. The Outcome is never
	// nil: beside an error it holds the plan and what was measured
	// before the failure, which is what an event log keeps of it.
	Run(q *plan.Compiled, src string, traced bool) (*Outcome, error)
	// Metrics is what a debug endpoint shows between runs: the last run
	// finished. A local session starts it over when Run does and shows
	// that run's stages as they complete.
	Metrics() dataflow.MetricsSnapshot
	Close() error
}

// Outcome is one run: finished, or as far as it got (see Backend.Run).
type Outcome struct {
	Plan    *plan.Compiled
	Summary Summary
	// Metrics covers exactly this run: every stage it forced, and on a
	// cluster the ranks' merged stage table and per-worker rows.
	Metrics dataflow.MetricsSnapshot
	// Trace is nil unless the run was traced; on a cluster it has one
	// lane per rank.
	Trace *trace.Tracer
	Wall  time.Duration
}

// Report renders the run as EXPLAIN ANALYZE: the chosen plan (carrying
// the observation this run just recorded), the result, the totals, the
// stage table with its skew and straggler warnings and per-worker rows,
// and the span tree of a traced run. The totals name this process's GEMM
// micro-kernel; on a cluster each rank names its own on its kernel
// spans.
func (o *Outcome) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan: %s\nresult: %s\n", o.Plan.Explain(), o.Summary.Head())
	fmt.Fprintf(&b, "totals: %s kernel=%s\n\nstages:\n", o.Metrics, linalg.KernelName())
	b.WriteString(o.Metrics.FormatStages())
	if o.Trace != nil {
		b.WriteString("\ntrace:\n")
		b.WriteString(o.Trace.Tree())
	}
	return b.String()
}

var _ Backend = (*Session)(nil)

// Run implements Backend on the local engine.
func (s *Session) Run(q *plan.Compiled, _ string, traced bool) (*Outcome, error) {
	s.ctx.ResetMetrics()
	start := time.Now()
	res, tr, err := q.Force(traced)
	out := &Outcome{Plan: q, Metrics: s.ctx.Metrics(), Trace: tr, Wall: time.Since(start)}
	if err != nil {
		return out, err
	}
	q.NoteObserved(stats.FromSnapshot(out.Metrics, out.Wall.Nanoseconds()))
	out.Summary = Summarize(res)
	return out, nil
}

// Summary describes a result the same way wherever it was computed:
// shape, the row-major sum of the dense values, and the values
// themselves when there are few. It is the "result" object of the query
// server's replies.
type Summary struct {
	Kind   string      `json:"kind"` // matrix, vector, list, scalar; malformed for a result blob that did not decode
	Rows   int64       `json:"rows,omitempty"`
	Cols   int64       `json:"cols,omitempty"`
	Size   int64       `json:"size,omitempty"` // vector length, list rows
	Sum    float64     `json:"sum,omitempty"`
	Values [][]float64 `json:"values,omitempty"` // a matrix up to 8x8 by rows, a vector up to 16 as one row
	Text   string      `json:"text,omitempty"`   // the scalar, the first ListPreview list rows, or what was wrong with a blob
}

// ListPreview is how many rows of a list a Summary quotes.
const ListPreview = 10

// Summarize forces res once more (Run persisted it) and describes it.
func Summarize(res *plan.Result) Summary {
	switch res.Kind() {
	case "matrix":
		return MatrixSummary(res.Matrix.ToDense())
	case "vector":
		return VectorSummary(res.Vector.ToDense())
	case "list":
		return ListSummary(len(res.List), func(i int) string { return comp.Render(res.List[i]) })
	default:
		return Summary{Kind: "scalar", Text: comp.Render(res.Scalar)}
	}
}

// MatrixSummary describes a dense matrix.
func MatrixSummary(d *linalg.Dense) Summary {
	s := Summary{Kind: "matrix", Rows: int64(d.Rows), Cols: int64(d.Cols), Sum: d.Sum()}
	for i := 0; i < d.Rows && d.Rows <= 8 && d.Cols <= 8; i++ {
		s.Values = append(s.Values, d.Data[i*d.Cols:][:d.Cols])
	}
	return s
}

// VectorSummary describes a dense vector.
func VectorSummary(v *linalg.Vector) Summary {
	s := Summary{Kind: "vector", Size: int64(v.Len()), Sum: v.Sum()}
	if v.Len() <= 16 {
		s.Values = [][]float64{v.Data}
	}
	return s
}

// ListSummary describes a list of n rows; row renders the i-th, and is
// asked for the first ListPreview at most.
func ListSummary(n int, row func(i int) string) Summary {
	var b strings.Builder
	for i := 0; i < n; i++ {
		if i == ListPreview {
			b.WriteString("...\n")
			break
		}
		b.WriteString(row(i))
		b.WriteByte('\n')
	}
	return Summary{Kind: "list", Size: int64(n), Text: b.String()}
}

// Head is the one line sac prints after "result:" and the event log
// keeps.
func (s Summary) Head() string {
	switch s.Kind {
	case "matrix":
		return fmt.Sprintf("%dx%d tiled matrix (sum=%.4g)", s.Rows, s.Cols, s.Sum)
	case "vector":
		return fmt.Sprintf("block vector of %d (sum=%.4g)", s.Size, s.Sum)
	case "list":
		return fmt.Sprintf("list of %d rows", s.Size)
	default:
		return s.Text
	}
}

// String is Head followed by the inlined values or the list preview.
func (s Summary) String() string {
	out := s.Head()
	switch {
	case s.Kind == "matrix" && s.Values != nil:
		d := linalg.NewDense(int(s.Rows), int(s.Cols))
		for i, row := range s.Values {
			copy(d.Data[i*d.Cols:], row)
		}
		out += "\n" + d.String()
	case s.Kind == "vector" && s.Values != nil:
		out += "\n" + fmt.Sprint(s.Values[0])
	case s.Kind == "list" && s.Text != "":
		out += "\n  " + strings.ReplaceAll(strings.TrimSuffix(s.Text, "\n"), "\n", "\n  ")
	}
	return out
}
