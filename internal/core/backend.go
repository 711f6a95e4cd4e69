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
	"repro/internal/tiled"
	"repro/internal/trace"
)

// Backend is one way to run a query: *Session executes in this process,
// jobs.ClusterSession on a worker cluster. A front end picks one where
// it is constructed and holds only this afterwards; everything it shows
// a user — the plan preview, the footprint estimate, the result, the
// metrics, the EXPLAIN ANALYZE report (Outcome.Record) — comes through
// these four calls.
type Backend interface {
	// Compile plans src against the catalog the backend executes on, so
	// Explain and EstimateFootprintBytes describe what Run will do.
	Compile(src string) (*plan.Compiled, error)
	// Run executes a plan Compile returned for src (callers that cache
	// plans pass any source with the same canonical key), forcing lazy
	// results, and records the run's measured profile on the plan it ran
	// (plan.Compiled.NoteObserved); traced also records the span tree.
	// The Outcome is never nil: beside an error it holds the plan and
	// what was measured before the failure, which is what its Record
	// keeps of it.
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

// Record is what a run leaves behind: one value that `sac -analyze`
// prints, `sac -eventlog` writes as one JSON object and `sac history`
// reads back and prints, so the live report and the replayed one are one
// function of one value. Unknown keys are ignored on decoding, so a
// record written by an older or newer build still reads.
type Record struct {
	Query  string `json:"query"`
	Plan   string `json:"plan,omitempty"` // empty when the query did not compile
	Result string `json:"result,omitempty"`
	Error  string `json:"error,omitempty"`
	WallNs int64  `json:"wallNs"`
	// Kernel is the recording process's GEMM micro-kernel set; on a
	// cluster each rank names its own on its kernel spans.
	Kernel  string                   `json:"kernel"`
	Metrics dataflow.MetricsSnapshot `json:"metrics"`
	// Spans is the run's trace as Export gives it (a cluster run's holds
	// one synthetic root per rank), empty when the run was not traced.
	Spans        []trace.SpanRec `json:"spans,omitempty"`
	DroppedSpans int64           `json:"droppedSpans,omitempty"`
}

// Record describes the run of src; err is the error Run returned
// beside o, or the compile error of a query that never ran.
func (o *Outcome) Record(src string, err error) *Record {
	r := &Record{Query: src, Result: o.Summary.Head(), WallNs: o.Wall.Nanoseconds(),
		Kernel: linalg.KernelName(), Metrics: o.Metrics}
	if o.Plan != nil {
		r.Plan = o.Plan.Explain()
	}
	if err != nil {
		r.Error = err.Error()
	}
	r.Spans, r.DroppedSpans = o.Trace.Export()
	return r
}

// Trace rebuilds the run's span tree, or is nil for an untraced run.
func (r *Record) Trace() *trace.Tracer {
	if len(r.Spans) == 0 && r.DroppedSpans == 0 {
		return nil
	}
	return trace.Replay(r.Spans, r.DroppedSpans)
}

// Report renders the record as EXPLAIN ANALYZE: the query, the chosen
// plan (carrying the observation the run recorded), the result or the
// error, the wall time, the totals, the stage table with its skew and
// straggler warnings and per-worker rows, and the span tree of a traced
// run.
func (r *Record) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "query: %s\n", r.Query)
	if r.Plan != "" {
		fmt.Fprintf(&b, "plan: %s\n", r.Plan)
	}
	if r.Error != "" {
		fmt.Fprintf(&b, "error: %s\n", r.Error)
	} else {
		fmt.Fprintf(&b, "result: %s\n", r.Result)
	}
	fmt.Fprintf(&b, "wall: %s\n", time.Duration(r.WallNs).Round(time.Microsecond))
	fmt.Fprintf(&b, "totals: %s kernel=%s\n\nstages:\n", r.Metrics, r.Kernel)
	b.WriteString(r.Metrics.FormatStages())
	if tr := r.Trace(); tr != nil {
		b.WriteString("\ntrace:\n")
		b.WriteString(tr.Tree())
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

// Summarize describes res. A result Force returned is described from
// the tiles its one action collected; a lazy one (Execute's) is
// collected here, which runs its stages.
func Summarize(res *plan.Result) Summary {
	switch res.Kind() {
	case "matrix":
		tiles := res.Tiles
		if tiles == nil {
			tiles = dataflow.Collect(res.Matrix.Tiles)
		}
		return matrixSummary(res.Matrix, tiles)
	case "vector":
		blocks := res.Blocks
		if blocks == nil {
			blocks = dataflow.Collect(res.Vector.Blocks)
		}
		return vectorSummary(res.Vector, blocks)
	case "list":
		return ListSummary(len(res.List), func(i int) string { return comp.Render(res.List[i]) })
	default:
		return Summary{Kind: "scalar", Text: comp.Render(res.Scalar)}
	}
}

// matrixSummary describes m from its collected tiles, walking them row
// by row across the tile grid, so the sum adds the cells in the order
// the dense matrix holds them. As in tiled.Matrix.ToDense, cells no tile
// covers are zero, a tile outside the matrix is dropped and of two
// tiles at one key the later counts.
func matrixSummary(m *tiled.Matrix, tiles []tiled.Block) Summary {
	n := int64(m.N)
	tr, tc := m.BlockRows(), m.BlockCols()
	grid := make([]*linalg.Dense, tr*tc)
	for _, b := range tiles {
		if i, j := b.Key.I, b.Key.J; i >= 0 && i < tr && j >= 0 && j < tc {
			grid[i*tc+j] = b.Value
		}
	}
	d := NewMatrixSummary(m.Rows, m.Cols)
	for i := int64(0); i < m.Rows; i++ {
		row, r := grid[i/n*tc:][:tc], int(i%n)
		for j, t := range row {
			w := min(n, m.Cols-int64(j)*n)
			if t == nil {
				d.zeros(w)
			} else {
				d.Cells(t.Data[r*t.Cols:][:w])
			}
		}
	}
	return d.Summary()
}

// vectorSummary is matrixSummary for a block vector.
func vectorSummary(v *tiled.Vector, blocks []tiled.VBlock) Summary {
	n := int64(v.N)
	grid := make([]*linalg.Vector, (v.Size+n-1)/n)
	for _, b := range blocks {
		if b.Key >= 0 && b.Key < int64(len(grid)) {
			grid[b.Key] = b.Value
		}
	}
	d := NewVectorSummary(v.Size)
	for k, b := range grid {
		if w := min(n, v.Size-int64(k)*n); b == nil {
			d.zeros(w)
		} else {
			d.Cells(b.Data[:w])
		}
	}
	return d.Summary()
}

// DenseSummary builds the Summary of a matrix or a vector from its cells
// fed in row-major order — from a result's tiles (Summarize) or from a
// result blob's bytes (jobs.SummarizeBlob) — so both describe one result
// bit for bit. The sum adds the cells in that order from +0; a zero cell
// leaves it as it is (it is never -0), which is what lets zeros skip the
// cells no tile covers.
type DenseSummary struct {
	s    Summary
	vals []float64 // the inlined values, row-major; nil when there are too many
	at   int64     // cells fed so far
}

// NewMatrixSummary starts the summary of a rows x cols matrix, whose
// values are inlined up to 8x8.
func NewMatrixSummary(rows, cols int64) *DenseSummary {
	d := &DenseSummary{s: Summary{Kind: "matrix", Rows: rows, Cols: cols}}
	if rows <= 8 && cols <= 8 {
		d.vals = make([]float64, rows*cols)
		for i := int64(0); i < rows; i++ {
			d.s.Values = append(d.s.Values, d.vals[i*cols:][:cols])
		}
	}
	return d
}

// NewVectorSummary starts the summary of a vector of size cells, whose
// values are inlined up to 16.
func NewVectorSummary(size int64) *DenseSummary {
	d := &DenseSummary{s: Summary{Kind: "vector", Size: size}}
	if size <= 16 {
		d.vals = make([]float64, size)
		d.s.Values = [][]float64{d.vals}
	}
	return d
}

// Cells feeds the next cells.
func (d *DenseSummary) Cells(xs []float64) {
	sum := d.s.Sum
	for _, x := range xs {
		sum += x
	}
	d.s.Sum = sum
	if d.vals != nil {
		copy(d.vals[d.at:], xs)
	}
	d.at += int64(len(xs))
}

// zeros feeds n zero cells.
func (d *DenseSummary) zeros(n int64) { d.at += n }

// Summary is the finished description.
func (d *DenseSummary) Summary() Summary { return d.s }

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

// Head is the one line sac prints after "result:" and a Record keeps.
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
