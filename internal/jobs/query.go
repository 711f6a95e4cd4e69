// Package jobs defines the SPMD job programs workers can run (see
// internal/cluster's registry): currently "sac.query", which compiles
// and executes one SAC comprehension against deterministically
// generated inputs. Queries travel as data — the DSL source plus the
// generator parameters — never as closures, so every worker binary
// that links this package can execute any driver's query.
package jobs

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/comp"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/plan"
	"repro/internal/spill"
)

// QueryName is the registered program executing one SAC query.
const QueryName = "sac.query"

// QueryParams is everything a worker needs to reproduce the driver's
// session: the query source and the deterministic input matrices A
// (n x n, seed SeedA), B (n x n, seed SeedB), plus the planner knobs
// that change the stage graph. Every rank must decode identical
// params or the SPMD graphs diverge.
type QueryParams struct {
	Src          string
	N            int64
	Tile         int64
	SeedA, SeedB int64
	Partitions   int64
	DisableGBJ   bool
	DisableRBK   bool
	// ShuffleCostNsPerByte simulates serialization/network time per
	// shuffled byte; the worker-kill e2e test uses it to hold queries
	// open long enough to lose a worker mid-shuffle.
	ShuffleCostNsPerByte float64
	// Trace asks every rank to record execution spans and stream them
	// to the driver, which merges them into one cluster-wide trace
	// (per-rank lanes). Stage rows and counter reports flow regardless;
	// Trace only controls span recording.
	Trace bool
	// TelemetryMs overrides the periodic telemetry flush interval in
	// milliseconds (0 uses the default).
	TelemetryMs int64
}

// Encode serializes the params for the job message.
func (p *QueryParams) Encode() []byte {
	var b []byte
	b = binary.AppendUvarint(b, uint64(len(p.Src)))
	b = append(b, p.Src...)
	b = binary.AppendVarint(b, p.N)
	b = binary.AppendVarint(b, p.Tile)
	b = binary.AppendVarint(b, p.SeedA)
	b = binary.AppendVarint(b, p.SeedB)
	b = binary.AppendVarint(b, p.Partitions)
	flags := int64(0)
	if p.DisableGBJ {
		flags |= 1
	}
	if p.DisableRBK {
		flags |= 2
	}
	if p.Trace {
		flags |= 4
	}
	b = binary.AppendVarint(b, flags)
	b = binary.AppendUvarint(b, math.Float64bits(p.ShuffleCostNsPerByte))
	b = binary.AppendVarint(b, p.TelemetryMs)
	return b
}

// DecodeQueryParams parses what Encode wrote, and nothing else: a
// truncated buffer, trailing bytes and flag bits Encode never sets are
// errors. The buffer arrives over the wire, and a rank that silently
// read zeros for a field the others decoded would build a different
// stage graph.
func DecodeQueryParams(b []byte) (QueryParams, error) {
	var p QueryParams
	truncated := false
	u := func() uint64 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			truncated, b = true, nil
			return 0
		}
		b = b[n:]
		return v
	}
	i := func() int64 {
		v, n := binary.Varint(b)
		if n <= 0 {
			truncated, b = true, nil
			return 0
		}
		b = b[n:]
		return v
	}
	srcLen := u()
	if uint64(len(b)) < srcLen {
		truncated, srcLen = true, 0
	}
	p.Src = string(b[:srcLen])
	b = b[srcLen:]
	p.N = i()
	p.Tile = i()
	p.SeedA = i()
	p.SeedB = i()
	p.Partitions = i()
	flags := i()
	p.DisableGBJ = flags&1 != 0
	p.DisableRBK = flags&2 != 0
	p.Trace = flags&4 != 0
	p.ShuffleCostNsPerByte = math.Float64frombits(u())
	p.TelemetryMs = i()
	switch {
	case truncated:
		return p, fmt.Errorf("jobs: truncated query params")
	case len(b) != 0:
		return p, fmt.Errorf("jobs: %d trailing bytes after query params", len(b))
	case flags&^7 != 0:
		return p, fmt.Errorf("jobs: unknown query flag bits %#x", flags&^7)
	case p.Src == "" || p.N <= 0 || p.Tile <= 0:
		return p, fmt.Errorf("jobs: invalid query params (src=%q n=%d tile=%d)", p.Src, p.N, p.Tile)
	}
	return p, nil
}

func init() {
	cluster.RegisterProgram(QueryName, func(env *cluster.JobEnv) ([]byte, cluster.Report, error) {
		p, err := DecodeQueryParams(env.Params)
		if err != nil {
			return nil, cluster.Report{}, err
		}
		var pump *telemetryPump
		if env.Telemetry != nil {
			pump = newTelemetryPump(env.Telemetry,
				time.Duration(p.TelemetryMs)*time.Millisecond, p.Trace)
		}
		blob, snap, err := runQuery(p, env.World, func(c *core.Config) {
			c.Parallelism = env.Parallelism
			c.MemoryBudget = env.MemoryBudget
			c.Transport = env.Exchange
			c.WorkerTag = env.WorkerTag
		}, env.Resident, pump)
		return blob, snap.CounterSet, err
	})
}

// sessionConfig is the core.Config a session for these params is built
// from: every rank's, and the driver-side planner's, which is how a plan
// preview names the grid the ranks run on.
func (p QueryParams) sessionConfig(world int) core.Config {
	if p.Partitions <= 0 {
		p.Partitions = int64(DefaultPartitions(world))
	}
	return core.Config{
		TileSize:             int(p.Tile),
		Partitions:           int(p.Partitions),
		ShuffleCostNsPerByte: p.ShuffleCostNsPerByte,
		Optimizations: opt.Options{
			DisableGBJ:         p.DisableGBJ,
			DisableReduceByKey: p.DisableRBK,
		},
	}
}

// runQuery builds a fresh session from the params (plus caller
// overrides), binds the canonical inputs — over the partitions resident
// keeps, or regenerated from their seeds when it is nil — executes the
// query, and serializes the result. The metrics snapshot is taken after
// serialization: results materialize lazily (EncodeResult's Collect
// drives the final stages), so an earlier snapshot would miss most of
// the work.
func runQuery(p QueryParams, world int, override func(*core.Config), resident *cluster.Resident, pump *telemetryPump) ([]byte, dataflow.MetricsSnapshot, error) {
	conf := p.sessionConfig(world)
	if override != nil {
		override(&conf)
	}
	s := core.NewSession(conf)
	defer s.Close()
	if pump != nil {
		// finish runs before Close (LIFO), so the final flush still
		// sees the session's metrics; the worker runtime sends it
		// ahead of the job reply.
		pump.attach(s, conf.WorkerTag, p.Src)
		defer pump.finish()
	}
	// The session, its context, stage IDs, metrics and plan are this
	// job's; only the input tiles outlive it (DESIGN §10).
	metrics := s.Metrics
	if resident == nil {
		registerInputs(s, p)
	} else {
		var reads obs.LiveCounters
		kept := residentFor(resident, p, s)
		kept.bind(s, p, &reads)
		metrics = func() dataflow.MetricsSnapshot {
			reads.ResidentBytes.Store(kept.bytes.Load())
			reads.Publish()
			snap := s.Metrics()
			snap.CounterSet = obs.MergeCounters(snap.CounterSet, reads.Snapshot())
			return snap
		}
	}
	res, err := s.Query(p.Src)
	if err != nil {
		return nil, metrics(), err
	}
	blob, err := EncodeResult(res)
	return blob, metrics(), err
}

// RunQueryLocal executes the same program on the plain local backend,
// its inputs regenerated from their seeds — the independent reference the
// distributed runtime's results are byte-compared against in tests and
// EXPERIMENTS.md.
func RunQueryLocal(p QueryParams) ([]byte, error) {
	blob, _, err := runQuery(p, 1, nil, nil, nil)
	return blob, err
}

// DefaultPartitions derives the fallback partition count from the
// cluster world size: four partitions per rank so each owns several
// waves of tasks, floored at the historical single-process default of
// 8 (world <= 2 collapses to it, so local reference runs are byte-for-
// byte unchanged).
//
// Invariant: this must be a pure function of the WORLD SIZE only —
// never of per-rank properties like core count, -parallelism, or load.
// The partition count shapes the stage graph, and SPMD correctness
// requires every rank to build the byte-identical graph; rank-local
// inputs here would make the ranks' shuffles disagree silently.
// Everything a plan derives from it inherits the property: the
// group-by-join's processor grid is stats.PickGrid of block counts and
// this partition count, so it is the same on every rank and runs on
// the cluster as it does locally. Statistics-driven partition counts
// (stats.PickPartitions) and bucket rebalancing read core counts and
// runtime load, and stay local-mode-only for that reason:
// core.Config.AdaptiveShuffle is never set on cluster sessions.
func DefaultPartitions(world int) int {
	if p := 4 * world; p > 8 {
		return p
	}
	return 8
}

// Result-blob kinds. The encoding is canonical so the driver can
// byte-compare ranks: matrices and vectors serialize their dense
// float64 bits in row-major order, lists and scalars their rendered
// text.
const (
	kindMatrix = 'M'
	kindVector = 'V'
	kindList   = 'L'
	kindScalar = 'S'
)

// EncodeResult canonically serializes a query result. A matrix or vector
// blob is allocated once at its final size and each collected tile's rows
// are converted into it at their offsets; cells no tile covers stay zero,
// as they do in ToDense.
func EncodeResult(res *plan.Result) ([]byte, error) {
	switch res.Kind() {
	case "matrix":
		m := res.Matrix
		blob, body := denseBlob(kindMatrix, m.Rows, m.Cols)
		n := int64(m.N)
		for _, t := range dataflow.Collect(m.Tiles) {
			top, left := t.Key.I*n, t.Key.J*n
			h, w := min(n, m.Rows-top), min(n, m.Cols-left)
			if w <= 0 {
				continue
			}
			tile := t.Value
			for i := int64(0); i < h; i++ {
				spill.PutF64s(body[8*((top+i)*m.Cols+left):], tile.Data[int(i)*tile.Cols:][:w])
			}
		}
		return blob, nil
	case "vector":
		v := res.Vector
		blob, body := denseBlob(kindVector, v.Size)
		n := int64(v.N)
		for _, b := range dataflow.Collect(v.Blocks) {
			if h := min(n, v.Size-b.Key*n); h > 0 {
				spill.PutF64s(body[8*b.Key*n:], b.Value.Data[:h])
			}
		}
		return blob, nil
	case "list":
		var sb strings.Builder
		for _, row := range res.List {
			sb.WriteString(comp.Render(row))
			sb.WriteByte('\n')
		}
		return append([]byte{kindList}, sb.String()...), nil
	default:
		return append([]byte{kindScalar}, comp.Render(res.Scalar)...), nil
	}
}

// denseBlob allocates a matrix or vector blob — the kind byte, one varint
// per dimension, then 8 zero bytes per cell — and returns it with its
// cell area.
func denseBlob(kind byte, dims ...int64) (blob, body []byte) {
	cells := int64(1)
	for _, d := range dims {
		cells *= d
	}
	blob = make([]byte, 1, 1+len(dims)*binary.MaxVarintLen64+int(8*cells))
	blob[0] = kind
	for _, d := range dims {
		blob = binary.AppendVarint(blob, d)
	}
	blob = blob[:len(blob)+int(8*cells)]
	return blob, blob[len(blob)-int(8*cells):]
}

// SummarizeBlob describes a result blob as core.Summarize describes the
// result it was encoded from, field for field. The blob may come from a
// worker's reply, so one whose header does not parse or does not match
// its length is described (kind "malformed"), not indexed.
func SummarizeBlob(blob []byte) core.Summary {
	malformed := func(format string, args ...any) core.Summary {
		return core.Summary{Kind: "malformed", Text: fmt.Sprintf(format, args...)}
	}
	if len(blob) == 0 {
		return malformed("empty result")
	}
	kind, body := blob[0], blob[1:]
	switch kind {
	case kindMatrix:
		dims, cells, ok := denseHeader(body, 2)
		if !ok {
			return malformed("malformed result (matrix header in %d bytes)", len(blob))
		}
		return core.MatrixSummary(linalg.NewDenseFrom(int(dims[0]), int(dims[1]), f64s(cells)))
	case kindVector:
		_, cells, ok := denseHeader(body, 1)
		if !ok {
			return malformed("malformed result (vector header in %d bytes)", len(blob))
		}
		return core.VectorSummary(linalg.NewVectorFrom(f64s(cells)))
	case kindList:
		text := string(body)
		head := strings.SplitN(text, "\n", core.ListPreview+1)
		return core.ListSummary(strings.Count(text, "\n"), func(i int) string { return head[i] })
	case kindScalar:
		return core.Summary{Kind: "scalar", Text: string(body)}
	default:
		return malformed("unknown result kind %q (%d bytes)", kind, len(blob))
	}
}

// denseHeader parses the n dimensions denseBlob wrote and returns them
// with the cell area; ok is false when a varint is cut short or
// overflows, a dimension is negative, or the cells are not exactly the
// dimensions' product.
func denseHeader(body []byte, n int) (dims []int64, cells []byte, ok bool) {
	want := uint64(8)
	for i := 0; i < n; i++ {
		d, k := binary.Varint(body)
		if k <= 0 || d < 0 || (d > 0 && want > uint64(len(body))/uint64(d)) {
			return nil, nil, false
		}
		dims, body, want = append(dims, d), body[k:], want*uint64(d)
	}
	return dims, body, uint64(len(body)) == want
}

func f64s(cells []byte) []float64 {
	vs := make([]float64, len(cells)/8)
	spill.GetF64s(vs, cells)
	return vs
}
