// Package jobs defines the SPMD job programs workers can run (see
// internal/cluster's registry): currently "sac.query", which compiles
// and executes one SAC comprehension against deterministically
// generated inputs. Queries travel as data — the DSL source plus the
// generator parameters — never as closures, so every worker binary
// that links this package can execute any driver's query.
//
// A result goes back as data too, once: a rank replies with the
// partitions of a matrix or vector it owns (EncodeResult's piece) and
// the driver assembles the canonical blob as the pieces arrive
// (resultMerger, the program's cluster.Merge) — the bytes RunQueryLocal
// produces. Lists and scalars, which every rank holds, are replied whole
// and compared.
package jobs

import (
	"encoding/binary"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/trace"
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
	// Trace asks every rank to record execution spans and send them in
	// its job reply; the driver merges them into one cluster-wide trace
	// (per-rank lanes). Stage rows and counter reports cross regardless;
	// Trace only controls span recording.
	Trace bool
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
	return binary.AppendVarint(b, flags)
}

// DecodeQueryParams parses what Encode wrote, and nothing else: a
// truncated buffer, a padded varint, trailing bytes and flag bits Encode
// never sets are errors. The buffer arrives over the wire, and a rank
// that silently read zeros for a field the others decoded would build a
// different stage graph.
func DecodeQueryParams(b []byte) (QueryParams, error) {
	var p QueryParams
	malformed := false
	u := func() uint64 {
		v, n := binary.Uvarint(b)
		if n <= 0 || n > 1 && b[n-1] == 0 {
			malformed, b = true, nil
			return 0
		}
		b = b[n:]
		return v
	}
	i := func() int64 {
		v := u()
		return int64(v>>1) ^ -int64(v&1)
	}
	srcLen := u()
	if uint64(len(b)) < srcLen {
		malformed, srcLen = true, 0
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
	switch {
	case malformed:
		return p, fmt.Errorf("jobs: truncated or malformed query params")
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
	cluster.RegisterProgram(QueryName, queryProgram)
	cluster.RegisterMerge(QueryName, newResultMerger)
}

// queryProgram is one rank of "sac.query". Its reply is EncodeResult's:
// this rank's piece of a matrix or vector result, or the whole of a list
// or scalar, which resultMerger makes the canonical blob of on the
// driver. A piece is written to the driver's connection straight from the
// result tiles (JobEnv.Reply).
func queryProgram(env *cluster.JobEnv) ([]byte, cluster.Report, error) {
	reply, rep, err := queryReply(env)
	return replyWith(env, reply), rep, err
}

// queryReply runs the query of env's params on this rank and returns its
// reply.
func queryReply(env *cluster.JobEnv) (encoded, cluster.Report, error) {
	p, err := DecodeQueryParams(env.Params)
	if err != nil {
		return encoded{}, cluster.Report{}, err
	}
	var tr *trace.Tracer
	if p.Trace {
		tr = trace.New()
	}
	reply, snap, err := runQuery(p, env.World, func(c *core.Config) {
		c.Parallelism = env.Parallelism
		c.MemoryBudget = env.MemoryBudget
		c.Transport = env.Exchange
		c.WorkerTag = env.WorkerTag
	}, env.Resident, tr)
	spans, dropped := tr.Export()
	env.Observe(snap.PerStage, spans, dropped)
	return reply, snap.CounterSet, err
}

// sessionConfig is the core.Config a session for these params is built
// from: every rank's, and the driver-side planner's, which is how a plan
// preview names the grid the ranks run on.
func (p QueryParams) sessionConfig(world int) core.Config {
	if p.Partitions <= 0 {
		p.Partitions = int64(DefaultPartitions(world))
	}
	return core.Config{
		TileSize:   int(p.Tile),
		Partitions: int(p.Partitions),
		Optimizations: opt.Options{
			DisableGBJ:         p.DisableGBJ,
			DisableReduceByKey: p.DisableRBK,
		},
	}
}

// runQuery builds a fresh session from the params (plus caller
// overrides), binds the canonical inputs — over the partitions resident
// keeps, or regenerated from their seeds when it is nil — executes the
// query, and serializes the result (encodeResult: the whole of it on a
// local session, this rank's piece on a cluster, as its writer). The
// metrics snapshot is taken after serialization: results materialize
// lazily (encodeResult's collect drives the final stages), so an earlier
// snapshot would miss most of the work. With a tracer, the engine records
// its spans into it under a "query" root, which has ended by the time
// runQuery returns.
func runQuery(p QueryParams, world int, override func(*core.Config), resident *cluster.Resident, tr *trace.Tracer) (encoded, dataflow.MetricsSnapshot, error) {
	conf := p.sessionConfig(world)
	if override != nil {
		override(&conf)
	}
	s := core.NewSession(conf)
	defer s.Close()
	if tr != nil {
		s.Engine().SetTracer(tr) // tags every span with the worker, the root too
		root := tr.Start(nil, "query")
		root.SetAttr("src", p.Src)
		s.Engine().SetTraceRoot(root)
		defer root.End()
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
			reads.ResidentBytes.Store(kept.bytes())
			reads.Publish()
			snap := s.Metrics()
			snap.CounterSet = obs.MergeCounters(snap.CounterSet, reads.Snapshot())
			return snap
		}
	}
	res, err := s.Query(p.Src)
	if err != nil {
		return encoded{}, metrics(), err
	}
	reply, err := encodeResult(res)
	return reply, metrics(), err
}

// RunQueryLocal executes the same program on the plain local backend,
// its inputs regenerated from their seeds — the independent reference the
// distributed runtime's results are byte-compared against in tests and
// EXPERIMENTS.md.
func RunQueryLocal(p QueryParams) ([]byte, error) {
	reply, _, err := runQuery(p, 1, nil, nil, nil)
	return reply.blob, err
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
// group-by-join's processor grid is stats.PickGrid of block counts, this
// partition count and the world — one cell per rank, cell c on
// partition c, which rank c owns — so it is the same on every rank and
// on the driver's planner. No plan reads a core count or load.
func DefaultPartitions(world int) int {
	if p := 4 * world; p > 8 {
		return p
	}
	return 8
}
