// Package core is the public API of the SAC reproduction: a session
// that owns a dataflow engine context, a catalog of named distributed
// arrays, and Query/Explain entry points that run the full pipeline —
// parse, desugar, strategy selection (Rules 13/15/17/19 and the
// Section 5.4 group-by-join), and execution on the dataflow engine —
// and Backend (backend.go), the one interface front ends run a query
// through whether it executes here or on a worker cluster.
//
// A minimal program:
//
//	s := core.NewSession(core.Config{})
//	s.RegisterRandMatrix("M", 1000, 1000, 0, 10, 1)
//	res, err := s.Query("tiledvec(1000)[ (i, +/m) | ((i,j),m) <- M, group by i ]")
package core

import (
	"fmt"

	"repro/internal/comp"
	"repro/internal/dataflow"
	"repro/internal/diablo"
	"repro/internal/linalg"
	"repro/internal/opt"
	"repro/internal/plan"
	"repro/internal/sacparser"
	"repro/internal/tiled"
)

// Config selects the engine and tiling parameters.
type Config struct {
	// Parallelism is the concurrent task count (default: GOMAXPROCS).
	Parallelism int
	// Partitions is the default dataset partition count.
	Partitions int
	// TileSize is the block dimension N for registered arrays
	// (default 100; the paper used 1000 on a cluster).
	TileSize int
	// Optimizations can disable individual paper optimizations for
	// ablation studies; the zero value enables everything.
	Optimizations opt.Options
	// MemoryBudget bounds tracked engine memory (shuffle buckets and
	// Persist caches); work beyond it spills to disk. <= 0 disables
	// the budget. The SAC_MEMORY_BUDGET environment variable supplies
	// it when callers use memory.BudgetFromEnv.
	MemoryBudget int64
	// SpillDir overrides where spill run files are written (default: a
	// fresh directory under os.TempDir, removed on Close).
	SpillDir string
	// Transport, when non-nil, makes this session one rank of a
	// multi-process SPMD cluster: it runs the tasks it owns and
	// exchanges shuffle buckets with its peers through the transport
	// (see dataflow.Config.Transport and internal/cluster). nil is
	// unchanged local execution.
	Transport dataflow.Transport
	// WorkerTag names this process in distributed diagnostics (span
	// attributes, per-worker metric rows).
	WorkerTag string
}

// Session is the top-level handle; safe for sequential use.
type Session struct {
	conf Config
	ctx  *dataflow.Context
	cat  *plan.Catalog
}

// NewSession creates a session with its own engine context.
func NewSession(conf Config) *Session {
	if conf.TileSize <= 0 {
		conf.TileSize = 100
	}
	ctx := dataflow.NewContext(dataflow.Config{
		Parallelism:       conf.Parallelism,
		DefaultPartitions: conf.Partitions,
		MemoryBudget:      conf.MemoryBudget,
		SpillDir:          conf.SpillDir,
		Transport:         conf.Transport,
		WorkerTag:         conf.WorkerTag,
	})
	return &Session{conf: conf, ctx: ctx, cat: plan.NewCatalog(ctx)}
}

// PlanFor makes Compile and Explain plan for a cluster of world ranks
// this session is not one of: the planner a cluster driver keeps, whose
// plan preview names the grid the ranks run (plan.Catalog.SetWorld).
// Its own Query still runs locally, on the local grid.
func (s *Session) PlanFor(world int) { s.cat.SetWorld(world) }

// Close releases session resources (spill files, if any). Queries must
// not run after Close.
func (s *Session) Close() error { return s.ctx.Close() }

// Engine exposes the underlying dataflow context (metrics, etc.).
func (s *Session) Engine() *dataflow.Context { return s.ctx }

// TileSize returns the session's block dimension.
func (s *Session) TileSize() int { return s.conf.TileSize }

// RegisterMatrix binds an existing tiled matrix.
func (s *Session) RegisterMatrix(name string, m *tiled.Matrix) {
	s.cat.BindMatrix(name, m)
}

// RegisterDense tiles and distributes a driver-side dense matrix.
func (s *Session) RegisterDense(name string, d *linalg.Dense) *tiled.Matrix {
	m := tiled.FromDense(s.ctx, d, s.conf.TileSize, 0)
	s.cat.BindMatrix(name, m)
	return m
}

// RegisterRandMatrix creates and binds a rows x cols matrix with
// uniform values in [lo, hi), generated distributedly from seed.
func (s *Session) RegisterRandMatrix(name string, rows, cols int64, lo, hi float64, seed int64) *tiled.Matrix {
	m := tiled.RandMatrix(s.ctx, rows, cols, s.conf.TileSize, 0, lo, hi, seed)
	s.cat.BindMatrix(name, m)
	return m
}

// RegisterScalar binds a scalar constant usable in queries (e.g.
// dimensions).
func (s *Session) RegisterScalar(name string, v comp.Value) {
	s.cat.BindScalar(name, v)
}

// Compile parses and plans a query without running it.
func (s *Session) Compile(src string) (*plan.Compiled, error) {
	e, err := sacparser.Parse(src)
	if err != nil {
		return nil, err
	}
	return plan.Compile(e, s.cat, s.conf.Optimizations)
}

// Query parses, plans, and executes a SAC query. Tiled results are
// lazy: stages run at the result's first action. Run forces the result,
// measures it and records the run on the plan it ran.
func (s *Session) Query(src string) (*plan.Result, error) {
	q, err := s.Compile(src)
	if err != nil {
		return nil, err
	}
	return q.Execute()
}

// QueryMatrix runs a query that must produce a tiled matrix.
func (s *Session) QueryMatrix(src string) (*tiled.Matrix, error) {
	res, err := s.Query(src)
	if err != nil {
		return nil, err
	}
	if res.Matrix == nil {
		return nil, fmt.Errorf("core: query produced a %s, not a matrix", res.Kind())
	}
	return res.Matrix, nil
}

// QueryVector runs a query that must produce a tiled vector.
func (s *Session) QueryVector(src string) (*tiled.Vector, error) {
	res, err := s.Query(src)
	if err != nil {
		return nil, err
	}
	if res.Vector == nil {
		return nil, fmt.Errorf("core: query produced a %s, not a vector", res.Kind())
	}
	return res.Vector, nil
}

// Explain returns the chosen physical translation of a query.
func (s *Session) Explain(src string) (string, error) {
	q, err := s.Compile(src)
	if err != nil {
		return "", err
	}
	return q.Explain(), nil
}

// EvalLocal evaluates a query with the single-node reference
// evaluator (Sections 2-3 semantics) against local storages.
func EvalLocal(src string, bindings map[string]comp.Value) (comp.Value, error) {
	e, err := sacparser.Parse(src)
	if err != nil {
		return nil, err
	}
	var env *comp.Env
	for k, v := range bindings {
		env = env.Bind(k, v)
	}
	return comp.Eval(e, env)
}

// Metrics returns a snapshot of the engine counters (shuffled bytes,
// tasks, stages).
func (s *Session) Metrics() dataflow.MetricsSnapshot { return s.ctx.Metrics() }

// RunLoops parses a DIABLO loop program, translates it to SAC
// comprehensions, executes the assignments against this session's
// catalog (binding each result for later statements and queries), and
// returns the chosen plans.
func (s *Session) RunLoops(src string) ([]string, error) {
	prog, err := diablo.Parse(src)
	if err != nil {
		return nil, err
	}
	return diablo.RunDistributed(prog, s.cat, s.conf.Optimizations)
}
