// Package plan compiles SAC comprehensions on block arrays into
// physical plans over the dataflow engine and executes them. It is
// the back end of the reproduction: the parser produces an AST, comp
// desugars it, opt picks a Section 5 strategy, and this package runs
// the strategy against tiled matrices and vectors registered in a
// Catalog. Explain exposes the chosen translation so tests and users
// can verify which rule fired.
package plan

import (
	"fmt"
	"sync"

	"repro/internal/comp"
	"repro/internal/dataflow"
	"repro/internal/opt"
	"repro/internal/stats"
	"repro/internal/tiled"
	"repro/internal/trace"
)

// Catalog binds query-visible names to distributed arrays and scalar
// constants. It also implements opt.StatsProvider, turning the bound
// arrays' metadata into the size statistics the cost model prices.
type Catalog struct {
	ctx   *dataflow.Context
	vals  map[string]any
	world int
}

// NewCatalog creates an empty catalog bound to an engine context.
func NewCatalog(ctx *dataflow.Context) *Catalog {
	return &Catalog{ctx: ctx, vals: map[string]any{}}
}

// BindMatrix registers a tiled matrix.
func (c *Catalog) BindMatrix(name string, m *tiled.Matrix) *Catalog {
	c.vals[name] = m
	return c
}

// BindVector registers a tiled vector.
func (c *Catalog) BindVector(name string, v *tiled.Vector) *Catalog {
	c.vals[name] = v
	return c
}

// BindScalar registers a scalar constant (int64, float64, bool).
func (c *Catalog) BindScalar(name string, v comp.Value) *Catalog {
	c.vals[name] = v
	return c
}

// ArrayStats implements opt.StatsProvider over the bound arrays.
func (c *Catalog) ArrayStats(name string) (stats.TableStats, bool) {
	switch arr := c.vals[name].(type) {
	case *tiled.Matrix:
		return stats.TableStats{Rows: arr.Rows, Cols: arr.Cols, Tile: arr.N, Parts: arr.Tiles.NumPartitions()}, true
	case *tiled.Vector:
		return stats.TableStats{Rows: arr.Size, Cols: 1, Tile: arr.N, Parts: arr.Blocks.NumPartitions()}, true
	}
	return stats.TableStats{}, false
}

// SetWorld makes the catalog plan for a cluster of world ranks it is not
// one of: the planner a cluster driver keeps (jobs.ClusterSession), whose
// Explain and estimates must be about the plan the ranks run. A session
// that executes what it compiles leaves it unset; a rank's world comes
// from its Transport.
func (c *Catalog) SetWorld(world int) *Catalog {
	c.world = world
	return c
}

// World implements opt.StatsProvider: the Transport's rank count on a
// cluster rank, else SetWorld's, else 0 (local).
func (c *Catalog) World() int {
	if t := c.ctx.Conf().Transport; t != nil {
		return t.World()
	}
	return c.world
}

// isArray reports whether name is bound to a distributed array.
func (c *Catalog) isArray(name string) bool {
	_, ok := c.ArrayStats(name)
	return ok
}

// matrix resolves a name that must be a tiled matrix.
func (c *Catalog) matrix(name string) (*tiled.Matrix, error) {
	v, ok := c.vals[name]
	if !ok {
		return nil, fmt.Errorf("plan: unknown array %q", name)
	}
	m, ok := v.(*tiled.Matrix)
	if !ok {
		return nil, fmt.Errorf("plan: %q is %T, not a tiled matrix", name, v)
	}
	return m, nil
}

// dimOf reports the extent of a bound array's index position, used by
// the range-fusion optimization.
func (c *Catalog) dimOf(array string, pos int) (int64, bool) {
	switch arr := c.vals[array].(type) {
	case *tiled.Matrix:
		switch pos {
		case 0:
			return arr.Rows, true
		case 1:
			return arr.Cols, true
		}
	case *tiled.Vector:
		if pos == 0 {
			return arr.Size, true
		}
	}
	return 0, false
}

// scalarConsts returns the scalar bindings as a constant map for
// folding into query bodies.
func (c *Catalog) scalarConsts() map[string]comp.Value {
	out := map[string]comp.Value{}
	for k, v := range c.vals {
		switch v.(type) {
		case *tiled.Matrix, *tiled.Vector:
		default:
			out[k] = v
		}
	}
	return out
}

// scalarEnv builds a comp evaluation environment holding the scalar
// bindings (for builder dimension expressions).
func (c *Catalog) scalarEnv() *comp.Env {
	var env *comp.Env
	for k, v := range c.vals {
		switch v.(type) {
		case *tiled.Matrix, *tiled.Vector:
		default:
			env = env.Bind(k, v)
		}
	}
	return env
}

// Result is the value of an executed query.
type Result struct {
	Matrix *tiled.Matrix
	Vector *tiled.Vector
	List   comp.List
	Scalar comp.Value

	// Tiles and Blocks hold what Collect gathered of a matrix or a
	// vector result, in partition order; nil until then (Execute returns
	// lazy datasets, Force collected ones).
	Tiles  []tiled.Block
	Blocks []tiled.VBlock
}

// Collect runs a matrix or a vector result's one action, gathering its
// tiles into Tiles or Blocks; a list or a scalar is already whole. The
// datasets stay lazy and uncached: another action on them runs their
// stages again.
func (r *Result) Collect() {
	switch {
	case r.Matrix != nil:
		r.Tiles = dataflow.Collect(r.Matrix.Tiles)
	case r.Vector != nil:
		r.Blocks = dataflow.Collect(r.Vector.Blocks)
	}
}

// Kind reports which result field is set.
func (r *Result) Kind() string {
	switch {
	case r.Matrix != nil:
		return "matrix"
	case r.Vector != nil:
		return "vector"
	case r.List != nil:
		return "list"
	default:
		return "scalar"
	}
}

// Compiled is a query ready to execute.
type Compiled struct {
	src      comp.Expr
	builder  string
	dims     []int64
	strategy opt.Strategy
	info     *opt.QueryInfo
	reduce   string // non-empty for total-aggregation queries
	cat      *Catalog
	opts     opt.Options
	// The tile strategy's lowered row kernels (kernels.go): the
	// per-element head or combine (nil for a combine that is exactly
	// a*b, which goes to GEMM), and tile aggregation's finalize.
	cell, final *kernel
	// The coordinate strategy's plan (exec_coord.go); bare marks a head that
	// was a single value (total reductions, rdd[ e | ... ]), analysed under
	// a unit key its results drop.
	coord *coordPlan
	bare  bool
	// obs is this plan's own run profile (NoteObserved), read by Explain
	// and EstimateFootprintBytes; obsMu lets one goroutine run the plan
	// while another explains it.
	obsMu sync.Mutex
	obs   stats.Measured
}

// Explain describes the chosen physical translation. Coordinate plans
// additionally report the derived pipeline: how many generators join
// and whether the group-by runs as reduceByKey (Rule 13) or collects
// groups. A cost decision's clause ends with the plan's observed runs
// ("stats: observed ...") once it has run.
func (q *Compiled) Explain() string {
	desc := q.strategy.Describe()
	if q.coord != nil {
		desc += "; " + q.coord.String()
	}
	if d := q.Decision(); d != nil {
		desc += " [" + d.Summary()
		if m := q.observed(); m.Runs > 0 {
			desc += "; stats: " + m.String()
		}
		desc += "]"
	}
	if q.reduce != "" {
		return fmt.Sprintf("total %s-aggregation over %s", q.reduce, desc)
	}
	return fmt.Sprintf("%s(%v) <- %s", q.builder, q.dims, desc)
}

// Decision exposes the cost model's record for cost-ranked strategies
// (nil when no statistics were available or the strategy is not
// cost-sensitive).
func (q *Compiled) Decision() *opt.Decision { return decisionOf(q.strategy) }

func decisionOf(s opt.Strategy) *opt.Decision {
	switch st := s.(type) {
	case *opt.GroupByJoinStrategy:
		return st.Decision
	case *opt.TileAggStrategy:
		return st.Decision
	}
	return nil
}

// NoteObserved folds one run's measured profile into the plan's own:
// one more run, that run's wall time and shuffled bytes, and the worst
// task skew seen. The backends' Run calls it after forcing the result,
// so the profile covers every stage the query ran.
func (q *Compiled) NoteObserved(run stats.Measured) {
	q.obsMu.Lock()
	defer q.obsMu.Unlock()
	q.obs.Runs++
	q.obs.WallNs, q.obs.ShuffledBytes = run.WallNs, run.ShuffledBytes
	q.obs.MaxSkew = max(q.obs.MaxSkew, run.MaxSkew)
}

// observed returns the plan's run profile (Runs 0 before its first run).
func (q *Compiled) observed() stats.Measured {
	q.obsMu.Lock()
	defer q.obsMu.Unlock()
	return q.obs
}

// Force is the one forcing execution: it runs the query and collects a
// lazy tiled result (Result.Collect) before returning — one action, whose
// tiles are what the caller renders, so nothing is persisted and no
// second action reads them back — which puts every stage the query runs
// inside the caller's metrics window and admission reservation.
// With traced set the run records a span tree — a query span holding a
// plan phase (the chosen translation) and an execute phase under which
// every engine stage, task and tile kernel attaches; forcing inside the
// phase is what keeps a lazy result's stages from running untraced at
// the first later action. The tracer (nil untraced; returned with the
// error when a traced run fails) is removed from the engine context
// before Force returns. Execute stays the lazy entry point.
func (q *Compiled) Force(traced bool) (*Result, *trace.Tracer, error) {
	var tr *trace.Tracer
	if traced {
		tr = trace.New()
		root := tr.Start(nil, "query")
		root.SetAttr("builder", q.builderName())
		defer root.End()
		pl := root.StartChild("phase: plan")
		pl.SetAttr("strategy", q.Explain())
		pl.End()
		ex := tr.Start(root, "phase: execute")
		ctx := q.cat.ctx
		ctx.SetTracer(tr)
		ctx.SetTraceRoot(ex)
		defer func() {
			ctx.SetTracer(nil)
			ex.End()
		}()
	}
	res, err := q.Execute()
	if err != nil {
		return nil, tr, err
	}
	res.Collect()
	return res, tr, nil
}

func (q *Compiled) builderName() string {
	if q.reduce != "" {
		return q.reduce + "/[...]"
	}
	if q.builder == "" {
		return "rdd"
	}
	return q.builder
}

// Compile desugars, analyzes, and plans a query expression against the
// catalog. Supported top-level forms: tiled(n,m)[...], tiledvec(n)[...],
// rdd[...], and total reductions ⊕/[...].
func Compile(e comp.Expr, cat *Catalog, opts opt.Options) (*Compiled, error) {
	e = comp.Desugar(e)
	q := &Compiled{src: e, cat: cat, opts: opts}
	var body comp.Expr
	switch x := e.(type) {
	case comp.BuildExpr:
		if err := q.setBuilder(x); err != nil {
			return nil, err
		}
		body = x.Body
	case comp.Reduce:
		q.reduce, body = x.Monoid, x.E
	default:
		return nil, fmt.Errorf("plan: top-level expression must be a builder or reduction, got %T", e)
	}
	c, ok := body.(comp.Comprehension)
	if !ok {
		return nil, fmt.Errorf("plan: a builder or total reduction needs a comprehension, got %s", body)
	}
	// Fold catalog scalars into the body so the affine-key analysis
	// (Rule 19) sees concrete moduli and offsets, and the coordinate plan
	// concrete range bounds.
	c = comp.FoldConstants(comp.SubstConsts(c, cat.scalarConsts())).(comp.Comprehension)

	var reason string
	if q.reduce == "" {
		var err error
		if q.info, err = opt.Extract(c); err != nil {
			reason = err.Error()
		}
	}
	switch {
	case q.info == nil:
		// A head that is not a (key, value) pair — every total reduction's,
		// and what else Extract refused — is analysed under a unit key. A
		// total is a tile aggregation with the empty key when it fits the
		// tile rules; the rest runs via the bare coordinate pipeline when the
		// qualifiers are in the subset.
		bare, err := extractBare(c)
		if err != nil {
			return nil, err
		}
		q.info, q.bare = bare, true
		if q.reduce != "" {
			q.strategy = q.chooseTotal(opts)
		} else {
			q.strategy = &opt.CoordStrategy{Reason: reason}
		}
	case q.builder == "tiled" || q.builder == "tiledvec":
		q.info.FuseRanges(cat.dimOf)
		strat, err := opt.ChooseWithStats(q.info, opts, cat)
		if err != nil {
			return nil, err
		}
		q.strategy = strat
	default:
		q.strategy = &opt.CoordStrategy{Reason: "rdd builder"}
	}
	if err := q.lower(); err != nil {
		return nil, err
	}
	return q, nil
}

// chooseTotal plans a total reduction. opt.ChooseTotal picks the tile
// aggregation with the empty key from the query's shape; the choice stands
// only when the generator's pattern has its array's arity — ((i,j),a) over
// a matrix, (i,a) over a vector — and the head lowers to a number the float
// fold reproduces: not an opaque value (a tuple, a list), and not an int
// under min or max, which return the winning element with its int64 type.
// Any other total runs on the coordinate path.
func (q *Compiled) chooseTotal(opts opt.Options) opt.Strategy {
	st := opt.ChooseTotal(q.info, q.reduce, opts, q.cat)
	s, ok := st.(*opt.TileAggStrategy)
	if !ok {
		return st
	}
	arity := 0
	switch q.cat.vals[s.Gen.Name].(type) {
	case *tiled.Matrix:
		arity = 2
	case *tiled.Vector:
		arity = 1
	}
	if len(s.Gen.IndexVars) == arity {
		slots := map[string]slot{}
		genSlots(slots, s.Gen, 0)
		k, err := lowerKernel(slots, s.Lets, s.Filters, comp.Var{Name: s.Aggs[0].Var})
		if err == nil && k.types[0] != tDyn && (k.types[0] != tInt || q.reduce != "min" && q.reduce != "max") {
			return s
		}
	}
	return &opt.CoordStrategy{Reason: "total of a head the tile kernel cannot fold"}
}

// setBuilder records a distributed builder and its dimensions.
func (q *Compiled) setBuilder(b comp.BuildExpr) error {
	q.builder, q.dims = b.Builder, make([]int64, len(b.Args))
	env := q.cat.scalarEnv()
	for i, a := range b.Args {
		v, err := comp.Eval(a, env)
		if err != nil {
			return fmt.Errorf("plan: builder dimension %d: %w", i, err)
		}
		q.dims[i] = comp.MustInt(v)
	}
	switch b.Builder {
	case "tiled", "tiledvec", "rdd", "list":
	default:
		return fmt.Errorf("plan: unsupported distributed builder %q (use comp.Eval for local builders)", b.Builder)
	}
	if b.Builder == "tiled" && len(q.dims) != 2 {
		return fmt.Errorf("plan: tiled builder needs (rows, cols)")
	}
	if b.Builder == "tiledvec" && len(q.dims) != 1 {
		return fmt.Errorf("plan: tiledvec builder needs (size)")
	}
	return nil
}

// extractBare parses a comprehension whose head is not necessarily a
// key-value pair, for rdd and total-reduction queries.
func extractBare(c comp.Comprehension) (*opt.QueryInfo, error) {
	// Wrap the head as (unit, head) so Extract's quals analysis can be
	// reused; executors treat a unit key as "no key".
	wrapped := comp.Comprehension{
		Head:  comp.TupleExpr{Elems: []comp.Expr{comp.TupleExpr{}, c.Head}},
		Quals: c.Quals,
	}
	return opt.Extract(wrapped)
}

// Run compiles and executes in one step.
func Run(e comp.Expr, cat *Catalog, opts opt.Options) (*Result, error) {
	q, err := Compile(e, cat, opts)
	if err != nil {
		return nil, err
	}
	return q.Execute()
}

// asError, deferred, returns a panic out of comp or a kernel (both report
// errors in user input that way) as the caller's error.
func asError(err *error, what string) {
	if r := recover(); r != nil {
		if rerr, ok := r.(error); ok {
			*err = fmt.Errorf("plan: %s failed: %w", what, rerr)
			return
		}
		*err = fmt.Errorf("plan: %s failed: %v", what, r)
	}
}

// Execute runs the compiled query.
func (q *Compiled) Execute() (res *Result, err error) {
	defer asError(&err, "execution")
	switch s := q.strategy.(type) {
	case *opt.MapStrategy:
		return q.execMap(s)
	case *opt.ZipStrategy:
		return q.execZip(s)
	case *opt.GroupByJoinStrategy:
		return q.execGroupByJoin(s)
	case *opt.TileAggStrategy:
		return q.execTileAgg(s)
	case *opt.MatVecStrategy:
		return q.execMatVec(s)
	case *opt.ReplicateStrategy:
		return q.execReplicate(s)
	case *opt.CoordStrategy:
		if q.reduce != "" {
			return q.execTotalReduce()
		}
		return q.execCoord()
	default:
		return nil, fmt.Errorf("plan: no executor for %T", q.strategy)
	}
}
