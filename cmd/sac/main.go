// Command sac is an interactive front end to the SAC reproduction: it
// registers randomly generated block matrices and runs or explains
// queries written in the comprehension DSL.
//
//	sac -explain 'tiled(n,n)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B, kk == k, let v = a*b, group by (i,j) ]'
//	sac -n 500 -query 'tiledvec(n)[ (i, +/a) | ((i,j),a) <- A, group by i ]'
//	sac -analyze 'tiled(n,n)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B, kk == k, let v = a*b, group by (i,j) ]'
//	echo 'rdd[ ((i,j), a) | ((i,j),a) <- A, i == j ]' | sac -n 8 -run-stdin
//
// -analyze is EXPLAIN ANALYZE: it executes the query with tracing on
// and prints the plan, the measured per-stage table with skew
// statistics, and the span tree; with -cluster the report merges every
// rank's telemetry (one trace lane per worker, straggler warnings
// naming machines). -debug serves pprof, a Prometheus scrape target,
// and live metrics over HTTP while queries run. -trace writes the last
// executed query's spans as Chrome trace_event JSON. -eventlog records
// one JSONL file per query, replayable offline:
//
//	sac history eventlog/query-*.jsonl
//
// -adaptive turns on statistics-driven planning (partition counts from
// cardinality estimates) and adaptive stage-boundary repartitioning
// for local sessions; plans then show the picked counts in their cost
// clause, next to the processor grid every group-by-join plan names.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/comp"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/debug"
	"repro/internal/diablo"
	"repro/internal/eventlog"
	"repro/internal/jobs"
	"repro/internal/memory"
	"repro/internal/opt"
	"repro/internal/plan"
	"repro/internal/tiled"
	"repro/internal/trace"
)

// runHistory is the `sac history <file>...` subcommand: it replays
// query event logs and prints each run's report — no session, no
// cluster, just the files.
func runHistory(paths []string) int {
	if len(paths) == 0 {
		fmt.Fprintln(os.Stderr, "usage: sac history <query-log.jsonl> ...")
		return 2
	}
	exit := 0
	for i, path := range paths {
		run, err := eventlog.ReplayFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sac: history: %v\n", err)
			exit = 1
			continue
		}
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("== %s ==\n", path)
		fmt.Print(run.Format())
	}
	return exit
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "history" {
		os.Exit(runHistory(os.Args[2:]))
	}
	n := flag.Int64("n", 200, "side length of the generated square matrices A and B")
	tile := flag.Int("tile", 100, "tile size N")
	explain := flag.String("explain", "", "explain the plan for this query and exit")
	analyze := flag.String("analyze", "", "run this query with tracing and print an EXPLAIN ANALYZE report")
	query := flag.String("query", "", "run this query")
	debugAddr := flag.String("debug", "", "serve /debug endpoints (pprof, live metrics, stage table) on this address while running")
	runStdin := flag.Bool("run-stdin", false, "read one query per line from stdin")
	loop := flag.Bool("loop", false, "read a DIABLO loop program from stdin, translate and run it")
	adaptive := flag.Bool("adaptive", false, "enable statistics-driven planning and adaptive stage-boundary repartitioning (local sessions only; cluster queries always run the static SPMD plan)")
	noGBJ := flag.Bool("no-gbj", false, "disable the Section 5.4 group-by-join")
	noRBK := flag.Bool("no-reducebykey", false, "disable Rule 13 (use groupByKey)")
	seed := flag.Int64("seed", 1, "random seed for the generated matrices")
	mem := flag.String("mem", "", "engine memory budget (e.g. 64MiB); shuffles and caches beyond it spill to disk. Default: $SAC_MEMORY_BUDGET, else unlimited")
	clusterAddr := flag.String("cluster", "", "run as a distributed driver: listen for sacworker registrations on this address and execute queries on the cluster")
	clusterWorkers := flag.Int("cluster-workers", 1, "with -cluster: how many workers to wait for before running queries")
	clusterWait := flag.Duration("cluster-wait", time.Minute, "with -cluster: how long to wait for workers to register")
	shuffleCost := flag.Float64("shuffle-cost", 0, "simulated serialization/network cost in ns per shuffled byte")
	traceOut := flag.String("trace", "", "write the last executed query's spans as Chrome trace_event JSON to this file (cluster runs record every rank, one lane per worker)")
	eventlogDir := flag.String("eventlog", "", "record one replayable JSONL event log per query under this directory (read them back with `sac history <file>`)")
	flag.Parse()

	budget := memory.BudgetFromEnv(0)
	if *mem != "" {
		var err error
		if budget, err = memory.ParseBytes(*mem); err != nil {
			fmt.Fprintf(os.Stderr, "sac: %v\n", err)
			os.Exit(2)
		}
	}

	// In cluster mode queries execute on registered sacworker
	// processes; the local session still plans them for -explain and
	// the "plan:" preview. Planning is a deterministic function of the
	// inputs and the partition count, so the preview matches what every
	// rank chooses once both sides use the cluster's partition count
	// (planParts; 0 is the local default).
	var clusterSess *jobs.ClusterSession
	var clusterDrv *cluster.Driver
	planParts := 0
	if *clusterAddr != "" {
		d, err := cluster.NewDriver(cluster.DriverConfig{Addr: *clusterAddr})
		if err != nil {
			fmt.Fprintf(os.Stderr, "sac: %v\n", err)
			os.Exit(1)
		}
		clusterDrv = d
		fmt.Printf("cluster driver: listening on %s, waiting for %d worker(s)\n", d.Addr(), *clusterWorkers)
		if err := d.WaitForWorkers(*clusterWorkers, *clusterWait); err != nil {
			fmt.Fprintf(os.Stderr, "sac: %v\n", err)
			os.Exit(1)
		}
		for _, wi := range d.Workers() {
			fmt.Printf("  worker %s (shuffle data at %s)\n", wi.ID, wi.DataAddr)
		}
		planParts = jobs.DefaultPartitions(len(d.Workers()))
		clusterSess = jobs.NewClusterSession(d, jobs.QueryParams{
			N:                    *n,
			Tile:                 int64(*tile),
			Partitions:           int64(planParts),
			SeedA:                *seed,
			SeedB:                *seed + 1,
			DisableGBJ:           *noGBJ,
			DisableRBK:           *noRBK,
			ShuffleCostNsPerByte: *shuffleCost,
			// -trace needs spans shipped from every rank; without it
			// only stage rows and counter reports cross the wire.
			Trace: *traceOut != "",
		}, 10*time.Minute)
	}

	// -adaptive only shapes the LOCAL session. Cluster queries are
	// executed by jobs.QueryParams, which deliberately has no adaptive
	// knob: SPMD ranks must build byte-identical stage graphs, and
	// adaptive reshaping is driven by rank-local measurements.
	s := core.NewSession(core.Config{
		TileSize:             *tile,
		Partitions:           planParts,
		MemoryBudget:         budget,
		ShuffleCostNsPerByte: *shuffleCost,
		AdaptiveShuffle:      *adaptive,
		Optimizations: opt.Options{
			DisableGBJ:         *noGBJ,
			DisableReduceByKey: *noRBK,
		},
	})
	s.RegisterRandMatrix("A", *n, *n, 0, 10, *seed)
	s.RegisterRandMatrix("B", *n, *n, 0, 10, *seed+1)
	s.RegisterScalar("n", *n)

	if *debugAddr != "" {
		var src debug.Source = s
		if clusterSess != nil {
			src = clusterSess
		}
		srv, err := debug.Serve(*debugAddr, src)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sac: debug endpoint: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("debug endpoint: http://%s/\n", srv.Addr())
	}

	exit := 0
	// logRun appends one query's event log (a no-op without -eventlog).
	// Files are named after the session start plus a per-session query
	// counter, so a scripted -run-stdin session leaves an ordered trail.
	sessionStart := time.Now()
	queryN := 0
	logRun := func(src, planStr string, snap dataflow.MetricsSnapshot, wall time.Duration, result string, runErr error) {
		if *eventlogDir == "" {
			return
		}
		queryN++
		path := filepath.Join(*eventlogDir, eventlog.FileName(sessionStart, queryN))
		w, err := eventlog.NewWriter(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sac: eventlog: %v\n", err)
			exit = 1
			return
		}
		err = eventlog.LogRun(w, src, planStr, snap, wall, result, runErr)
		if cerr := w.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "sac: eventlog: %v\n", err)
			exit = 1
			return
		}
		fmt.Printf("eventlog: %s\n", path)
	}
	// lastLocalTrace holds the most recent local traced execution; the
	// cluster equivalent lives in clusterSess.LastTrace(). Either feeds
	// the -trace file written before exit.
	var lastLocalTrace *trace.Tracer
	runOne := func(src string) {
		src = strings.TrimSpace(src)
		if src == "" {
			return
		}
		ex, err := s.Explain(src)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sac: %v\n", err)
			logRun(src, "", dataflow.MetricsSnapshot{}, 0, "", err)
			exit = 1
			return
		}
		fmt.Printf("plan: %s\n", ex)
		qstart := time.Now()
		if clusterSess != nil {
			blob, run, err := clusterSess.Query(src)
			if err != nil {
				fmt.Fprintf(os.Stderr, "sac: %v\n", err)
				logRun(src, ex, dataflow.MetricsSnapshot{}, time.Since(qstart), "", err)
				exit = 1
				return
			}
			result := jobs.FormatResult(blob)
			fmt.Printf("result: %s\n", result)
			m := clusterSess.Metrics()
			fmt.Printf("metrics: %s\n", m)
			if tbl := m.FormatWorkers(); tbl != "" {
				fmt.Print(tbl)
			}
			if run.LostWorkers > 0 {
				fmt.Printf("lost %d worker(s); %d map task(s) resubmitted from lineage\n",
					run.LostWorkers, run.Resubmissions)
			}
			logRun(src, ex, m, time.Since(qstart), result, nil)
			return
		}
		var res *plan.Result
		if *traceOut != "" {
			// Traced execution forces lazy results inside the traced
			// window, so the Chrome file sees every stage.
			var q *plan.Compiled
			if q, err = s.Compile(src); err == nil {
				var tr *trace.Tracer
				res, tr, err = q.ExecuteTraced()
				if tr != nil {
					lastLocalTrace = tr
				}
			}
		} else {
			res, err = s.Query(src)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "sac: %v\n", err)
			logRun(src, ex, s.Metrics(), time.Since(qstart), "", err)
			exit = 1
			return
		}
		var result string
		switch res.Kind() {
		case "matrix":
			d := res.Matrix.ToDense()
			result = fmt.Sprintf("%dx%d tiled matrix (sum=%.4g)", res.Matrix.Rows, res.Matrix.Cols, d.Sum())
			fmt.Printf("result: %s\n", result)
			if d.Rows <= 8 && d.Cols <= 8 {
				fmt.Println(d)
			}
		case "vector":
			v := res.Vector.ToDense()
			result = fmt.Sprintf("block vector of %d (sum=%.4g)", res.Vector.Size, v.Sum())
			fmt.Printf("result: %s\n", result)
			if v.Len() <= 16 {
				fmt.Println(v.Data)
			}
		case "list":
			result = fmt.Sprintf("list of %d rows", len(res.List))
			fmt.Printf("result: %s\n", result)
			for i, row := range res.List {
				if i == 10 {
					fmt.Println("  ...")
					break
				}
				fmt.Printf("  %s\n", comp.Render(row))
			}
		default:
			result = comp.Render(res.Scalar)
			fmt.Printf("result: %s\n", result)
		}
		m := s.Metrics()
		fmt.Printf("metrics: %s\n", m)
		logRun(src, ex, m, time.Since(qstart), result, nil)
		s.ResetMetrics()
	}

	switch {
	case *loop:
		src, err := io.ReadAll(os.Stdin)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sac: %v\n", err)
			os.Exit(1)
		}
		prog, err := diablo.Parse(string(src))
		if err != nil {
			fmt.Fprintf(os.Stderr, "sac: %v\n", err)
			os.Exit(1)
		}
		cat := plan.NewCatalog(s.Engine())
		cat.BindMatrix("A", tiled.RandMatrix(s.Engine(), *n, *n, *tile, 0, 0, 10, *seed))
		cat.BindMatrix("B", tiled.RandMatrix(s.Engine(), *n, *n, *tile, 0, 0, 10, *seed+1))
		cat.BindScalar("n", *n)
		plans, err := diablo.RunDistributed(prog, cat, opt.Options{
			DisableGBJ: *noGBJ, DisableReduceByKey: *noRBK,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "sac: %v\n", err)
			os.Exit(1)
		}
		for _, p := range plans {
			fmt.Println(p)
		}
	case *explain != "":
		ex, err := s.Explain(*explain)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sac: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(ex)
	case *analyze != "":
		qstart := time.Now()
		var report string
		var err error
		if clusterSess != nil {
			// Cluster EXPLAIN ANALYZE: every rank ships spans and stage
			// rows, and the report shows the merged stage table (with
			// straggler warnings naming workers) plus one trace lane
			// per rank.
			report, err = clusterSess.Analyze(*analyze)
		} else {
			report, err = s.Analyze(*analyze)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "sac: %v\n", err)
			logRun(*analyze, "", dataflow.MetricsSnapshot{}, time.Since(qstart), "", err)
			os.Exit(1)
		}
		fmt.Print(report)
		if clusterSess != nil {
			logRun(*analyze, "", clusterSess.Metrics(), time.Since(qstart), "", nil)
		} else {
			logRun(*analyze, "", s.Metrics(), time.Since(qstart), "", nil)
		}
	case *query != "":
		runOne(*query)
	case *runStdin:
		sc := bufio.NewScanner(os.Stdin)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			runOne(sc.Text())
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
	if *traceOut != "" {
		tr := lastLocalTrace
		if clusterSess != nil {
			tr = clusterSess.LastTrace()
		}
		switch {
		case tr == nil:
			fmt.Fprintln(os.Stderr, "sac: -trace: no trace recorded (run a query with -query, -run-stdin, or -cluster -analyze)")
			if exit == 0 {
				exit = 1
			}
		default:
			if err := tr.WriteChromeFile(*traceOut); err != nil {
				fmt.Fprintf(os.Stderr, "sac: -trace: %v\n", err)
				exit = 1
			} else {
				fmt.Printf("trace: wrote %s (open in chrome://tracing or https://ui.perfetto.dev)\n", *traceOut)
			}
		}
	}
	// Disconnect workers and remove the session's spill directory
	// (os.Exit skips defers).
	if clusterDrv != nil {
		clusterDrv.Close()
	}
	if err := s.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "sac: close: %v\n", err)
		if exit == 0 {
			exit = 1
		}
	}
	os.Exit(exit)
}
