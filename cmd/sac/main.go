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
// and live metrics over HTTP while queries run. -eventlog writes each
// query's record (core.Record: plan, result or error, metrics, and the
// spans of an -analyze run) as one JSON file. `sac history` prints the
// report -analyze printed from the file alone, and -chrome writes the
// record's spans as Chrome trace_event JSON:
//
//	sac history eventlog/query-*.jsonl
//	sac history -chrome trace.json eventlog/query-20261020-101500-001.jsonl
//
// Every group-by-join plan names in its cost clause the processor grid
// it runs on, which follows from the block counts, the partition count
// and, with -cluster, the world.
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

	"repro/internal/core"
	"repro/internal/debug"
	"repro/internal/jobs"
	"repro/internal/memory"
	"repro/internal/opt"
)

// runHistory is the `sac history [-chrome out.json] <file>...`
// subcommand: it reads query records and prints each run's report — no
// session, no cluster, just the files — and with -chrome writes the one
// record's spans as Chrome trace_event JSON.
func runHistory(args []string) int {
	fs := flag.NewFlagSet("history", flag.ContinueOnError)
	chrome := fs.String("chrome", "", "write the record's spans as Chrome trace_event JSON to this file (open it in chrome://tracing or https://ui.perfetto.dev)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: sac history [-chrome out.json] <query-record.jsonl> ...")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	paths := fs.Args()
	if len(paths) == 0 || *chrome != "" && len(paths) != 1 {
		fs.Usage()
		return 2
	}
	exit := 0
	for i, path := range paths {
		rec, err := readRecord(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sac: history: %v\n", err)
			exit = 1
			continue
		}
		if i > 0 {
			fmt.Println()
		}
		fmt.Print(rec.Report())
		if *chrome != "" {
			if err := writeChrome(*chrome, rec); err != nil {
				fmt.Fprintf(os.Stderr, "sac: history: %v\n", err)
				return 1
			}
			fmt.Fprintf(os.Stderr, "trace: wrote %s\n", *chrome)
		}
	}
	return exit
}

// runLoop is -loop: it reads a DIABLO loop program from stdin,
// translates it to comprehensions and runs them on s, printing the
// chosen plans.
func runLoop(s *core.Session) int {
	defer s.Close()
	var plans []string
	src, err := io.ReadAll(os.Stdin)
	if err == nil {
		plans, err = s.RunLoops(string(src))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "sac: %v\n", err)
		return 1
	}
	for _, p := range plans {
		fmt.Println(p)
	}
	return 0
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
	noGBJ := flag.Bool("no-gbj", false, "disable the Section 5.4 group-by-join")
	noRBK := flag.Bool("no-reducebykey", false, "disable Rule 13 (use groupByKey)")
	seed := flag.Int64("seed", 1, "random seed for the generated matrices")
	mem := flag.String("mem", "", "engine memory budget (e.g. 64MiB); shuffles and caches beyond it spill to disk. Default: $SAC_MEMORY_BUDGET, else unlimited")
	clusterAddr := flag.String("cluster", "", "run as a distributed driver: listen for sacworker registrations on this address and execute queries on the cluster")
	clusterWorkers := flag.Int("cluster-workers", 1, "with -cluster: how many workers to wait for before running queries")
	clusterWait := flag.Duration("cluster-wait", time.Minute, "with -cluster: how long to wait for workers to register")
	eventlogDir := flag.String("eventlog", "", "write one JSON record of each query's run under this directory (read them back with `sac history <file>`)")
	flag.Parse()

	budget := memory.BudgetFromEnv(0)
	if *mem != "" {
		var err error
		if budget, err = memory.ParseBytes(*mem); err != nil {
			fmt.Fprintf(os.Stderr, "sac: %v\n", err)
			os.Exit(2)
		}
	}

	newLocal := func() *core.Session {
		s := core.NewSession(core.Config{
			TileSize:      *tile,
			MemoryBudget:  budget,
			Optimizations: opt.Options{DisableGBJ: *noGBJ, DisableReduceByKey: *noRBK},
		})
		s.RegisterRandMatrix("A", *n, *n, 0, 10, *seed)
		s.RegisterRandMatrix("B", *n, *n, 0, 10, *seed+1)
		s.RegisterScalar("n", *n)
		return s
	}
	if *loop {
		os.Exit(runLoop(newLocal()))
	}

	// This is the one place that knows where queries run: with -cluster
	// on registered sacworker processes, through a session that plans on
	// the driver exactly as its ranks will (same inputs, same partition
	// count — -mem shapes local sessions only, because each worker has
	// its own budget); otherwise in this process. Everything below holds
	// a core.Backend.
	var b core.Backend
	if *clusterAddr != "" {
		cs, err := jobs.Connect(*clusterAddr, *clusterWorkers, *clusterWait, jobs.QueryParams{
			N:          *n,
			Tile:       int64(*tile),
			SeedA:      *seed,
			SeedB:      *seed + 1,
			DisableGBJ: *noGBJ,
			DisableRBK: *noRBK,
		}, func(format string, args ...any) { fmt.Printf(format+"\n", args...) })
		if err != nil {
			fmt.Fprintf(os.Stderr, "sac: %v\n", err)
			os.Exit(1)
		}
		b = cs
	} else {
		b = newLocal()
	}

	if *debugAddr != "" {
		srv, err := debug.Serve(*debugAddr, b)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sac: debug endpoint: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("debug endpoint: http://%s/\n", srv.Addr())
	}

	exit := 0
	// logRun writes one query's record (a no-op without -eventlog).
	// Files are named after the session start plus a per-session query
	// counter, so a scripted -run-stdin session leaves an ordered trail.
	sessionStart := time.Now()
	queryN := 0
	logRun := func(rec *core.Record) {
		if *eventlogDir == "" {
			return
		}
		queryN++
		path := filepath.Join(*eventlogDir, recordFileName(sessionStart, queryN))
		if err := writeRecord(path, rec); err != nil {
			fmt.Fprintf(os.Stderr, "sac: eventlog: %v\n", err)
			exit = 1
			return
		}
		fmt.Printf("eventlog: %s\n", path)
	}
	// runOne is the one way a query runs: compile, preview the plan,
	// run, print. analyze traces the run and prints its record's EXPLAIN
	// ANALYZE report instead of the result and metrics lines.
	runOne := func(src string, analyze bool) {
		src = strings.TrimSpace(src)
		if src == "" {
			return
		}
		out := &core.Outcome{}
		q, err := b.Compile(src)
		if err == nil {
			if !analyze {
				fmt.Printf("plan: %s\n", q.Explain())
			}
			out, err = b.Run(q, src, analyze)
		}
		rec := out.Record(src, err)
		switch {
		case err != nil:
			fmt.Fprintf(os.Stderr, "sac: %v\n", err)
			exit = 1
		case analyze:
			fmt.Print(rec.Report())
		default:
			fmt.Printf("result: %s\n", out.Summary)
			fmt.Printf("metrics: %s\n", out.Metrics)
			fmt.Print(out.Metrics.FormatWorkers())
			lost := 0
			for _, w := range out.Metrics.PerWorker {
				if w.Lost {
					lost++
				}
			}
			if lost > 0 {
				fmt.Printf("lost %d worker(s); %d map task(s) resubmitted from lineage\n",
					lost, out.Metrics.Resubmissions)
			}
		}
		logRun(rec)
	}

	switch {
	case *explain != "":
		q, err := b.Compile(*explain)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sac: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(q.Explain())
	case *analyze != "":
		runOne(*analyze, true)
	case *query != "":
		runOne(*query, false)
	case *runStdin:
		sc := bufio.NewScanner(os.Stdin)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			runOne(sc.Text(), false)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
	// Disconnect workers and remove the session's spill directory
	// (os.Exit skips defers).
	if err := b.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "sac: close: %v\n", err)
		if exit == 0 {
			exit = 1
		}
	}
	os.Exit(exit)
}
