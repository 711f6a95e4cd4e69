// Command sacserver runs the SAC engine as a long-running multi-tenant
// HTTP/JSON query service: a pool of sessions, a compiled-plan cache
// keyed by normalized query source, and admission control that queues
// or rejects queries whose estimated footprint would breach the memory
// budget.
//
//	sacserver -addr :8080 -n 500
//	curl -d '{"query":"+/[ m | ((i,j),m) <- A ]"}' localhost:8080/query
//	curl -N -d 'tiledvec(n)[ (i, +/a) | ((i,j),a) <- A, group by i ]' localhost:8080/query/stream
//	curl -d '{"name":"C","rows":1000,"cols":1000,"seed":7}' localhost:8080/data
//	curl localhost:8080/status
//
// With -cluster the server is also the distributed driver: it waits for
// sacworker registrations and compiles and runs every query through the
// cluster session, which plans against the inputs and the partition
// count its ranks use — the plan preview, the footprint estimate behind
// admission and the plan cache are about the plan the cluster executes.
// Those inputs (A, B, n from -n/-tile/-seed) are fixed: POST /data
// answers 409.
//
// SIGTERM/SIGINT drain gracefully: new submissions get 503, in-flight
// queries run to completion (bounded by -drain-timeout), then the
// listener closes and the process exits 0.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/jobs"
	"repro/internal/memory"
	"repro/internal/server"
)

func fail(err error) {
	fmt.Fprintf(os.Stderr, "sacserver: %v\n", err)
	os.Exit(1)
}

func parseBytesFlag(s string) int64 {
	if s == "" {
		return 0
	}
	b, err := memory.ParseBytes(s)
	if err != nil {
		fail(err)
	}
	return b
}

func main() {
	addr := flag.String("addr", ":8080", "HTTP listen address")
	sessions := flag.Int("sessions", 0, "session pool size = max concurrently executing queries (default: half the cores)")
	n := flag.Int64("n", 200, "side length of the pre-registered square matrices A and B")
	tile := flag.Int("tile", 100, "tile size N")
	seed := flag.Int64("seed", 1, "random seed for the pre-registered matrices")
	mem := flag.String("mem", "", "per-session engine memory budget (e.g. 64MiB); work past it spills to disk")
	admissionStr := flag.String("admission", "", "admission-control budget (e.g. 1GiB): total estimated footprint allowed in flight; empty disables admission control")
	maxQueue := flag.Int("max-queue", 32, "bounded admission queue length; submissions beyond it are rejected immediately")
	queueTimeout := flag.Duration("queue-timeout", 10*time.Second, "how long one query may wait in the admission queue")
	planCache := flag.Int("plan-cache", 64, "compiled plans cached per pooled session")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "on SIGTERM/SIGINT: how long to let in-flight queries finish before closing")
	clusterAddr := flag.String("cluster", "", "run as a distributed driver: listen for sacworker registrations on this address and execute queries on the cluster")
	clusterWorkers := flag.Int("cluster-workers", 1, "with -cluster: how many workers to wait for before serving")
	clusterWait := flag.Duration("cluster-wait", time.Minute, "with -cluster: how long to wait for workers to register")
	flag.Parse()

	cfg := server.Config{
		Sessions:        *sessions,
		TileSize:        *tile,
		MemoryBudget:    parseBytesFlag(*mem),
		AdmissionBudget: parseBytesFlag(*admissionStr),
		MaxQueue:        *maxQueue,
		QueueTimeout:    *queueTimeout,
		PlanCacheSize:   *planCache,
	}

	// The one place that knows where queries run. In cluster mode the
	// workers generate A, B and n from the QueryParams and the session
	// plans against the same; locally the pool registers them.
	if *clusterAddr != "" {
		cs, err := jobs.Connect(*clusterAddr, *clusterWorkers, *clusterWait, jobs.QueryParams{
			N:     *n,
			Tile:  int64(*tile),
			SeedA: *seed,
			SeedB: *seed + 1,
		}, func(format string, args ...any) { fmt.Printf("sacserver: "+format+"\n", args...) })
		if err != nil {
			fail(err)
		}
		cfg.Cluster = cs
	}
	s, err := server.New(cfg)
	if err != nil {
		fail(err)
	}
	if cfg.Cluster == nil {
		if err := s.RegisterRandMatrix("A", *n, *n, 0, 10, *seed); err != nil {
			fail(err)
		}
		if err := s.RegisterRandMatrix("B", *n, *n, 0, 10, *seed+1); err != nil {
			fail(err)
		}
		if err := s.RegisterScalar("n", *n); err != nil {
			fail(err)
		}
	}

	ln, err := s.Listen(*addr)
	if err != nil {
		fail(err)
	}
	fmt.Printf("sacserver: listening on http://%s/\n", ln.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	drained := make(chan int, 1)
	go func() {
		<-sig
		fmt.Printf("sacserver: draining (timeout %v)\n", *drainTimeout)
		code := 0
		if err := s.Shutdown(*drainTimeout); err != nil {
			fmt.Fprintf(os.Stderr, "sacserver: %v\n", err)
			code = 1
		} else {
			fmt.Println("sacserver: drained")
		}
		drained <- code
	}()

	if err := s.Serve(ln); err != nil {
		fail(err)
	}
	// Serve returned because Shutdown closed the listener; report the
	// drain outcome as the exit status.
	os.Exit(<-drained)
}
