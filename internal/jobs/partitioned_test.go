package jobs

// A matrix or vector result stays partitioned until the driver (DESIGN
// §10 "Liveness and recovery"): each rank replies with the partitions it
// owns, MergeResult assembles the blob, and a rank lost with its piece
// costs a second run.

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
)

// Test programs around sac.query, each merged by MergeResult like it.
const (
	spyQueryName     = "test.sac.query-spy"     // records every key the engine publishes, offers or fetches
	stopQueryName    = "test.sac.query-stop"    // runs beforeQueryReply between the reply computed and returned
	divergeQueryName = "test.sac.query-diverge" // rank 1 replies with a header of its own
)

// beforeQueryReply, when set, runs on each rank of a stopQueryName job
// between computing the reply and returning it.
var beforeQueryReply atomic.Pointer[func(env *cluster.JobEnv)]

func init() {
	for name, prog := range map[string]cluster.Program{
		spyQueryName: spyProgram,
		stopQueryName: func(env *cluster.JobEnv) ([]byte, cluster.Report, error) {
			reply, rep, err := queryProgram(env)
			if hook := beforeQueryReply.Load(); hook != nil {
				(*hook)(env)
			}
			return reply, rep, err
		},
		divergeQueryName: func(env *cluster.JobEnv) ([]byte, cluster.Report, error) {
			reply, rep, err := queryReply(env)
			b := reply.bytes()
			if env.Rank == 1 && len(b) > 1 {
				b[1] ^= 2 // the first dimension's varint
			}
			return b, rep, err
		},
	} {
		cluster.RegisterProgram(name, prog)
		cluster.RegisterMerge(name, newResultMerger)
	}
}

// exchangeSpy is what the ranks of spyQueryName jobs put on the fabric,
// this process's in-process workers all writing to the one log.
var exchangeSpy struct {
	sync.Mutex
	published map[string]int   // key -> blob bytes handed to Publish
	fetched   map[string]int64 // key -> bytes read from the peer's stream
}

func resetExchangeSpy() {
	exchangeSpy.Lock()
	defer exchangeSpy.Unlock()
	exchangeSpy.published, exchangeSpy.fetched = map[string]int{}, map[string]int64{}
}

// spyTransport is a rank's exchange with every call noted; the key a rank
// uses is prefixed with its rank, since ranks publish under equal keys.
type spyTransport struct{ *cluster.Exchange }

func (s spyTransport) note(key string) string { return fmt.Sprintf("%d/%s", s.Rank(), key) }

func (s spyTransport) Publish(key string, blob []byte) error {
	exchangeSpy.Lock()
	exchangeSpy.published[s.note(key)] = len(blob)
	exchangeSpy.Unlock()
	return s.Exchange.Publish(key, blob)
}

func (s spyTransport) FetchReader(rank int, key string) (io.ReadCloser, error) {
	rc, err := s.Exchange.FetchReader(rank, key)
	if err != nil {
		return nil, err
	}
	return &spyReader{ReadCloser: rc, key: s.note(key)}, nil
}

type spyReader struct {
	io.ReadCloser
	key string
}

func (r *spyReader) Read(p []byte) (int, error) {
	n, err := r.ReadCloser.Read(p)
	exchangeSpy.Lock()
	exchangeSpy.fetched[r.key] += int64(n)
	exchangeSpy.Unlock()
	return n, err
}

// TransportErr keeps the engine's view of a failed stream what it is
// without the spy.
func (r *spyReader) TransportErr() error {
	if te, ok := r.ReadCloser.(interface{ TransportErr() error }); ok {
		return te.TransportErr()
	}
	return nil
}

func spyProgram(env *cluster.JobEnv) ([]byte, cluster.Report, error) {
	p, err := DecodeQueryParams(env.Params)
	if err != nil {
		return nil, cluster.Report{}, err
	}
	reply, snap, err := runQuery(p, env.World, func(c *core.Config) {
		c.Parallelism = env.Parallelism
		c.MemoryBudget = env.MemoryBudget
		c.Transport = spyTransport{env.Exchange}
		c.WorkerTag = env.WorkerTag
	}, env.Resident, nil)
	return replyWith(env, reply), snap.CounterSet, err
}

// resultBytes counts the ranks of a run that replied and sums what they
// sent the driver as results.
func resultBytes(run *cluster.RunResult) (ranks, sum int64) {
	for _, w := range run.Workers {
		if w.OK {
			ranks, sum = ranks+1, sum+w.Report.ResultBytes
		}
	}
	return ranks, sum
}

// checkShippedOnce holds a run's ResultBytes to what a result of blob
// costs: a matrix or vector crosses once — its cells plus a header per
// rank and a few varints per partition and tile — and a list or scalar,
// which every rank holds whole, once per rank.
func checkShippedOnce(t *testing.T, run *cluster.RunResult, blob []byte, p QueryParams) {
	t.Helper()
	world, sent := resultBytes(run)
	if blob[0] != kindMatrix && blob[0] != kindVector {
		if want := world * int64(len(blob)); sent != want {
			t.Fatalf("%d result bytes from %d ranks for a replicated blob of %d", sent, world, len(blob))
		}
		return
	}
	tiles := (p.N/p.Tile + 1) * (p.N/p.Tile + 1)
	cells := int64(len(blob)) - 1 - 2*10
	if slack := 40*world + 20*p.Partitions + 20*tiles; sent < cells || sent > int64(len(blob))+slack {
		t.Fatalf("%d result bytes from %d ranks for a blob of %d (+ at most %d of headers)", sent, world, len(blob), slack)
	}
}

// TestPartitionedResultParity: the blob the driver merges is
// RunQueryLocal's, byte for byte — the Fig-4 suite with its vector, list
// and scalar results on worlds of 1, 2, 3 and 8, unbudgeted and budgeted,
// and the shapes a square benchmark never meets: ragged edge tiles, more
// partitions than tiles (ranks that own only empty partitions), a 1 x 1
// result, and more ranks than partitions (ranks that own none). Every run
// ships its result once.
func TestPartitionedResultParity(t *testing.T) {
	type shaped struct {
		name string
		p    QueryParams
		srcs []string
	}
	dense := []string{fig4Queries[0].src, fig4Queries[2].src, addSrc, transposeSrc}
	cases := []shaped{{name: "suite", p: baseParams()}}
	for _, q := range residentSuite {
		cases[0].srcs = append(cases[0].srcs, q.src)
	}
	for _, c := range []struct {
		name           string
		n, tile, parts int64
	}{{"ragged", 250, 100, 6}, {"more-partitions-than-tiles", 32, 16, 12}, {"one-cell", 1, 4, 3}, {"three-partitions", 48, 16, 3}} {
		p := baseParams()
		p.N, p.Tile, p.Partitions = c.n, c.tile, c.parts
		cases = append(cases, shaped{c.name, p, dense})
	}
	want := map[string][]byte{}
	for _, world := range []int{1, 2, 3, 8} {
		for _, budget := range []int64{0, 1 << 20} {
			t.Run(fmt.Sprintf("world=%d/budget=%d", world, budget), func(t *testing.T) {
				d := startTestClusterPar(t, twoSlots(world), budget)
				for _, c := range cases {
					for i, src := range c.srcs {
						p := c.p
						p.Src = src
						if c.name == "suite" {
							p.DisableGBJ, p.DisableRBK = residentSuite[i].noGBJ, residentSuite[i].noRBK
						}
						id := fmt.Sprintf("%s/%d", c.name, i)
						if want[id] == nil {
							blob, err := RunQueryLocal(p)
							if err != nil {
								t.Fatalf("%s: local: %v", id, err)
							}
							want[id] = blob
						}
						got, run, err := NewClusterSession(d, p, time.Minute).Query(src)
						if err != nil {
							t.Fatalf("%s: cluster: %v", id, err)
						}
						if !bytes.Equal(got, want[id]) {
							t.Fatalf("%s: merged result differs from local: %s vs %s", id, SummarizeBlob(got), SummarizeBlob(want[id]))
						}
						if run.Attempts != 1 || len(run.Workers) != world {
							t.Fatalf("%s: %d attempts on %d workers", id, run.Attempts, len(run.Workers))
						}
						checkShippedOnce(t, run, got, p)
					}
				}
			})
		}
	}
}

// TestResultCrossesOnce: for a matrix and a vector result on worlds of 2,
// 3 and 8 the ranks put nothing on the fabric but shuffle blobs — no
// gather key is published or fetched — no rank publishes a blob keyed
// for itself, and what the ranks fetch from each other is exactly the
// blobs they publish, so no result byte travels between ranks; the
// driver receives the cells once.
func TestResultCrossesOnce(t *testing.T) {
	for _, world := range []int{2, 3, 8} {
		d := startTestClusterPar(t, twoSlots(world), 0)
		for _, src := range []string{fig4Queries[0].src, fig4Queries[2].src} {
			p := baseParams()
			p.Src, p.Partitions = src, 12
			want, err := RunQueryLocal(p)
			if err != nil {
				t.Fatal(err)
			}
			resetExchangeSpy()
			run, err := d.Run(spyQueryName, p.Encode(), time.Minute)
			if err != nil {
				t.Fatalf("world %d: %v", world, err)
			}
			if !bytes.Equal(run.Result, want) {
				t.Fatalf("world %d: merged result differs from local", world)
			}
			checkShippedOnce(t, run, run.Result, p)

			exchangeSpy.Lock()
			var peerBound, fetchedBytes, remoteFetched int64
			for key, size := range exchangeSpy.published {
				if !peerBoundBlob(key) {
					t.Fatalf("world %d: published %q, not a shuffle blob for a peer", world, key)
				}
				peerBound += int64(size)
			}
			for key, n := range exchangeSpy.fetched {
				if _, key, _ := strings.Cut(key, "/"); key[0] != 'x' {
					t.Fatalf("world %d: fetched %q", world, key)
				}
				fetchedBytes += n
			}
			exchangeSpy.Unlock()
			for _, w := range run.Workers {
				remoteFetched += w.Report.RemoteFetchedBytes
			}
			if peerBound == 0 || fetchedBytes != peerBound || remoteFetched != peerBound {
				t.Fatalf("world %d: %d bytes published for peers, %d fetched (%d by the engine's count)",
					world, peerBound, fetchedBytes, remoteFetched)
			}
		}
	}
}

// peerBoundBlob reports whether a key the spy noted,
// publisher/x<stage>.<map task>.<rank>, is a shuffle blob for a rank other
// than its publisher.
func peerBoundBlob(noted string) bool {
	from, key, _ := strings.Cut(noted, "/")
	if key == "" || key[0] != 'x' {
		return false
	}
	to := key[strings.LastIndexByte(key, '.')+1:]
	return to != from
}

// TestPartitionedQueryMismatchDetected is cluster.TestResultMismatchDetected
// for a query result: ranks whose piece headers disagree fail the job with
// the rank named.
func TestPartitionedQueryMismatchDetected(t *testing.T) {
	d := startTestClusterPar(t, twoSlots(2), 0)
	p := baseParams()
	p.Src = fig4Queries[0].src
	_, err := d.Run(divergeQueryName, p.Encode(), time.Minute)
	if err == nil || !strings.Contains(err.Error(), "determinism") || !strings.Contains(err.Error(), "rank 1") {
		t.Fatalf("want a determinism violation naming rank 1, got %v", err)
	}
}

// TestQueryWorkerLossBeforeReply stops a rank once it and every other rank
// have computed their replies — all its shuffle output has been served —
// and loses it before it sends its own: no survivor holds its partitions
// of the result, so the job runs a second time on the two that are left.
// The result is local's byte for byte, nothing was recomputed from
// lineage, and the next query finds a world of two.
func TestQueryWorkerLossBeforeReply(t *testing.T) {
	d, err := cluster.NewDriver(cluster.DriverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	workers := make([]*cluster.Worker, 3)
	for i := range workers {
		if workers[i], err = cluster.StartWorker(cluster.WorkerConfig{ID: fmt.Sprintf("w%d", i), DriverAddr: d.Addr(), Parallelism: 2}); err != nil {
			t.Fatal(err)
		}
		defer workers[i].Close()
	}
	if err := d.WaitForWorkers(3, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	p := baseParams()
	p.Src = fig4Queries[0].src
	want, err := RunQueryLocal(p)
	if err != nil {
		t.Fatal(err)
	}

	// reached takes one send per rank of the world of three without blocking.
	reached, gate := make(chan string, 3), make(chan struct{})
	hook := func(env *cluster.JobEnv) {
		if env.World == 3 {
			reached <- env.WorkerTag
			if env.WorkerTag == "w2" {
				<-gate
			}
		}
	}
	beforeQueryReply.Store(&hook)
	defer beforeQueryReply.Store(nil)
	var release sync.Once
	defer release.Do(func() { close(gate) })

	type outcome struct {
		run *cluster.RunResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		run, err := d.Run(stopQueryName, p.Encode(), time.Minute)
		done <- outcome{run, err}
	}()
	for n := 0; n < 3; n++ {
		select {
		case <-reached:
		case <-time.After(30 * time.Second):
			t.Fatalf("%d of 3 ranks computed a reply", n)
		}
	}
	workers[2].Close()
	waitAlive(t, d, 2)
	release.Do(func() { close(gate) })

	out := <-done
	if out.err != nil {
		t.Fatalf("query with a rank lost before its reply: %v", out.err)
	}
	run := out.run
	if !bytes.Equal(run.Result, want) {
		t.Fatalf("result after the loss differs from local: %s vs %s", SummarizeBlob(run.Result), SummarizeBlob(want))
	}
	if run.Attempts != 2 || run.LostWorkers != 1 || run.Resubmissions != 0 {
		t.Fatalf("%d attempts, %d lost, %d resubmissions; want 2, 1, 0", run.Attempts, run.LostWorkers, run.Resubmissions)
	}
	if len(run.Workers) != 3 || !run.Workers[0].OK || !run.Workers[1].OK || !run.Workers[2].Lost || run.Workers[2].ID != "w2" {
		t.Fatalf("worker rows: want the second attempt's two, then the lost w2: %+v", run.Workers)
	}
	checkShippedOnce(t, run, run.Result, p)

	got, after, err := NewClusterSession(d, p, time.Minute).Query(p.Src)
	if err != nil || !bytes.Equal(got, want) || len(after.Workers) != 2 || after.Attempts != 1 || after.LostWorkers != 0 {
		t.Fatalf("next query: err %v, matches local %v, run %+v", err, bytes.Equal(got, want), after)
	}
}
