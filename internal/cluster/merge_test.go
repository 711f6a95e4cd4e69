package cluster

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// "test.partitioned" is the smallest program with a Merge: rank r of W
// replies "W|r|<r>", and the result is the payloads in rank order once
// every rank of the world every reply names has sent one. beforeReply,
// when set, runs on each rank between computing the reply and returning
// it — where a test stops a rank.
var beforeReply atomic.Pointer[func(env *JobEnv)]

func init() {
	partitioned := func(world func(env *JobEnv) int) Program {
		return func(env *JobEnv) ([]byte, Report, error) {
			reply := fmt.Sprintf("%d|%d|<%d>", world(env), env.Rank, env.Rank)
			if hook := beforeReply.Load(); hook != nil {
				(*hook)(env)
			}
			return []byte(reply), Report{Resubmissions: 1}, nil
		}
	}
	RegisterProgram("test.partitioned", partitioned(func(env *JobEnv) int { return env.World }))
	RegisterMerge("test.partitioned", Collect(mergePartitioned))
	// Rank 1 believes in a larger world than the others.
	RegisterProgram("test.partitioned-diverges", partitioned(func(env *JobEnv) int { return env.World + env.Rank%2 }))
	RegisterMerge("test.partitioned-diverges", Collect(mergePartitioned))
}

// Collect is the Merge that reads each reply whole and hands them, in rank
// order, to merge once the job has settled.
func Collect(merge func(replies []RankResult) ([]byte, error)) Merge {
	return func() Merger { return &collected{merge: merge} }
}

type collected struct {
	merge   func([]RankResult) ([]byte, error)
	mu      sync.Mutex
	replies []RankResult
	done    bool
}

func (c *collected) Add(rank int, r io.Reader, size int64) error {
	reply := make([]byte, size)
	if _, err := io.ReadFull(r, reply); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.done {
		c.replies = append(c.replies, RankResult{Rank: rank, Result: reply})
	}
	return nil
}

func (c *collected) Result() ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.done = true
	sort.Slice(c.replies, func(i, j int) bool { return c.replies[i].Rank < c.replies[j].Rank })
	return c.merge(c.replies)
}

func mergePartitioned(replies []RankResult) ([]byte, error) {
	var world int
	var out []byte
	for n, r := range replies {
		var w, rank int
		var payload string
		if _, err := fmt.Sscanf(string(r.Result), "%d|%d|%s", &w, &rank, &payload); err != nil || rank != r.Rank {
			return nil, fmt.Errorf("rank %d: malformed part %q", r.Rank, r.Result)
		}
		if n > 0 && w != world {
			return nil, fmt.Errorf("rank %d: a part of a world of %d, rank %d's of %d — SPMD determinism violated", r.Rank, w, replies[0].Rank, world)
		}
		world, out = w, append(out, payload...)
	}
	if len(replies) != world {
		return nil, fmt.Errorf("%d of %d parts: %w", len(replies), world, ErrIncomplete)
	}
	return out, nil
}

// stoppedRank is a rank waiting between its reply computed and its reply
// sent; resume lets it go on.
type stoppedRank struct {
	tag  string
	once sync.Once
	gate chan struct{}
}

func (s *stoppedRank) resume() { s.once.Do(func() { close(s.gate) }) }

// stopRanks arms beforeReply to stop the ranks stops selects: each shows
// up on the returned channel and waits to be resumed (at the latest when
// the test ends). Ranks it does not select reply at once.
func stopRanks(t *testing.T, stops func(env *JobEnv) bool) <-chan *stoppedRank {
	t.Helper()
	reached := make(chan *stoppedRank, 16) // above any test's count of stops, so a rank never waits to report one
	var mu sync.Mutex
	var all []*stoppedRank
	hook := func(env *JobEnv) {
		if stops(env) {
			s := &stoppedRank{tag: env.WorkerTag, gate: make(chan struct{})}
			mu.Lock()
			all = append(all, s)
			mu.Unlock()
			reached <- s
			<-s.gate
		}
	}
	beforeReply.Store(&hook)
	t.Cleanup(func() {
		beforeReply.Store(nil)
		mu.Lock()
		defer mu.Unlock()
		for _, s := range all {
			s.resume()
		}
	})
	return reached
}

func waitStopped(t *testing.T, stopped <-chan *stoppedRank, want string) *stoppedRank {
	t.Helper()
	select {
	case got := <-stopped:
		if want != "" && got.tag != want {
			t.Fatalf("stopped %s, want %s", got.tag, want)
		}
		return got
	case <-time.After(5 * time.Second):
		t.Fatalf("no rank (want %q) reached its reply", want)
		return nil
	}
}

// loseWorker closes w and waits for the driver to have noticed.
func loseWorker(t *testing.T, d *Driver, w *Worker, alive int) {
	t.Helper()
	w.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := 0
		for _, wi := range d.Workers() {
			if wi.Alive {
				n++
			}
		}
		if n == alive {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d workers alive, want %d", n, alive)
		}
		time.Sleep(time.Millisecond)
	}
}

type runOutcome struct {
	res *RunResult
	err error
}

func runAsync(d *Driver, program string) <-chan runOutcome {
	done := make(chan runOutcome, 1)
	go func() {
		res, err := d.Run(program, nil, 20*time.Second)
		done <- runOutcome{res, err}
	}()
	return done
}

// TestPartitionedRun: a program with a Merge gets its result from the
// Merge, not from a comparison — the ranks' replies differ by design.
func TestPartitionedRun(t *testing.T) {
	d, _ := startCluster(t, 3, 3*time.Second)
	res, err := d.Run("test.partitioned", nil, 10*time.Second)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := string(res.Result); got != "<0><1><2>" || res.Attempts != 1 || res.LostWorkers != 0 {
		t.Fatalf("result %q after %d attempts, %d lost", got, res.Attempts, res.LostWorkers)
	}
}

// TestPartitionedMismatchDetected is TestResultMismatchDetected for a
// partitioned program: what the W-way comparison was for a replicated
// result, the Merge's own consistency check is for this one, and its
// error reaches the caller naming the rank.
func TestPartitionedMismatchDetected(t *testing.T) {
	d, _ := startCluster(t, 2, 3*time.Second)
	_, err := d.Run("test.partitioned-diverges", nil, 10*time.Second)
	if err == nil || !strings.Contains(err.Error(), "determinism") || !strings.Contains(err.Error(), "rank 1") {
		t.Fatalf("want a determinism violation naming rank 1, got %v", err)
	}
}

// TestPartitionedRunSurvivesALoss: a rank stopped with its part computed
// and lost before it replies leaves a result no survivor can complete, so
// the job runs again on the two that are left — one result, two attempts,
// the loss and both attempts' resubmissions counted.
func TestPartitionedRunSurvivesALoss(t *testing.T) {
	d, ws := startCluster(t, 3, 3*time.Second)
	stopped := stopRanks(t, func(env *JobEnv) bool { return env.WorkerTag == "w2" })
	done := runAsync(d, "test.partitioned")
	victim := waitStopped(t, stopped, "w2")
	loseWorker(t, d, ws[2], 2)
	victim.resume()
	out := <-done
	if out.err != nil {
		t.Fatalf("run: %v", out.err)
	}
	res := out.res
	if got := string(res.Result); got != "<0><1>" || res.Attempts != 2 || res.LostWorkers != 1 {
		t.Fatalf("result %q after %d attempts, %d lost", got, res.Attempts, res.LostWorkers)
	}
	// The second attempt's two ranks, then the rank the first one lost.
	if len(res.Workers) != 3 || !res.Workers[0].OK || !res.Workers[1].OK || !res.Workers[2].Lost || res.Workers[2].ID != "w2" {
		t.Fatalf("worker rows %+v", res.Workers)
	}
	// Two survivors of the first attempt, two ranks of the second.
	if res.Resubmissions != 4 {
		t.Fatalf("%d resubmissions summed over the attempts, want 4", res.Resubmissions)
	}
	after, err := d.Run("test.partitioned", nil, 10*time.Second)
	if err != nil || string(after.Result) != "<0><1>" || after.Attempts != 1 {
		t.Fatalf("next job: %+v, %v", after, err)
	}
}

// TestPartitionedRunLosesEveryRank: with every rank gone there is nobody
// to run the job again; that is an error, at once.
func TestPartitionedRunLosesEveryRank(t *testing.T) {
	d, ws := startCluster(t, 2, 3*time.Second)
	stopped := stopRanks(t, func(*JobEnv) bool { return true })
	done := runAsync(d, "test.partitioned")
	waitStopped(t, stopped, "")
	waitStopped(t, stopped, "")
	loseWorker(t, d, ws[0], 1)
	loseWorker(t, d, ws[1], 0)
	out := <-done
	if out.err == nil || !strings.Contains(out.err.Error(), "all workers lost") {
		t.Fatalf("want all workers lost, got %+v, %v", out.res, out.err)
	}
}

// TestPartitionedRunSecondLoss: a rank of the second attempt lost as well
// is an error that says so — Run tries again once, not until it is alone.
func TestPartitionedRunSecondLoss(t *testing.T) {
	d, ws := startCluster(t, 3, 3*time.Second)
	stopped := stopRanks(t, func(env *JobEnv) bool {
		return env.WorkerTag == "w2" || (env.WorkerTag == "w1" && env.World == 2)
	})
	done := runAsync(d, "test.partitioned")
	victim := waitStopped(t, stopped, "w2")
	loseWorker(t, d, ws[2], 2)
	victim.resume()
	victim = waitStopped(t, stopped, "w1")
	loseWorker(t, d, ws[1], 1)
	victim.resume()
	out := <-done
	if out.err == nil || !errors.Is(out.err, ErrIncomplete) || !strings.Contains(out.err.Error(), "re-run after losing 1 worker") {
		t.Fatalf("want an incomplete re-run, got %+v, %v", out.res, out.err)
	}
	// The one worker left is a cluster of one.
	after, err := d.Run("test.partitioned", nil, 10*time.Second)
	if err != nil || string(after.Result) != "<0>" {
		t.Fatalf("next job: %+v, %v", after, err)
	}
}
