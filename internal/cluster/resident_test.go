package cluster

// What a worker keeps between jobs: the keyed resident store and the
// per-peer connection pools.

import (
	"bytes"
	"errors"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/dataflow"
)

// TestResidentKeepsTheLatestKey: one key's value is built once and found
// again, another key's replaces it, and a released store (or a released
// one asked again) keeps nothing but still serves the caller.
func TestResidentKeepsTheLatestKey(t *testing.T) {
	var r Resident
	builds := 0
	build := func() any { builds++; return &builds }
	a1 := r.Get("a", build)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if r.Get("a", build) != a1 {
				t.Error("a second value for one key")
			}
		}()
	}
	wg.Wait()
	if builds != 1 {
		t.Fatalf("key a built %d times", builds)
	}
	type box struct{ int }
	b := r.Get("b", func() any { return &box{1} })
	if b == a1 || r.Get("b", func() any { return &box{2} }) != b {
		t.Fatal("key b did not replace key a and stay")
	}
	if r.Get("a", func() any { return &box{3} }) == a1 {
		t.Fatal("a replaced key was still kept")
	}
	r.release()
	c1 := r.Get("c", func() any { return &box{4} })
	if c2 := r.Get("c", func() any { return &box{5} }); c1 == nil || c2 == c1 {
		t.Fatal("a released store kept a value")
	}
	(*Resident)(nil).release()
}

// TestBudgetedWorkerKeepsNothing: a worker with a memory budget hands its
// programs no resident store, whatever they would put there.
func TestBudgetedWorkerKeepsNothing(t *testing.T) {
	d, err := NewDriver(DriverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for _, budget := range []int64{0, 1 << 20} {
		w, err := StartWorker(WorkerConfig{ID: "w", DriverAddr: d.Addr(), MemoryBudget: budget})
		if err != nil {
			t.Fatal(err)
		}
		if (w.resident == nil) != (budget > 0) {
			t.Fatalf("budget %d: resident store %v", budget, w.resident)
		}
		if w.pools.maxIdle < dataflow.StreamFetchWindow {
			t.Fatalf("pool keeps %d idle connections, a fetch window is %d", w.pools.maxIdle, dataflow.StreamFetchWindow)
		}
		w.Close()
	}
}

// pipeClosed reports whether the far end of c's pipe was closed.
func pipeClosed(c net.Conn) bool {
	_ = c.SetReadDeadline(time.Now().Add(2 * time.Second))
	_, err := c.Read(make([]byte, 1))
	return err != nil && !errors.Is(err, os.ErrDeadlineExceeded)
}

// TestPeerPoolsLifetime: a pool outlives the exchange that filled it,
// keeps no more than its cap, is closed when its peer leaves the job's
// peer list and when the worker shuts down, and closes what is parked
// after that.
func TestPeerPoolsLifetime(t *testing.T) {
	pp := newPeerPools(2)
	park := func(p *connPool) net.Conn {
		near, far := net.Pipe()
		p.put(near)
		return far
	}
	first := pp.borrow([]string{"a", "b"})
	a1, a2, a3 := park(first[0]), park(first[0]), park(first[0])
	if !pipeClosed(a3) {
		t.Fatal("a third connection was kept in a pool of two")
	}
	second := pp.borrow([]string{"a", "b"})
	if second[0] != first[0] || second[0].get() == nil || second[0].get() == nil || second[0].get() != nil {
		t.Fatal("the next job did not find the two connections the last one parked")
	}
	_, _ = a1, a2
	b1 := park(second[1])
	third := pp.borrow([]string{"a", "c"})
	if !pipeClosed(b1) || third[0] != first[0] {
		t.Fatal("a departed peer's pool was not closed, or a staying peer's was replaced")
	}
	if late := park(second[1]); !pipeClosed(late) {
		t.Fatal("a closed pool parked a connection")
	}
	c1 := park(third[1])
	pp.close()
	if !pipeClosed(c1) || !pipeClosed(park(third[1])) || !pipeClosed(park(pp.borrow([]string{"d"})[0])) {
		t.Fatal("a shut-down worker's pools still hold connections")
	}
}

// recordingListener remembers the server side of every connection.
type recordingListener struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *recordingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.conns = append(l.conns, c)
		l.mu.Unlock()
	}
	return c, err
}

func (l *recordingListener) closeAccepted() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		c.Close()
	}
	l.conns = nil
}

// TestPooledConnectionsCrossJobs: the second job's exchange fetches over
// the socket the first one parked, without dialing; and when the peer has
// closed that socket in between, the fetch is retried on a fresh one and
// the rank is not given up on.
func TestPooledConnectionsCrossJobs(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingListener{Listener: ln}
	w := &Worker{cfg: WorkerConfig{ID: "data-only"}, dataLn: rec, stores: make(map[int64]*jobStore)}
	go w.dataLoop()
	t.Cleanup(func() { ln.Close() })
	addr := ln.Addr().String()

	pools := newPeerPools(dataflow.StreamFetchWindow)
	blob := bytes.Repeat([]byte("tile"), 5000)
	job := func(id int64) *Exchange {
		server := newExchange(id, 1, nil, w.storeFor(id), newPeerPools(0))
		if err := server.Publish("k", blob); err != nil {
			t.Fatal(err)
		}
		e := newExchange(id, 0, []string{"unused-self", addr}, newJobStore(nil), pools)
		e.fetchTimeout, e.dialBackoff = 5*time.Second, 5*time.Millisecond
		got, err := fetchAll(e, 1, "k")
		if err != nil || !bytes.Equal(got, blob) {
			t.Fatalf("job %d: fetched %d bytes: %v", id, len(got), err)
		}
		if e.dead[1].Load() {
			t.Fatalf("job %d: healthy rank marked dead", id)
		}
		return e
	}
	if e := job(1); e.c.ConnPoolMisses.Load() != 1 || e.c.ConnPoolHits.Load() != 0 {
		t.Fatalf("first job: %d dials, %d pool hits", e.c.ConnPoolMisses.Load(), e.c.ConnPoolHits.Load())
	}
	if e := job(2); e.c.ConnPoolMisses.Load() != 0 || e.c.ConnPoolHits.Load() != 1 || e.c.FetchRetries.Load() != 0 {
		t.Fatalf("second job: %d dials, %d pool hits, %d retries",
			e.c.ConnPoolMisses.Load(), e.c.ConnPoolHits.Load(), e.c.FetchRetries.Load())
	}
	rec.closeAccepted() // the peer drops its end between two jobs
	if e := job(3); e.c.ConnPoolHits.Load() != 1 || e.c.ConnPoolMisses.Load() != 1 || e.c.FetchRetries.Load() != 1 {
		t.Fatalf("job over a stale socket: %d pool hits, %d dials, %d retries",
			e.c.ConnPoolHits.Load(), e.c.ConnPoolMisses.Load(), e.c.FetchRetries.Load())
	}
	if e := job(4); e.c.ConnPoolMisses.Load() != 0 {
		t.Fatalf("job after the retry dialed %d times", e.c.ConnPoolMisses.Load())
	}
}

// TestSecondJobDialsNothing: on real workers, every fetch of a job after
// the first finds a pooled connection.
func TestSecondJobDialsNothing(t *testing.T) {
	d, _ := startCluster(t, 3, 3*time.Second)
	for job := 0; job < 3; job++ {
		res, err := d.Run("test.exchange-ring", nil, 10*time.Second)
		if err != nil {
			t.Fatalf("job %d: %v", job, err)
		}
		for _, wr := range res.Workers {
			hits, misses := wr.Report.ConnPoolHits, wr.Report.ConnPoolMisses
			if hits+misses != 2 || (job > 0 && misses != 0) {
				t.Fatalf("job %d, %s: %d pool hits, %d dials", job, wr.ID, hits, misses)
			}
		}
	}
}
