package dataflow

// Distributed SPMD execution. The cluster runtime runs the *same*
// deterministic driver program on every worker process (rank 0..W-1 of
// a world of W): queries are data in this system, so every rank builds
// an identical stage DAG with identical stage IDs, and ownership is
// pure arithmetic — task i of an n-task stage runs on rank i % W.
//
// A shuffle is the one segment store of shuffle.go with a Transport
// beside it: a rank holds the segments of the map tasks it ran, and
// publishes, encoded with the row type's spill codec, one blob per map
// task and peer rank — the segments for the reduce partitions that peer
// owns, in one grouped blob that writes a value repeated inside it once
// (spill.EncodeGroups). A rank publishes only what a peer reads: its own
// partitions' segments it reads where they rest, a narrow
// (co-partitioned) exchange reads on-rank only, and a world of one
// publishes nothing. The first reduce task on a rank that lacks map task
// m fetches m's blob for that rank once and files its segments beside
// the rank's own, so sibling partitions read them without fetching
// again. A reduce partition is still every map task's segment in
// map-task order. That order is the local backend's, which is what makes
// cluster results byte-identical to local ones.
//
// Fault tolerance is lineage recompute: when a fetch fails because the
// owning peer died, the reading rank runs the lost map task itself from its
// lineage (sources are deterministic and replicated; narrow chains are
// local), exactly like Spark resubmitting a lost task, and from then on
// holds its segments like any it owns. A rank that takes over a lost
// rank's partition recomputes the lost rank's own map tasks too: their
// segments for it were never published, and died with their owner. The
// Resubmissions / FetchFailures counters record it. Every stage a
// surviving rank needs therefore completes as long as that rank survives.
//
// An action runs one gather (below): every rank computes the partitions
// it owns, each as a task of its own. One whose value the program itself
// goes on with (Collect, Count, Reduce, Aggregate) also publishes
// them to its peers, if it has any, and fetches or recomputes the rest,
// so all ranks return the same value and stay in step. One whose value
// leaves the job (CollectOwned: a query result on its way to the driver)
// stops at the owned partitions — nothing is published or fetched, and a
// lost rank's partitions are lost with it; the caller above
// (cluster.Driver) runs the job again. Either way a rank's stage row
// counts what that rank computed.

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/spill"
)

// Transport connects one rank of a distributed job to its peers. It is
// implemented by cluster.Exchange (over TCP) and by in-process test
// fakes; dataflow deliberately depends only on this structural
// interface, never on the cluster package.
type Transport interface {
	// Rank is this process's 0-based index in the job.
	Rank() int
	// World is the number of ranks in the job.
	World() int
	// Publish stores blob under key in this rank's shuffle store,
	// where peers can fetch it.
	Publish(key string, blob []byte) error
	// FetchReader streams the blob published under key by rank, a peer
	// (a rank never fetches from itself), so the consumer decodes while
	// bytes are still arriving. The first read blocks until the owner
	// publishes; it or any later read fails when the owner is dead or
	// unreachable, and the caller falls back to lineage recompute.
	//
	// If a returned reader can fail mid-stream for transport reasons
	// (the peer died), it should also implement `TransportErr() error`
	// so the consumer can tell "recompute from lineage" apart from
	// "payload corrupt" — a decode failure with a nil TransportErr is
	// treated as corruption and panics.
	FetchReader(rank int, key string) (io.ReadCloser, error)
}

// transportErr extracts a reader's transport-level failure, if it
// exposes one.
func transportErr(rc io.ReadCloser) error {
	if te, ok := rc.(interface{ TransportErr() error }); ok {
		return te.TransportErr()
	}
	return nil
}

// blobKey names the shuffle blob map task m of exchange exch publishes
// for rank r. Stage IDs are deterministic across ranks (the graph is
// built by the same single-threaded program), so they double as exchange
// IDs.
func blobKey(exch int64, m, r int) string {
	return fmt.Sprintf("x%d.%d.%d", exch, m, r)
}

// gatherKey names one action partial (stage, partition).
func gatherKey(stage int64, p int) string {
	return fmt.Sprintf("g%d.%d", stage, p)
}

// publishRows frames rows with their codec — the cluster wire format —
// and publishes them under key.
func publishRows[T any](c *Context, codec spill.Codec[T], key string, rows []T) {
	blob, err := spill.EncodeRows(rows, codec)
	if err == nil {
		err = c.conf.Transport.Publish(key, blob)
	}
	if err != nil {
		panic(fmt.Errorf("dataflow: publish %s: %w", key, err))
	}
}

// fetchBlob streams the blob rank published under key through decode. ok
// is false when the transport failed (owner dead, stream torn down
// mid-transfer) and the caller must recompute it from lineage; payload
// corruption — a decode failure with no transport error behind it —
// panics, because recomputing deterministic lineage would produce the
// same bytes.
func fetchBlob[R any](c *Context, rank int, key string, decode func(io.Reader) (R, error)) (out R, ok bool) {
	rc, err := c.conf.Transport.FetchReader(rank, key)
	if err == nil {
		out, err = decode(rc)
		if err == nil {
			// Drain the trailing stream terminator so a cleanly-finished
			// connection goes back to the transport's pool on Close.
			_, err = io.Copy(io.Discard, rc)
		}
		rc.Close()
		if err == nil {
			c.metrics.c.RemoteFetches.Add(1)
			return out, true
		}
		if transportErr(rc) == nil {
			panic(fmt.Errorf("dataflow: decode %s from rank %d: %w", key, rank, err))
		}
	}
	c.metrics.c.FetchFailures.Add(1)
	var zero R
	return zero, false
}

// groups lists the reduce partitions the blob of a map task for rank r
// carries, ascending: those r owns (b ≡ r mod W).
func (s *lazyBuckets[T]) groups(r int) []int {
	var bs []int
	for b := r; b < s.parts; b += s.ctx.conf.Transport.World() {
		bs = append(bs, b)
	}
	return bs
}

// publish makes map task m's segments available to the peers: one blob
// per other rank that owns reduce partitions, holding this task's
// segments for them. A local context and a narrow exchange have nobody
// to publish to.
func (s *lazyBuckets[T]) publish(m int, sg []bucketed[T]) {
	t := s.ctx.conf.Transport
	if t == nil || s.narrow {
		return
	}
	for r := 0; r < t.World(); r++ {
		bs := s.groups(r)
		if r == t.Rank() || len(bs) == 0 {
			continue
		}
		groups := make([][]T, len(bs))
		for i, b := range bs {
			groups[i] = s.read(&sg[b])
		}
		key := blobKey(s.stage.id, m, r)
		blob, err := spill.EncodeGroups(groups, s.codec, s.ctx.lease)
		if err == nil {
			err = t.Publish(key, blob)
		}
		if err != nil {
			panic(fmt.Errorf("dataflow: publish %s: %w", key, err))
		}
	}
}

// StreamFetchWindow bounds the concurrent blob fetches one reduce task
// keeps in flight while assembling its partition. The window is what
// pipelines the shuffle: a fetch from a map task that hasn't published
// yet just blocks its slot while chunks from early-finishing maps decode
// in the others. Exported for the transport: a per-peer connection pool
// smaller than the window re-dials on every burst.
const StreamFetchWindow = 4

// fetchRemote fills the nil entries of cols — column p of map tasks lo
// onwards — with the segments this rank does not hold, fetching a blob
// for each, up to StreamFetchWindow at a time. A segment whose owner
// cannot serve it is recomputed here with the rest of its map task's,
// and from then on this rank holds them.
func (s *lazyBuckets[T]) fetchRemote(p, lo int, cols []*bucketed[T]) {
	var missing []int
	for i, bk := range cols {
		if bk == nil {
			missing = append(missing, lo+i)
		}
	}
	fetch := func(m int) {
		if bk := s.fetched(m, p); bk != nil {
			cols[m-lo] = bk
			return
		}
		s.recompute(m)
		cols[m-lo] = &s.seg[m][p]
	}
	if len(missing) <= 1 {
		for _, m := range missing {
			fetch(m)
		}
		return
	}
	sem := make(chan struct{}, StreamFetchWindow)
	var wg sync.WaitGroup
	var panicked atomic.Pointer[capturedPanic]
	for _, m := range missing {
		if panicked.Load() != nil {
			break
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			defer func() { <-sem }()
			defer func() {
				if r := recover(); r != nil {
					panicked.CompareAndSwap(nil, &capturedPanic{val: r})
				}
			}()
			fetch(m)
		}(m)
	}
	wg.Wait()
	if pc := panicked.Load(); pc != nil {
		panic(pc.val)
	}
}

// fetchedBlob is one blob (map task, rank) as this rank received it. Its
// segments are indexed by reduce partition like a map task's, only the
// rank's own filled; segs stays nil until they are filed, and for good if
// the fetch failed.
type fetchedBlob[T any] struct {
	once sync.Once
	segs []bucketed[T]
}

// fetched returns this rank's copy of map task m's segment for partition
// p, out of the blob m's owner published for p's rank: the first reader
// fetches the blob and files all its segments, later readers of any of
// its partitions find them filed. p's rank is this one, or — when this
// rank computes another's partition after a loss — the rank whose
// buckets the blob holds, which is why the blob is filed under it. It
// returns nil if the owner could not serve the blob, or never published
// it: a map task's segments for its own rank's partitions.
func (s *lazyBuckets[T]) fetched(m, p int) *bucketed[T] {
	w := s.ctx.conf.Transport.World()
	if m%w == p%w {
		return nil
	}
	id := [2]int{m, p % w}
	s.mu.Lock()
	f := s.got[id]
	if f == nil {
		if s.got == nil {
			s.got = make(map[[2]int]*fetchedBlob[T])
		}
		f = &fetchedBlob[T]{}
		s.got[id] = f
	}
	s.mu.Unlock()
	f.once.Do(func() {
		bs := s.groups(p % w)
		groups, ok := fetchBlob(s.ctx, m%w, blobKey(s.stage.id, m, p%w), func(r io.Reader) ([][]T, error) {
			return spill.DecodeGroupsFrom(r, s.codec, len(bs), s.ctx.lease)
		})
		if !ok {
			return
		}
		segs := s.rest(bs, groups)
		s.mu.Lock() // column reads segs under mu; readers past Do need no lock
		f.segs = segs
		s.mu.Unlock()
	})
	if f.segs == nil {
		return nil
	}
	return &f.segs[p]
}

// rest files the groups of a fetched blob, partitions bs, as segments
// resting on this rank like those of a map task it ran: under a budget
// through the shuffle writer, which reserves their bytes and spills them
// when refused. So a budgeted rank stays in budget, and a partition read
// that is not kept finds them again in their run files.
func (s *lazyBuckets[T]) rest(bs []int, groups [][]T) []bucketed[T] {
	tb := s.newTask()
	for i, b := range bs {
		if tb.mem == nil {
			tb.buckets[b].rows = groups[i]
			continue
		}
		for _, v := range groups[i] {
			tb.add(b, v)
		}
	}
	tb.finish()
	return tb.buckets
}

// recompute re-executes a dead rank's map task m from lineage — the
// distributed task resubmission path. Its segments then rest here like
// those of an owned task, so losing a worker costs each surviving rank
// at most one recompute per lost map task.
func (s *lazyBuckets[T]) recompute(m int) {
	s.recMu.Lock()
	defer s.recMu.Unlock()
	if s.seg[m] == nil {
		s.ctx.metrics.c.Resubmissions.Add(1)
		s.runTask(m)
	}
}

// gather runs an action's per-partition work: compute(p), as a task of
// st, for each partition p in [lo,hi) this process owns — a local context
// owns all of them — and returns the partials indexed p-lo. With share
// the action's value is one every rank goes on with (Collect, Count,
// Reduce, Aggregate: the SPMD program branches on it), so on a
// cluster of more than one rank each rank also publishes the partials it
// computed and fetches the rest from their owners, computing a partition
// itself, as a task of its own and a resubmission, when the owner is
// gone; every rank then returns the identical partials and drives the
// identical fold. Without share the other ranks' partials stay nil. A
// shared gather under a Transport panics before computing anything if T
// has no registered codec, whatever the world.
func gather[T any](c *Context, st *Stage, lo, hi int, share bool, compute func(p int) []T) [][]T {
	t := c.conf.Transport
	var codec spill.Codec[T]
	if share && t != nil {
		codec = spill.For[T]()
	}
	share = share && t != nil && t.World() > 1
	out := make([][]T, hi-lo)
	c.runTasksOwned(st, lo, hi, func(p int) {
		out[p-lo] = compute(p)
		if share {
			publishRows(c, codec, gatherKey(st.id, p), out[p-lo])
		}
	})
	if !share {
		return out
	}
	for p := lo; p < hi; p++ {
		if c.owns(p) {
			continue
		}
		rows, ok := fetchBlob(c, p%t.World(), gatherKey(st.id, p), func(r io.Reader) ([]T, error) {
			return spill.DecodeRowsFrom(r, codec)
		})
		if !ok {
			c.metrics.c.Resubmissions.Add(1)
			c.runTaskStride(st, p, p+1, 1, func(p int) { rows = compute(p) })
		}
		out[p-lo] = rows
	}
	return out
}
