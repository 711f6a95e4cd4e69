package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/memory"
	"repro/internal/obs"
)

// shuffleChunkSize is the chunking granularity of published buckets. It
// bounds both sides of a streaming fetch: the server frames at most one
// chunk at a time and the client holds at most one chunk, so a 1 GiB
// bucket costs ~256 KiB of per-fetch memory, not 1 GiB.
const shuffleChunkSize = 256 << 10

// errFetchGone marks a fetch the peer answered with FetchGone: the
// bucket is unrecoverable there (its job failed), so retrying the same
// rank is pointless — callers go straight to lineage recompute.
var errFetchGone = errors.New("bucket gone")

// retryableFetch reports whether a fetch error is worth retrying
// against the same rank: timeouts, connection resets, and mid-stream
// EOFs are transient under load (or a stale pooled connection) and a
// fresh connection usually succeeds. FetchGone and exhausted dial
// budgets are final.
func retryableFetch(err error) bool {
	if err == nil || errors.Is(err, errFetchGone) {
		return false
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE)
}

// chunkOf is chunk i of a published blob: its bytes from i chunks in,
// at most a chunk of them. A bucket is chunked only here, on serve, so
// chunk boundaries are a function of the blob alone and a resumed
// stream is byte-identical to an uninterrupted one.
func chunkOf(blob []byte, i int) []byte {
	return blob[i*shuffleChunkSize : min((i+1)*shuffleChunkSize, len(blob))]
}

// chunkCount is how many chunks a blob of n bytes streams as.
func chunkCount(n int) int { return (n + shuffleChunkSize - 1) / shuffleChunkSize }

// jobStore holds one job's locally-produced shuffle buckets, each the
// blob as published. Fetches block until the bucket is published (a
// peer that runs ahead of us simply waits) or the job fails on this
// worker, at which point every pending and future fetch gets an error so
// peers fall back to lineage recompute instead of hanging.
//
// The store also holds the job's lease on the worker's buffer pool, which
// its blobs, fetch frames, tiles and result piece are drawn from. The
// lease is closed — everything still lent goes back to the pool — once the
// driver has ended the job (end) and nothing here reads its buffers any
// more: neither the job's program nor a serve of one of its buckets.
type jobStore struct {
	mu      sync.Mutex
	cond    *sync.Cond
	buckets map[string][]byte
	failed  bool
	ended   bool
	users   int // the program while it runs, plus the serves in flight
	lease   *memory.Lease
}

func newJobStore(lease *memory.Lease) *jobStore {
	s := &jobStore{buckets: make(map[string][]byte), lease: lease}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// enter admits the job's program as a reader of the store's buffers;
// false means the job has ended here already.
func (s *jobStore) enter() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return false
	}
	s.users++
	return true
}

// leave ends one reader's use, closing the lease if it was the last
// reader of an ended job.
func (s *jobStore) leave() {
	s.mu.Lock()
	s.users--
	last := s.ended && s.users == 0
	s.mu.Unlock()
	if last {
		s.lease.Close()
	}
}

// end retires the job: pending and later fetches fail, and the lease
// closes as soon as no reader is left — now, or when the last serve in
// flight or the program leaves.
func (s *jobStore) end() {
	s.mu.Lock()
	s.failed, s.ended = true, true
	s.cond.Broadcast()
	idle := s.users == 0
	s.mu.Unlock()
	if idle {
		s.lease.Close()
	}
}

func (s *jobStore) put(key string, blob []byte) {
	s.mu.Lock()
	s.buckets[key] = blob
	s.cond.Broadcast()
	s.mu.Unlock()
}

// waitGet blocks until key is present or the store failed. A blob it
// returns is the caller's to serve until it calls leave.
func (s *jobStore) waitGet(key string) ([]byte, error) {
	s.mu.Lock()
	for {
		if s.ended {
			s.mu.Unlock()
			return nil, fmt.Errorf("cluster: job ended on this worker")
		}
		if b, ok := s.buckets[key]; ok {
			s.users++
			s.mu.Unlock()
			return b, nil
		}
		if s.failed {
			s.mu.Unlock()
			return nil, fmt.Errorf("cluster: job failed on this worker")
		}
		s.cond.Wait()
	}
}

// fail marks the store dead and wakes all waiters with an error.
func (s *jobStore) fail() {
	s.mu.Lock()
	s.failed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// connPool keeps a few idle data connections to one peer so consecutive
// fetches skip the TCP handshake. It is deliberately dumb: any error
// on a pooled connection drains the whole pool (fail-fast — a peer
// that broke one connection likely broke them all).
type connPool struct {
	max int // idle connections kept

	mu     sync.Mutex
	idle   []net.Conn
	closed bool // its owner let go of it: nothing is parked any more
}

// get pops an idle connection, or returns nil when the caller must
// dial.
func (p *connPool) get() net.Conn {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.idle); n > 0 {
		c := p.idle[n-1]
		p.idle = p.idle[:n-1]
		return c
	}
	return nil
}

// put parks a healthy connection for reuse; overflow is closed.
func (p *connPool) put(c net.Conn) {
	p.mu.Lock()
	if !p.closed && len(p.idle) < p.max {
		p.idle = append(p.idle, c)
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	c.Close()
}

// drain closes every idle connection.
func (p *connPool) drain() {
	p.mu.Lock()
	idle := p.idle
	p.idle = nil
	p.mu.Unlock()
	for _, c := range idle {
		c.Close()
	}
}

// close drains the pool for good: what is parked later is closed too.
func (p *connPool) close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.drain()
}

// peerPools is a worker's idle data connections, one pool per peer data
// address. They belong to the worker, not to a job: a job's exchange
// borrows the pools of its peers, so the next job's first fetch finds the
// sockets the last one parked, and a finished job leaves none behind for
// the garbage collector's finalizers to close.
type peerPools struct {
	maxIdle int

	mu     sync.Mutex
	byAddr map[string]*connPool
	closed bool
}

// newPeerPools keeps up to maxIdle idle connections per peer. A worker
// sizes it to what its task slots fetch from one peer at once; a pool
// smaller than dataflow.StreamFetchWindow closes a socket at the end of
// every burst and dials it again at the start of the next.
func newPeerPools(maxIdle int) *peerPools {
	return &peerPools{maxIdle: maxIdle, byAddr: make(map[string]*connPool)}
}

// borrow returns the pools of a job's peers, indexed by rank. Pools of
// addresses that are not among them — workers that left — are closed and
// forgotten: a job that still holds one dials until it ends.
func (pp *peerPools) borrow(peers []string) []*connPool {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	out := make([]*connPool, len(peers))
	current := make(map[string]*connPool, len(peers))
	for r, addr := range peers {
		p := pp.byAddr[addr]
		if p == nil {
			p = &connPool{max: pp.maxIdle, closed: pp.closed}
		}
		current[addr], out[r] = p, p
	}
	for addr, p := range pp.byAddr {
		if current[addr] == nil {
			p.close()
		}
	}
	pp.byAddr = current
	return out
}

// close closes every pool, for good: the worker is shutting down.
func (pp *peerPools) close() {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	pp.closed = true
	for _, p := range pp.byAddr {
		p.close()
	}
}

// Exchange is one rank's view of a job's shuffle fabric. It satisfies
// dataflow's Transport interface structurally: Publish writes to the
// local store (this worker's data server hands the bucket to whoever
// asks) and FetchReader streams a bucket chunk-by-chunk from the owning
// rank's data server, so consumers pipeline decode against the network.
type Exchange struct {
	jobID int64
	rank  int
	peers []string // data addrs indexed by rank
	store *jobStore

	// fetchTimeout bounds one remote read; dialRetry/dialBackoff bound
	// connection attempts to a peer that is restarting or not yet up;
	// streamRetries bounds transparent resumes of one streaming fetch
	// after transient errors.
	fetchTimeout  time.Duration
	dialRetries   int
	dialBackoff   time.Duration
	streamRetries int

	mem atomic.Pointer[memory.Manager] // bounds per-fetch chunk buffers

	dead  []atomic.Bool // ranks this exchange has given up on
	pools []*connPool   // the worker's idle data connections, indexed by rank

	// c counts this job's wire traffic through this rank (the schema's
	// data-plane counters); the worker merges it into the rank's Report.
	c obs.LiveCounters
}

func newExchange(jobID int64, rank int, peers []string, store *jobStore, pools *peerPools) *Exchange {
	return &Exchange{
		jobID:         jobID,
		rank:          rank,
		peers:         peers,
		store:         store,
		fetchTimeout:  120 * time.Second,
		dialRetries:   5,
		dialBackoff:   50 * time.Millisecond,
		streamRetries: 2,
		dead:          make([]atomic.Bool, len(peers)),
		pools:         pools.borrow(peers),
	}
}

func (e *Exchange) Rank() int  { return e.rank }
func (e *Exchange) World() int { return len(e.peers) }

// Lease is the job's account with the worker's buffer pool, nil on a
// worker that pools nothing; dataflow takes it structurally when the
// transport is wired into a Context, and its shuffle blobs and decoded
// tiles draw from it.
func (e *Exchange) Lease() *memory.Lease { return e.store.lease }

// SetMemory installs the budget manager that bounds per-fetch chunk
// buffers; dataflow calls this structurally when the transport is
// wired into a Context.
func (e *Exchange) SetMemory(m *memory.Manager) { e.mem.Store(m) }

// Publish stores a locally-produced bucket for peers to fetch; every
// fetch serves the blob's own bytes, chunk by chunk.
func (e *Exchange) Publish(key string, blob []byte) error {
	e.store.put(key, blob)
	return nil
}

// markDead gives up on a rank: later fetches fail fast instead of
// re-dialing a corpse, and its idle connections are closed.
func (e *Exchange) markDead(rank int) {
	e.dead[rank].Store(true)
	e.pools[rank].drain()
}

// FetchReader streams the bucket key owned by rank, a peer: a rank never
// fetches from itself, and asking is an error. The reader yields the
// bucket bytes incrementally as chunks arrive, holding at most one
// chunk — reserved against the memory budget — at a time.
// Transient stream errors are retried transparently, resuming from the
// last delivered chunk. Any error means the caller should recompute the
// bucket from lineage — but only FATAL errors (FetchGone, dial or retry
// exhaustion) mark the rank dead. If the reader fails with a
// transport-level error (peer died, bucket gone), its TransportErr
// method returns it, distinguishing "recompute from lineage" from
// "payload corrupt".
func (e *Exchange) FetchReader(rank int, key string) (io.ReadCloser, error) {
	if rank < 0 || rank >= len(e.peers) {
		return nil, fmt.Errorf("cluster: fetch from rank %d of %d", rank, len(e.peers))
	}
	if rank == e.rank {
		return nil, fmt.Errorf("cluster: rank %d fetches %s from itself", rank, key)
	}
	if e.dead[rank].Load() {
		return nil, fmt.Errorf("cluster: rank %d marked dead", rank)
	}
	return &streamReader{e: e, rank: rank, key: key}, nil
}

// streamReader is the client side of one streaming fetch. It connects
// lazily (the first Read may block until the peer publishes the
// bucket — that wait IS the pipeline: other fetches progress
// meanwhile), holds one chunk at a time under a memory reservation,
// and transparently resumes after transient failures via FirstChunk.
type streamReader struct {
	e    *Exchange
	rank int
	key  string

	conn     net.Conn
	br       *bufio.Reader
	got      int   // chunks received on the CURRENT connection
	gotBytes int64 // their bytes, checked against the stream end
	next     int   // next chunk index expected = resume point
	attempts int   // transient retries consumed

	frame    []byte // frame payloads are read into this one buffer, chunk after chunk, lent by the job's lease
	cur      []byte // the current chunk's unconsumed bytes, in frame
	reserved int64  // memory reservation held for cur
	done     bool
	terr     error // transport-level failure, set once
}

func (s *streamReader) Read(p []byte) (int, error) {
	for len(s.cur) == 0 && !s.done {
		if s.terr != nil {
			return 0, s.terr
		}
		if err := s.fill(); err != nil {
			return 0, err
		}
	}
	if len(s.cur) == 0 {
		return 0, io.EOF
	}
	n := copy(p, s.cur)
	s.cur = s.cur[n:]
	if len(s.cur) == 0 {
		s.release()
	}
	return n, nil
}

// TransportErr reports the transport-level failure that ended the
// stream, if any. A Read error with a nil TransportErr means the
// payload itself was corrupt — recomputing would not help.
func (s *streamReader) TransportErr() error { return s.terr }

func (s *streamReader) Close() error {
	s.release()
	s.e.store.lease.Release(s.frame)
	s.frame = nil
	if s.conn != nil {
		if s.done {
			// Clean end: the connection is positioned at a frame
			// boundary and safe to reuse.
			_ = s.conn.SetDeadline(time.Time{})
			s.e.pools[s.rank].put(s.conn)
		} else {
			// Abandoned mid-stream: unread frames poison reuse.
			s.conn.Close()
		}
		s.conn, s.br = nil, nil
	}
	s.done = true
	return nil
}

func (s *streamReader) release() {
	if s.reserved > 0 {
		s.e.mem.Load().Release(s.reserved)
		s.reserved = 0
	}
	s.cur = nil
}

// fail records a fatal transport error and gives up on the rank.
func (s *streamReader) fail(err error) error {
	s.terr = err
	s.e.markDead(s.rank)
	if s.conn != nil {
		s.conn.Close()
		s.conn, s.br = nil, nil
	}
	return err
}

// retry tears down the current connection and decides whether the
// error is worth another attempt.
func (s *streamReader) retry(err error) error {
	if s.conn != nil {
		s.conn.Close()
		s.conn, s.br = nil, nil
	}
	// Fail-fast pool semantics: an error talking to this peer poisons
	// its idle connections too.
	s.e.pools[s.rank].drain()
	if !retryableFetch(err) || s.attempts >= s.e.streamRetries {
		return s.fail(err)
	}
	s.attempts++
	s.e.c.FetchRetries.Add(1)
	return nil
}

// fill advances the stream by one protocol frame, (re)connecting as
// needed. On return either s.cur holds chunk bytes, s.done is set, or
// an error is final.
func (s *streamReader) fill() error {
	if s.conn == nil {
		if err := s.connect(); err != nil {
			return s.fail(err) // dial exhaustion is fatal
		}
		req := fetchStreamMsg{
			JobID:      s.e.jobID,
			Key:        s.key,
			FirstChunk: int64(s.next),
		}
		_ = s.conn.SetDeadline(time.Now().Add(s.e.fetchTimeout))
		if err := writeFrame(s.conn, msgFetchStream, req.encode()); err != nil {
			return s.retry(fmt.Errorf("cluster: send fetch-stream to rank %d: %w", s.rank, err))
		}
	}
	_ = s.conn.SetDeadline(time.Now().Add(s.e.fetchTimeout))
	if s.frame == nil {
		s.frame = s.e.store.lease.Bytes(shuffleChunkSize)[:0]
	}
	// No frame of a stream is longer than a chunk, so each is read into
	// frame, which is free to overwrite: cur is empty (Read fills only
	// then).
	typ, size, err := readFrameHead(s.br)
	if err != nil {
		return s.retry(fmt.Errorf("cluster: read stream from rank %d: %w", s.rank, err))
	}
	if size > shuffleChunkSize {
		return s.fail(fmt.Errorf("cluster: rank %d sent a %d-byte frame, more than a chunk", s.rank, size))
	}
	payload, err := readPayload(s.br, size, s.frame)
	if err != nil {
		return s.retry(fmt.Errorf("cluster: read stream from rank %d: %w", s.rank, err))
	}
	switch typ {
	case msgStreamChunk:
		s.e.mem.Load().Reserve(int64(len(payload)))
		s.reserved = int64(len(payload))
		s.cur = payload
		s.next++
		s.got++
		s.gotBytes += int64(len(payload))
		s.e.c.WireFetchedBytes.Add(frameBytes(len(payload)))
		s.e.c.WireRawBytes.Add(int64(len(payload)))
		s.e.c.ChunksFetched.Add(1)
		return nil
	case msgStreamEnd:
		end, err := decodeStreamEnd(payload)
		if err != nil {
			return s.fail(fmt.Errorf("cluster: rank %d sent bad stream end: %w", s.rank, err))
		}
		// The totals cover this response, from the FirstChunk it asked
		// for: what this connection received, resumed or not.
		if int64(s.got) != end.Chunks || s.gotBytes != end.Bytes {
			return s.fail(fmt.Errorf("cluster: rank %d stream mismatch: got %d chunks/%d bytes, peer sent %d/%d",
				s.rank, s.got, s.gotBytes, end.Chunks, end.Bytes))
		}
		s.done = true
		return nil
	case msgFetchGone:
		s.e.c.FetchGoneEvents.Add(1)
		return s.fail(fmt.Errorf("cluster: rank %d lost bucket %s: %s: %w", s.rank, s.key, payload, errFetchGone))
	default:
		return s.fail(fmt.Errorf("cluster: unexpected frame type %d from rank %d", typ, s.rank))
	}
}

// connect acquires a connection to the peer: pooled if available,
// freshly dialed (with backoff) otherwise.
func (s *streamReader) connect() error {
	if s.conn != nil {
		return nil
	}
	s.got, s.gotBytes = 0, 0
	if c := s.e.pools[s.rank].get(); c != nil {
		s.conn, s.br = c, bufio.NewReader(c)
		s.e.c.ConnPoolHits.Add(1)
		return nil
	}
	s.e.c.ConnPoolMisses.Add(1)
	var err error
	for attempt := 0; ; attempt++ {
		var c net.Conn
		c, err = net.DialTimeout("tcp", s.e.peers[s.rank], s.e.fetchTimeout)
		if err == nil {
			s.conn, s.br = c, bufio.NewReader(c)
			return nil
		}
		if attempt >= s.e.dialRetries {
			return fmt.Errorf("cluster: dial rank %d (%s): %w", s.rank, s.e.peers[s.rank], err)
		}
		s.e.c.FetchRetries.Add(1)
		time.Sleep(s.e.dialBackoff << uint(attempt))
	}
}
