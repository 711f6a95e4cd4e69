package cluster

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataflow"
	"repro/internal/memory"
	"repro/internal/obs"
)

// endedJobsKept bounds the memory of retired job IDs. A straggler fetch
// is seconds behind its job's end, not endedJobsKept jobs behind.
const endedJobsKept = 128

// resultBufSize is the buffer a result crosses the control connection
// through, on both sides: the worker writes it through one this size, and
// the driver reads a worker's frames through one (a piece's rows go from
// it to their offsets in the answer, so a smaller one costs a system call
// a few rows).
const resultBufSize = 64 << 10

// poolRetained caps the bytes a worker's buffer pool keeps between jobs:
// room for the transient buffers of a few concurrent jobs of the size
// the benchmark runs (about 17 MB a rank for the n = 1000 product on two
// workers).
const poolRetained = 64 << 20

// WorkerConfig configures one worker process (or in-process worker in
// tests).
type WorkerConfig struct {
	ID           string // worker identity shown in metrics; required
	DriverAddr   string // driver control address to register with
	DataAddr     string // listen address for the shuffle data server (":0" for ephemeral)
	Parallelism  int    // task slots per job on this worker
	MemoryBudget int64  // per-worker memory budget in bytes (0 = unlimited)
}

// Worker registers with a driver, heartbeats, runs assigned job
// programs, and serves this rank's shuffle buckets to peers.
type Worker struct {
	cfg      WorkerConfig
	control  net.Conn
	wmu      sync.Mutex    // guards control writes (heartbeats vs JobDone) and replyBuf
	replyBuf *bufio.Writer // the results written to control
	dataLn   net.Listener

	// smu guards the per-job exchange stores and ended, the IDs of the
	// last endedJobsKept jobs the driver retired here.
	smu    sync.Mutex
	stores map[int64]*jobStore
	ended  []int64

	// What outlives a job: the idle data connections to peers, what the
	// programs keep, and the jobs' transient buffers (both nil on a
	// budgeted worker, see StartWorker).
	pools    *peerPools
	resident *Resident
	buffers  *memory.Pool

	// amu guards the drain state: the count of jobs this rank is
	// executing and whether new jobs are being refused.
	amu      sync.Mutex
	active   int
	draining bool

	closed atomic.Bool
	done   chan struct{} // closed when the control loop exits
	err    atomic.Pointer[string]
}

// StartWorker connects to the driver, registers, and starts the
// heartbeat, control, and data-server loops. It returns once the
// driver has acknowledged registration.
func StartWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("cluster: worker needs an ID")
	}
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = 1
	}
	if cfg.DataAddr == "" {
		cfg.DataAddr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", cfg.DataAddr)
	if err != nil {
		return nil, fmt.Errorf("cluster: data listener: %w", err)
	}
	conn, err := net.Dial("tcp", cfg.DriverAddr)
	if err != nil {
		ln.Close()
		return nil, fmt.Errorf("cluster: dial driver %s: %w", cfg.DriverAddr, err)
	}
	w := &Worker{
		cfg:     cfg,
		control: conn,
		dataLn:  ln,
		stores:  make(map[int64]*jobStore),
		done:    make(chan struct{}),
		// Each task slot keeps a fetch window in flight, and in a world of
		// two every fetch goes to the one peer.
		pools: newPeerPools(cfg.Parallelism * dataflow.StreamFetchWindow),
	}
	// What a program keeps resident, and the buffers a job lends from
	// the pool, are outside the memory manager, which is per job. Until a
	// worker has one manager that its jobs and its store both reserve
	// from (ROADMAP 3), a budgeted worker keeps and pools nothing, so
	// neither can push it past the budget.
	if cfg.MemoryBudget <= 0 {
		w.resident = &Resident{}
		w.buffers = memory.NewPool(poolRetained)
	}
	reg := registerMsg{
		ID:          cfg.ID,
		DataAddr:    ln.Addr().String(),
		Parallelism: int64(cfg.Parallelism),
		MemBudget:   cfg.MemoryBudget,
	}
	if err := w.send(msgRegister, reg.encode()); err != nil {
		w.shutdown()
		return nil, fmt.Errorf("cluster: register: %w", err)
	}
	br := bufio.NewReader(conn)
	typ, payload, err := readFrame(br)
	if err != nil || typ != msgWelcome {
		w.shutdown()
		return nil, fmt.Errorf("cluster: no welcome from driver (type=%d err=%v)", typ, err)
	}
	wel, err := decodeWelcome(payload)
	if err != nil {
		w.shutdown()
		return nil, err
	}
	go w.heartbeatLoop(time.Duration(wel.HeartbeatNanos))
	go w.controlLoop(br)
	go w.dataLoop()
	return w, nil
}

// DataAddr is where peers fetch this worker's shuffle buckets.
func (w *Worker) DataAddr() string { return w.dataLn.Addr().String() }

// Wait blocks until the worker's control connection ends (driver
// shutdown, network loss, or Close) and returns the terminal error,
// if any.
func (w *Worker) Wait() error {
	<-w.done
	if s := w.err.Load(); s != nil {
		return fmt.Errorf("%s", *s)
	}
	return nil
}

// Close disconnects from the driver and stops serving data.
func (w *Worker) Close() { w.shutdown() }

// jobStarted admits one job into the drain-tracked set; false means
// the worker is draining and the job must be refused.
func (w *Worker) jobStarted() bool {
	w.amu.Lock()
	defer w.amu.Unlock()
	if w.draining {
		return false
	}
	w.active++
	return true
}

func (w *Worker) jobFinished() {
	w.amu.Lock()
	w.active--
	w.amu.Unlock()
}

// Drain stops accepting jobs, lets in-flight work complete, then
// disconnects. "Complete" is cluster-wide, not rank-local: the worker
// waits both for its own running jobs AND for the driver's job-end
// broadcasts that retire its exchange stores — until then peers may
// still fetch this rank's shuffle buckets, and cutting them off would
// force lineage resubmissions on the survivors. The rank keeps
// heartbeating and serving data the whole time. The returned error is
// non-nil when the deadline passed with work still pending; the worker
// is shut down either way. Draining an idle worker disconnects it
// immediately; a second Drain is a no-op.
func (w *Worker) Drain(timeout time.Duration) error {
	w.amu.Lock()
	if w.draining {
		w.amu.Unlock()
		return nil
	}
	w.draining = true
	w.amu.Unlock()
	deadline := time.Now().Add(timeout)
	for {
		w.amu.Lock()
		active := w.active
		w.amu.Unlock()
		w.smu.Lock()
		stores := len(w.stores)
		w.smu.Unlock()
		if (active == 0 && stores == 0) || w.closed.Load() {
			w.shutdown()
			return nil
		}
		if time.Now().After(deadline) {
			w.shutdown()
			return fmt.Errorf("cluster: drain deadline (%v) passed with %d job(s) running and %d job store(s) still serving peers",
				timeout, active, stores)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (w *Worker) shutdown() {
	if !w.closed.CompareAndSwap(false, true) {
		return
	}
	w.control.Close()
	w.dataLn.Close()
	w.pools.close()
	w.resident.release()
	// Unblock any peer fetch still parked on a store.
	w.smu.Lock()
	for _, s := range w.stores {
		s.fail()
	}
	w.smu.Unlock()
}

func (w *Worker) send(typ byte, parts ...[]byte) error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	return writeFrame(w.control, typ, parts...)
}

func (w *Worker) heartbeatLoop(period time.Duration) {
	if period <= 0 {
		period = 500 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for range t.C {
		if w.closed.Load() {
			return
		}
		if err := w.send(msgHeartbeat); err != nil {
			return
		}
	}
}

func (w *Worker) controlLoop(br *bufio.Reader) {
	defer close(w.done)
	defer w.shutdown()
	for {
		typ, payload, err := readFrame(br)
		if err != nil {
			if !w.closed.Load() {
				msg := fmt.Sprintf("cluster: control connection lost: %v", err)
				w.err.Store(&msg)
			}
			return
		}
		switch typ {
		case msgJob:
			job, err := decodeJob(payload)
			if err != nil {
				msg := err.Error()
				w.err.Store(&msg)
				return
			}
			if !w.jobStarted() {
				// Draining: refuse explicitly so the driver fails the
				// job instead of waiting for a rank that will never run.
				refused := jobDoneMsg{JobID: job.JobID, OK: false, Err: "cluster: worker draining"}
				_ = w.send(msgJobDone, refused.encode())
				continue
			}
			go func() {
				defer w.jobFinished()
				w.runJob(job)
			}()
		case msgJobEnd:
			if end, err := decodeJobEnd(payload); err == nil {
				w.endJob(end.JobID)
			}
		}
	}
}

// endJob retires a job the driver has ended: its store goes, a straggler
// fetch for it gets FetchGone from now on, and its buffers go back to the
// pool once the serves of its buckets in flight are done.
func (w *Worker) endJob(jobID int64) {
	w.smu.Lock()
	s := w.stores[jobID]
	delete(w.stores, jobID)
	if len(w.ended) == endedJobsKept {
		w.ended = append(w.ended[:0], w.ended[1:]...)
	}
	w.ended = append(w.ended, jobID)
	w.smu.Unlock()
	if s != nil {
		s.end()
	}
}

// storeFor returns the job's exchange store, creating it if a peer's
// fetch arrives before this worker has seen its own Job message. It
// returns nil for a job that has ended here: a store made for a
// straggler's fetch would never be failed or dropped, and would park
// the goroutine serving it for good. (A set of recent IDs, not a
// high-water mark: a fetch may precede this worker's own Job message,
// and job IDs restart at 0 with a new driver.)
func (w *Worker) storeFor(jobID int64) *jobStore {
	w.smu.Lock()
	defer w.smu.Unlock()
	s, ok := w.stores[jobID]
	if !ok {
		for _, id := range w.ended {
			if id == jobID {
				return nil
			}
		}
		s = newJobStore(w.buffers.Lease())
		w.stores[jobID] = s
	}
	return s
}

func (w *Worker) runJob(job jobMsg) {
	store := w.storeFor(job.JobID)
	if store == nil || !store.enter() {
		refused := jobDoneMsg{JobID: job.JobID, Err: "cluster: job ID already ended on this worker"}
		_ = w.send(msgJobDone, refused.encode())
		return
	}
	defer store.leave()
	exch := newExchange(job.JobID, int(job.Rank), job.Peers, store, w.pools)
	env := &JobEnv{
		Rank:         int(job.Rank),
		World:        int(job.World),
		Params:       job.Params,
		Exchange:     exch,
		Parallelism:  w.cfg.Parallelism,
		MemoryBudget: w.cfg.MemoryBudget,
		WorkerTag:    w.cfg.ID,
		Resident:     w.resident,
	}
	start := time.Now()
	result, rep, err := w.runProgram(job.Program, env)
	rep.WallNanos = time.Since(start).Nanoseconds()
	done := jobDoneMsg{JobID: job.JobID, OK: err == nil, Telemetry: env.observed}
	if err != nil {
		done.Err = err.Error()
		// Peers blocked on our buckets must recompute, not hang.
		store.fail()
	} else {
		size, write := env.replySize, env.reply
		if write == nil {
			size, write = int64(len(result)), func(w io.Writer) error {
				_, err := w.Write(result)
				return err
			}
		}
		exch.c.ResultBytes.Add(size)
		// The result goes ahead of the JobDone that reports it sent.
		_ = w.sendResult(job.JobID, size, write)
	}
	done.Report = w.report(rep, exch)
	_ = w.send(msgJobDone, done.encode())
}

// sendResult writes a Result frame to the driver: the job ID, 8
// little-endian bytes, then the size bytes of the result write writes,
// through the worker's reply buffer. A result that is not size bytes long
// would leave the driver reading the wrong frames, so the connection is
// closed instead.
func (w *Worker) sendResult(jobID, size int64, write func(io.Writer) error) error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	if w.replyBuf == nil {
		w.replyBuf = bufio.NewWriterSize(w.control, resultBufSize)
	}
	bw := w.replyBuf
	head := binary.AppendUvarint([]byte{msgResult}, uint64(size)+8)
	bw.Write(binary.LittleEndian.AppendUint64(head, uint64(jobID)))
	n := &countingWriter{w: bw}
	err := write(n)
	if err == nil && n.n != size {
		err = fmt.Errorf("cluster: a result of %d bytes wrote %d", size, n.n)
	}
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		bw.Reset(w.control)
		w.control.Close()
	}
	return err
}

// countingWriter counts the bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// report completes a rank's report: the program's own counters merged
// with the exchange's wire counters, which it publishes to the metrics
// registry.
func (w *Worker) report(rep Report, exch *Exchange) Report {
	exch.c.Publish()
	return obs.MergeCounters(rep, exch.c.Snapshot())
}

// runProgram looks up and runs the named program, converting panics
// into job errors so one bad query can't take the worker down.
func (w *Worker) runProgram(name string, env *JobEnv) (result []byte, rep Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("cluster: program panicked: %v", r)
		}
	}()
	p, err := lookupProgram(name)
	if err != nil {
		return nil, Report{}, err
	}
	return p(env)
}

// dataLoop accepts peer connections and answers bucket fetches. Each
// fetch blocks until the bucket is published here or the job fails on
// this worker (then the peer gets FetchGone and recomputes).
func (w *Worker) dataLoop() {
	for {
		conn, err := w.dataLn.Accept()
		if err != nil {
			return // listener closed
		}
		go w.serveData(conn)
	}
}

// serveData answers bucket requests on one peer connection. The loop
// handles any number of requests per connection (the client side pools
// connections). Anything unrecognized closes the connection.
func (w *Worker) serveData(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	for {
		typ, payload, err := readFrame(br)
		if err != nil || typ != msgFetchStream {
			return
		}
		req, err := decodeFetchStream(payload)
		if err != nil || !w.serveStream(bw, req) {
			return
		}
	}
}

// serveStream answers one chunked bucket request: every chunk of the
// stored blob from FirstChunk on, handed to the connection where it
// lies, then the totals. Returns false when the connection is unusable.
func (w *Worker) serveStream(bw *bufio.Writer, req fetchStreamMsg) bool {
	store := w.storeFor(req.JobID)
	if store == nil {
		return writeFrame(bw, msgFetchGone, []byte("cluster: job ended on this worker")) == nil && bw.Flush() == nil
	}
	blob, err := store.waitGet(req.Key)
	if err != nil {
		return writeFrame(bw, msgFetchGone, []byte(err.Error())) == nil && bw.Flush() == nil
	}
	defer store.leave()
	var end streamEndMsg
	for i := int(req.FirstChunk); i < chunkCount(len(blob)); i++ {
		ch := chunkOf(blob, i)
		if writeFrame(bw, msgStreamChunk, ch) != nil {
			return false
		}
		end.Chunks++
		end.Bytes += int64(len(ch))
	}
	return writeFrame(bw, msgStreamEnd, end.encode()) == nil && bw.Flush() == nil
}
