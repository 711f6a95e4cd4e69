package cluster

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// DriverConfig configures the cluster control plane.
type DriverConfig struct {
	// Addr is the control listen address workers register with
	// (default "127.0.0.1:0").
	Addr string
	// HeartbeatTimeout is how long a silent worker stays considered
	// alive (default 3s). Workers are told to beat at a sixth of it,
	// and the liveness monitor sweeps at a quarter of it.
	HeartbeatTimeout time.Duration
}

// workerState is the driver's view of one registered worker.
type workerState struct {
	id          string
	dataAddr    string
	parallelism int64
	memBudget   int64

	conn net.Conn
	wmu  sync.Mutex // guards conn writes (Job/JobEnd vs nothing else)

	lastBeat time.Time
	alive    bool
}

func (ws *workerState) send(typ byte, payload []byte) error {
	ws.wmu.Lock()
	defer ws.wmu.Unlock()
	return writeFrame(ws.conn, typ, payload)
}

// RankTelemetry is what one rank observed of its run, sent in its job
// reply after its counters: the stage rows it recorded, and when it was
// traced the spans it recorded (unfinished ones as they stood) and how
// many its buffer limit dropped.
type RankTelemetry struct {
	DroppedSpans int64
	Spans        []trace.SpanRec
	Stages       []obs.StageMetric
}

// jobState tracks one submitted job until every rank has either
// replied or been declared lost.
type jobState struct {
	ranks   []*workerState
	merge   Merger        // the ranks' results, merged as they arrive
	replies []*jobDoneMsg // indexed by rank, nil until JobDone
	lost    []bool        // indexed by rank, true when the worker died first
}

func (j *jobState) settled() bool {
	for r := range j.ranks {
		if j.replies[r] == nil && !j.lost[r] {
			return false
		}
	}
	return true
}

// Driver owns worker registration, liveness, job submission, and
// result merging (which is where the ranks are cross-checked) for one
// cluster.
type Driver struct {
	ln        net.Listener
	hbTimeout time.Duration

	mu      sync.Mutex
	cond    *sync.Cond
	workers map[string]*workerState
	jobs    map[int64]*jobState
	nextJob int64
	closed  bool
}

// NewDriver starts listening for worker registrations.
func NewDriver(cfg DriverConfig) (*Driver, error) {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = 3 * time.Second
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: driver listen: %w", err)
	}
	d := &Driver{
		ln:        ln,
		hbTimeout: cfg.HeartbeatTimeout,
		workers:   make(map[string]*workerState),
		jobs:      make(map[int64]*jobState),
	}
	d.cond = sync.NewCond(&d.mu)
	go d.acceptLoop()
	go d.monitor()
	return d, nil
}

// Addr is the control address workers should register with.
func (d *Driver) Addr() string { return d.ln.Addr().String() }

// Close stops the driver and disconnects every worker.
func (d *Driver) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	workers := make([]*workerState, 0, len(d.workers))
	for _, ws := range d.workers {
		workers = append(workers, ws)
	}
	d.cond.Broadcast()
	d.mu.Unlock()
	d.ln.Close()
	for _, ws := range workers {
		ws.conn.Close()
	}
}

func (d *Driver) acceptLoop() {
	for {
		conn, err := d.ln.Accept()
		if err != nil {
			return
		}
		go d.handleWorker(conn)
	}
}

// handleWorker owns one worker's control connection: registration,
// then heartbeats and job replies until the connection drops.
func (d *Driver) handleWorker(conn net.Conn) {
	br := bufio.NewReaderSize(conn, resultBufSize)
	typ, payload, err := readFrame(br)
	if err != nil || typ != msgRegister {
		conn.Close()
		return
	}
	reg, err := decodeRegister(payload)
	if err != nil || reg.ID == "" {
		conn.Close()
		return
	}
	ws := &workerState{
		id:          reg.ID,
		dataAddr:    reg.DataAddr,
		parallelism: reg.Parallelism,
		memBudget:   reg.MemBudget,
		conn:        conn,
		lastBeat:    time.Now(),
		alive:       true,
	}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		conn.Close()
		return
	}
	if old, dup := d.workers[reg.ID]; dup {
		// A restarted worker re-registering under its old identity
		// replaces the stale entry.
		old.conn.Close()
	}
	d.workers[reg.ID] = ws
	d.cond.Broadcast()
	d.mu.Unlock()

	wel := welcomeMsg{HeartbeatNanos: (d.hbTimeout / 6).Nanoseconds()}
	if err := ws.send(msgWelcome, wel.encode()); err != nil {
		d.dropWorker(ws)
		return
	}
	// Every frame but a result is small: they reuse one payload buffer.
	for {
		typ, size, err := readFrameHead(br)
		switch {
		case err != nil:
		case typ == msgResult:
			err = d.takeResult(ws, br, size)
		default:
			payload, err = readPayload(br, size, payload)
		}
		if err != nil {
			d.dropWorker(ws)
			return
		}
		switch typ {
		case msgHeartbeat:
			d.mu.Lock()
			ws.lastBeat = time.Now()
			d.mu.Unlock()
		case msgJobDone:
			done, err := decodeJobDone(payload)
			if err != nil {
				d.dropWorker(ws)
				return
			}
			d.mu.Lock()
			if job, ok := d.jobs[done.JobID]; ok {
				for r, w := range job.ranks {
					if w == ws && job.replies[r] == nil {
						reply := done
						job.replies[r] = &reply
					}
				}
				d.cond.Broadcast()
			}
			d.mu.Unlock()
		}
	}
}

// takeResult reads a Result frame of size bytes off br: the rank's result,
// which goes straight into its job's merge — a piece's cells land in the
// answer, never in a buffer of the driver's. A result no job waits for
// any more (one that timed out) is read and dropped, as is whatever the
// merge leaves of a reply it refused.
func (d *Driver) takeResult(ws *workerState, br *bufio.Reader, size uint64) error {
	var id [8]byte
	if size < uint64(len(id)) {
		return fmt.Errorf("cluster: result frame of %d bytes", size)
	}
	if _, err := io.ReadFull(br, id[:]); err != nil {
		return err
	}
	jobID := int64(binary.LittleEndian.Uint64(id[:]))
	result := &io.LimitedReader{R: br, N: int64(size) - int64(len(id))}
	d.mu.Lock()
	job, rank := d.jobs[jobID], -1
	if job != nil {
		for r, w := range job.ranks {
			if w == ws && job.replies[r] == nil {
				rank = r
			}
		}
	}
	d.mu.Unlock()
	if rank >= 0 {
		// A reply that is no part of a result is the merge's to report.
		_ = job.merge.Add(rank, result, result.N)
	}
	_, err := io.Copy(io.Discard, result)
	return err
}

// dropWorker marks a worker dead and declares its unanswered ranks
// lost so waiting jobs can settle.
func (d *Driver) dropWorker(ws *workerState) {
	ws.conn.Close()
	d.mu.Lock()
	defer d.mu.Unlock()
	if !ws.alive {
		return
	}
	// The workers-map entry stays (dead) so metrics can show the loss;
	// a restarted worker re-registering under the same id replaces it.
	ws.alive = false
	for _, job := range d.jobs {
		for r, w := range job.ranks {
			if w == ws && job.replies[r] == nil {
				job.lost[r] = true
			}
		}
	}
	d.cond.Broadcast()
}

// monitor sweeps for workers whose heartbeats stopped — a SIGKILLed
// process can't close its socket gracefully from our point of view in
// every failure mode (e.g. a partition), so liveness is timeout-based.
func (d *Driver) monitor() {
	t := time.NewTicker(d.hbTimeout / 4)
	defer t.Stop()
	for range t.C {
		d.mu.Lock()
		if d.closed {
			d.mu.Unlock()
			return
		}
		var stale []*workerState
		for _, ws := range d.workers {
			if ws.alive && time.Since(ws.lastBeat) > d.hbTimeout {
				stale = append(stale, ws)
			}
		}
		d.mu.Unlock()
		for _, ws := range stale {
			d.dropWorker(ws)
		}
	}
}

// WaitForWorkers blocks until n workers are registered and alive.
func (d *Driver) WaitForWorkers(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		d.mu.Lock()
		d.cond.Broadcast()
		d.mu.Unlock()
	})
	defer timer.Stop()
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if len(d.liveWorkersLocked()) >= n {
			return nil
		}
		if d.closed {
			return fmt.Errorf("cluster: driver closed")
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: %d/%d workers after %v",
				len(d.liveWorkersLocked()), n, timeout)
		}
		d.cond.Wait()
	}
}

func (d *Driver) liveWorkersLocked() []*workerState {
	live := make([]*workerState, 0, len(d.workers))
	for _, ws := range d.workers {
		if ws.alive {
			live = append(live, ws)
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].id < live[j].id })
	return live
}

// WorkerInfo is a point-in-time liveness row for CLIs and the debug
// endpoint.
type WorkerInfo struct {
	ID       string
	DataAddr string
	Alive    bool
	BeatAge  time.Duration
}

// Workers lists every worker the driver has ever seen, sorted by id.
func (d *Driver) Workers() []WorkerInfo {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]WorkerInfo, 0, len(d.workers))
	for _, ws := range d.workers {
		out = append(out, WorkerInfo{
			ID:       ws.id,
			DataAddr: ws.dataAddr,
			Alive:    ws.alive,
			BeatAge:  time.Since(ws.lastBeat),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// WorkerRun is one rank's outcome within a finished job.
type WorkerRun struct {
	ID     string
	Addr   string
	Rank   int
	OK     bool
	Lost   bool // worker died before replying
	Err    string
	Report Report
	// Telemetry is what the rank's reply carried of its run: stage rows,
	// and spans with the dropped-span count when it was traced. Empty
	// for a lost rank and for a program that hands over none.
	Telemetry RankTelemetry
}

// RunResult is a completed job: the result its program's Merge made of
// the ranks' replies, plus per-worker execution rows. When the job had to
// be run again (see Run) the rows are the last attempt's, followed by the
// rows of the ranks the first attempt lost (ranked as they were in it),
// and LostWorkers and Resubmissions count every attempt.
type RunResult struct {
	Result        []byte
	Workers       []WorkerRun
	Resubmissions int64 // total lineage resubmissions across survivors
	LostWorkers   int   // ranks that died before replying
	Attempts      int   // times the job was submitted: 1, or 2 after a loss
}

// MergedTrace reassembles every rank's spans into one tracer (one
// synthetic lane per worker, in rank order), or nil when no rank sent any
// spans or dropped any — tracing was off for the job, even if stage rows
// and reports still crossed.
func (r *RunResult) MergedTrace() *trace.Tracer {
	var groups []trace.WorkerTrace
	for _, w := range r.Workers {
		if len(w.Telemetry.Spans) == 0 && w.Telemetry.DroppedSpans == 0 {
			continue
		}
		groups = append(groups, trace.WorkerTrace{
			Worker:  w.ID,
			Dropped: w.Telemetry.DroppedSpans,
			Spans:   w.Telemetry.Spans,
		})
	}
	if len(groups) == 0 {
		return nil
	}
	return trace.Merge(groups)
}

// Run submits the named program to every live worker, waits for the job
// to settle, and has the program's Merge make the result of the replies:
// for a replicated result any one reply, checked equal to the others, so
// the job succeeds while one rank survives; for a partitioned one every
// rank's piece, checked to be pieces of one whole. A rank lost before it
// replied takes its piece with it — no survivor holds it — so Run then
// submits the job once more, under a new ID, to the workers still alive,
// within what is left of timeout. Losing every rank, or a rank of the
// second attempt, is an error.
//
// A job that failed after its ranks replied comes back with its
// RunResult beside the error: what every rank reported and measured up
// to the failure.
func (d *Driver) Run(program string, params []byte, timeout time.Duration) (*RunResult, error) {
	deadline := time.Now().Add(timeout)
	first, err := d.runOnce(program, params, timeout)
	if err == nil || first == nil || first.LostWorkers == 0 || !errors.Is(err, ErrIncomplete) {
		return first, err
	}
	res, err := d.runOnce(program, params, time.Until(deadline))
	if res == nil {
		res = first
	} else {
		for _, w := range first.Workers {
			if w.Lost {
				res.Workers = append(res.Workers, w)
			}
		}
		res.LostWorkers += first.LostWorkers
		res.Resubmissions += first.Resubmissions
		res.Attempts += first.Attempts
	}
	if err != nil {
		err = fmt.Errorf("%w (re-run after losing %d worker(s) of the first attempt)", err, first.LostWorkers)
	}
	return res, err
}

// runOnce is one attempt at a job on the workers alive now. The
// RunResult comes back beside a failure once the ranks have settled,
// so Run can see whether a loss explains an ErrIncomplete hole.
func (d *Driver) runOnce(program string, params []byte, timeout time.Duration) (*RunResult, error) {
	d.mu.Lock()
	ranks := d.liveWorkersLocked()
	if len(ranks) == 0 {
		d.mu.Unlock()
		return nil, fmt.Errorf("cluster: no live workers")
	}
	jobID := d.nextJob
	d.nextJob++
	job := &jobState{
		ranks:   ranks,
		merge:   mergeFor(program)(),
		replies: make([]*jobDoneMsg, len(ranks)),
		lost:    make([]bool, len(ranks)),
	}
	d.jobs[jobID] = job
	peers := make([]string, len(ranks))
	for r, ws := range ranks {
		peers[r] = ws.dataAddr
	}
	d.mu.Unlock()

	for r, ws := range ranks {
		msg := jobMsg{
			JobID:   jobID,
			Program: program,
			Rank:    int64(r),
			World:   int64(len(ranks)),
			Peers:   peers,
			Params:  params,
		}
		if err := ws.send(msgJob, msg.encode()); err != nil {
			d.dropWorker(ws)
		}
	}

	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		d.mu.Lock()
		d.cond.Broadcast()
		d.mu.Unlock()
	})
	defer timer.Stop()
	d.mu.Lock()
	for !job.settled() {
		if d.closed {
			d.mu.Unlock()
			return nil, fmt.Errorf("cluster: driver closed mid-job")
		}
		if time.Now().After(deadline) {
			delete(d.jobs, jobID)
			d.mu.Unlock()
			d.endJob(jobID, ranks)
			return nil, fmt.Errorf("cluster: job %d timed out after %v", jobID, timeout)
		}
		d.cond.Wait()
	}
	delete(d.jobs, jobID)
	d.mu.Unlock()
	d.endJob(jobID, ranks)

	res := &RunResult{Workers: make([]WorkerRun, len(ranks)), Attempts: 1}
	var firstErr string
	replied := 0
	for r, ws := range ranks {
		run := WorkerRun{ID: ws.id, Addr: ws.dataAddr, Rank: r}
		switch {
		case job.lost[r]:
			run.Lost = true
			res.LostWorkers++
		case job.replies[r].OK:
			run.OK = true
			run.Report = job.replies[r].Report
			run.Telemetry = job.replies[r].Telemetry
			res.Resubmissions += run.Report.Resubmissions
			replied++
		default:
			run.Err = job.replies[r].Err
			run.Report = job.replies[r].Report
			run.Telemetry = job.replies[r].Telemetry
			if firstErr == "" {
				firstErr = run.Err
			}
		}
		res.Workers[r] = run
	}
	result, err := job.merge.Result()
	switch {
	case replied > 0 && err == nil:
		res.Result = result
		return res, nil
	case replied > 0 && (firstErr == "" || !errors.Is(err, ErrIncomplete)):
		return res, fmt.Errorf("cluster: job %d: %w", jobID, err)
	case firstErr == "":
		firstErr = "all workers lost"
	}
	// No rank replied, or the hole is the part of a rank that said why it
	// has none.
	return res, fmt.Errorf("cluster: job %d failed: %s", jobID, firstErr)
}

// endJob tells the ranks to drop the job's exchange store.
func (d *Driver) endJob(jobID int64, ranks []*workerState) {
	end := jobEndMsg{JobID: jobID}
	for _, ws := range ranks {
		d.mu.Lock()
		alive := ws.alive
		d.mu.Unlock()
		if alive {
			_ = ws.send(msgJobEnd, end.encode())
		}
	}
}
