// Package cluster implements the multi-process distributed runtime:
// a driver that workers register with over TCP, a control-plane
// protocol (register/heartbeat/job/done), and a data plane where each
// worker serves shuffle partitions to its peers. The shuffle payloads
// themselves are encoded by the spill codec registry (see
// internal/spill and internal/dataflow's Transport); this package only
// frames and moves the bytes.
//
// Execution model is SPMD: every worker runs the same registered job
// program (queries are data, not closures), each rank executes the
// task indices it owns, and shuffle buckets cross the network through
// per-job exchange stores. Lost workers are tolerated by lineage
// recompute on the surviving ranks — see internal/dataflow/cluster.go —
// and, where each rank holds a part of the result (a program with a
// Merge), by the driver running the job again on them.
package cluster

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// Control- and data-plane message types. A frame is one type byte, a
// uvarint payload length, then the payload.
const (
	msgRegister  = byte(1)  // worker -> driver: id, data addr, capacity
	msgWelcome   = byte(2)  // driver -> worker: accepted, heartbeat period
	msgHeartbeat = byte(3)  // worker -> driver: liveness (empty payload)
	msgJob       = byte(4)  // driver -> worker: run program rank r of w
	msgJobDone   = byte(5)  // worker -> driver: done or error + report
	msgResult    = byte(14) // worker -> driver: a job's result, ahead of its JobDone
	msgJobEnd    = byte(6)  // driver -> worker: job finished, drop its store
	msgFetchGone = byte(9)  // worker -> worker: bucket unavailable (job failed or ended here)

	// The data plane. A fetch is one msgFetchStream request answered by
	// zero or more msgStreamChunk frames and a terminating msgStreamEnd
	// (or msgFetchGone).
	msgFetchStream = byte(11) // worker -> worker: chunked bucket request
	msgStreamChunk = byte(12) // worker -> worker: one bucket chunk
	msgStreamEnd   = byte(13) // worker -> worker: stream totals / terminator
)

// streamChunk flag bits, one byte per chunk.
const (
	// chunkFlagCompressed: the chunk body is a spill.CompressBlock
	// block that inflates to RawLen bytes.
	chunkFlagCompressed = byte(1) << 0
)

// maxFrame bounds a frame payload so a corrupt length prefix cannot
// drive a giant allocation.
const maxFrame = 1 << 30

// writeFrame writes one frame whose payload is the concatenation of
// parts, each handed to w from where it lies: a caller holding a large
// body beside a small header (a chunk, a result blob) does not join
// them first. A TCP connection takes header and parts in one writev.
func writeFrame(w io.Writer, typ byte, parts ...[]byte) error {
	size := 0
	for _, p := range parts {
		size += len(p)
	}
	hdr := make([]byte, 1, 1+binary.MaxVarintLen64)
	hdr[0] = typ
	bufs := make(net.Buffers, 0, 1+len(parts))
	bufs = append(bufs, binary.AppendUvarint(hdr, uint64(size)))
	bufs = append(bufs, parts...)
	_, err := bufs.WriteTo(w)
	return err
}

// readFrame reads one frame into a payload of its own.
func readFrame(r *bufio.Reader) (byte, []byte, error) {
	return readFrameInto(r, nil)
}

// readFrameInto reads one frame, reusing buf for the payload when it is
// large enough; the payload is then only valid until buf's next use.
func readFrameInto(r *bufio.Reader, buf []byte) (byte, []byte, error) {
	typ, size, err := readFrameHead(r)
	if err != nil {
		return 0, nil, err
	}
	payload, err := readPayload(r, size, buf)
	return typ, payload, err
}

// readFrameHead reads a frame's type and payload length, leaving the
// payload to be read.
func readFrameHead(r *bufio.Reader) (byte, uint64, error) {
	typ, err := r.ReadByte()
	if err != nil {
		return 0, 0, err
	}
	size, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, 0, err
	}
	if size > maxFrame {
		return 0, 0, fmt.Errorf("cluster: frame of %d bytes exceeds limit", size)
	}
	return typ, size, nil
}

// readPayload reads a payload of size bytes, into buf when it is large
// enough.
func readPayload(r *bufio.Reader, size uint64, buf []byte) ([]byte, error) {
	if uint64(cap(buf)) < size {
		buf = make([]byte, size)
	}
	payload := buf[:size]
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// wireBuf builds varint-framed payloads.
type wireBuf struct{ b []byte }

func (w *wireBuf) u64(v uint64)  { w.b = binary.AppendUvarint(w.b, v) }
func (w *wireBuf) i64(v int64)   { w.b = binary.AppendVarint(w.b, v) }
func (w *wireBuf) str(s string)  { w.u64(uint64(len(s))); w.b = append(w.b, s...) }
func (w *wireBuf) blob(p []byte) { w.u64(uint64(len(p))); w.b = append(w.b, p...) }
func (w *wireBuf) strs(s []string) {
	w.u64(uint64(len(s)))
	for _, v := range s {
		w.str(v)
	}
}

// wireCur decodes what wireBuf wrote; the first error sticks.
type wireCur struct {
	b   []byte
	err error
}

func (c *wireCur) fail(what string) {
	if c.err == nil {
		c.err = fmt.Errorf("cluster: truncated %s", what)
	}
}

// end reports the sticky error, or the bytes left over after what: a
// message's reader accepts no more than its writer wrote.
func (c *wireCur) end(what string) error {
	if c.err == nil && len(c.b) != 0 {
		return fmt.Errorf("cluster: %d trailing bytes after %s", len(c.b), what)
	}
	return c.err
}

func (c *wireCur) u64() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.b)
	if n <= 0 {
		c.fail("uvarint")
		return 0
	}
	c.b = c.b[n:]
	return v
}

func (c *wireCur) i64() int64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Varint(c.b)
	if n <= 0 {
		c.fail("varint")
		return 0
	}
	c.b = c.b[n:]
	return v
}

func (c *wireCur) str() string {
	n := c.u64()
	if c.err != nil {
		return ""
	}
	if uint64(len(c.b)) < n {
		c.fail("string")
		return ""
	}
	s := string(c.b[:n])
	c.b = c.b[n:]
	return s
}

// blob returns a length-prefixed byte string as a slice of the frame
// being decoded, not a copy: a frame's payload is allocated per frame
// (readFrame) and belongs to the message decoded from it.
func (c *wireCur) blob() []byte {
	n := c.u64()
	if c.err != nil {
		return nil
	}
	if uint64(len(c.b)) < n {
		c.fail("blob")
		return nil
	}
	p := c.b[:n:n]
	c.b = c.b[n:]
	return p
}

func (c *wireCur) strs() []string {
	n := c.u64()
	if c.err != nil || n > maxFrame {
		c.fail("string list")
		return nil
	}
	out := make([]string, 0, min(int(n), 1024))
	for i := uint64(0); i < n; i++ {
		out = append(out, c.str())
	}
	return out
}

// count reads a list's length. No list of a frame is longer than the
// frame, so a larger count is an error, not a giant allocation.
func (c *wireCur) count(what string) int {
	n := c.u64()
	if c.err == nil && n > maxFrame {
		c.err = fmt.Errorf("cluster: %s count %d exceeds limit", what, n)
	}
	if c.err != nil {
		return 0
	}
	return int(n)
}

// span writes one trace span record: IDs, name, times, attributes.
func (w *wireBuf) span(s trace.SpanRec) {
	w.i64(s.ID)
	w.i64(s.ParentID)
	w.str(s.Name)
	w.i64(s.StartNs)
	w.i64(s.EndNs)
	w.u64(uint64(len(s.Keys)))
	for i := range s.Keys {
		w.str(s.Keys[i])
		w.str(s.Vals[i])
	}
}

func (c *wireCur) span() trace.SpanRec {
	s := trace.SpanRec{ID: c.i64(), ParentID: c.i64(), Name: c.str(),
		StartNs: c.i64(), EndNs: c.i64()}
	for n := c.count("span attribute"); n > 0 && c.err == nil; n-- {
		s.Keys = append(s.Keys, c.str())
		s.Vals = append(s.Vals, c.str())
	}
	return s
}

// stage writes one stage row; a zero Start crosses as 0 and stays zero.
func (w *wireBuf) stage(st obs.StageMetric) {
	var startNs int64
	if !st.Start.IsZero() {
		startNs = st.Start.UnixNano()
	}
	w.i64(st.ID)
	w.str(st.Name)
	w.i64(startNs)
	w.i64(int64(st.Wall))
	w.i64(st.Tasks)
	w.i64(st.RecordsIn)
	w.i64(st.RecordsOut)
	w.i64(st.ShuffledBytes)
	w.str(st.Worker)
	w.dist(st.TaskDur)
	w.dist(st.PartRecords)
}

func (c *wireCur) stage() obs.StageMetric {
	st := obs.StageMetric{ID: c.i64(), Name: c.str()}
	if startNs := c.i64(); startNs != 0 {
		st.Start = time.Unix(0, startNs)
	}
	st.Wall = time.Duration(c.i64())
	st.Tasks, st.RecordsIn, st.RecordsOut, st.ShuffledBytes = c.i64(), c.i64(), c.i64(), c.i64()
	st.Worker, st.TaskDur, st.PartRecords = c.str(), c.dist(), c.dist()
	return st
}

func (w *wireBuf) dist(d obs.Dist) {
	w.i64(int64(d.N))
	w.i64(d.Min)
	w.i64(d.P50)
	w.i64(d.P99)
	w.i64(d.Max)
	w.i64(int64(d.ArgMax))
}

func (c *wireCur) dist() obs.Dist {
	return obs.Dist{N: int(c.i64()), Min: c.i64(), P50: c.i64(), P99: c.i64(), Max: c.i64(), ArgMax: int(c.i64())}
}

// registerMsg is the worker's hello: identity, where peers can fetch
// shuffle data from it, and its execution capacity.
type registerMsg struct {
	ID          string
	DataAddr    string
	Parallelism int64
	MemBudget   int64
}

func (m *registerMsg) encode() []byte {
	var w wireBuf
	w.str(m.ID)
	w.str(m.DataAddr)
	w.i64(m.Parallelism)
	w.i64(m.MemBudget)
	return w.b
}

func decodeRegister(p []byte) (registerMsg, error) {
	c := wireCur{b: p}
	m := registerMsg{ID: c.str(), DataAddr: c.str(), Parallelism: c.i64(), MemBudget: c.i64()}
	return m, c.end("register")
}

type welcomeMsg struct {
	HeartbeatNanos int64
}

func (m *welcomeMsg) encode() []byte {
	var w wireBuf
	w.i64(m.HeartbeatNanos)
	return w.b
}

func decodeWelcome(p []byte) (welcomeMsg, error) {
	c := wireCur{b: p}
	m := welcomeMsg{HeartbeatNanos: c.i64()}
	return m, c.end("welcome")
}

// jobMsg assigns one rank of a job: which program to run, this
// worker's rank, the world size, and every rank's data address so the
// exchange can fetch peer buckets.
type jobMsg struct {
	JobID   int64
	Program string
	Rank    int64
	World   int64
	Peers   []string // data addrs indexed by rank
	Params  []byte   // program-specific, opaque to the protocol
}

func (m *jobMsg) encode() []byte {
	var w wireBuf
	w.i64(m.JobID)
	w.str(m.Program)
	w.i64(m.Rank)
	w.i64(m.World)
	w.strs(m.Peers)
	w.blob(m.Params)
	return w.b
}

func decodeJob(p []byte) (jobMsg, error) {
	c := wireCur{b: p}
	m := jobMsg{JobID: c.i64(), Program: c.str(), Rank: c.i64(), World: c.i64(),
		Peers: c.strs(), Params: c.blob()}
	return m, c.end("job")
}

// jobDoneMsg ends a rank's job: it ran its program to the end (OK) or
// says why not. A rank that ran it sent its result ahead of it, in a
// Result frame. What the rank observed of its run crosses here too,
// after its counters: its stage rows, and its spans when it was traced.
type jobDoneMsg struct {
	JobID     int64
	OK        bool
	Err       string
	Report    Report
	Telemetry RankTelemetry
}

func (m *jobDoneMsg) encode() []byte {
	var w wireBuf
	w.i64(m.JobID)
	ok := int64(0)
	if m.OK {
		ok = 1
	}
	w.i64(ok)
	w.str(m.Err)
	w.blob(encodeReport(m.Report))
	w.i64(m.Telemetry.DroppedSpans)
	w.u64(uint64(len(m.Telemetry.Spans)))
	for _, s := range m.Telemetry.Spans {
		w.span(s)
	}
	w.u64(uint64(len(m.Telemetry.Stages)))
	for _, st := range m.Telemetry.Stages {
		w.stage(st)
	}
	return w.b
}

func decodeJobDone(p []byte) (jobDoneMsg, error) {
	c := wireCur{b: p}
	m := jobDoneMsg{JobID: c.i64(), OK: c.i64() != 0, Err: c.str()}
	rep, err := decodeReport(c.blob())
	m.Telemetry.DroppedSpans = c.i64()
	for n := c.count("span"); n > 0 && c.err == nil; n-- {
		m.Telemetry.Spans = append(m.Telemetry.Spans, c.span())
	}
	for n := c.count("stage"); n > 0 && c.err == nil; n-- {
		m.Telemetry.Stages = append(m.Telemetry.Stages, c.stage())
	}
	if end := c.end("job done"); end != nil {
		return m, end
	}
	m.Report = rep
	return m, err
}

type jobEndMsg struct {
	JobID int64
}

func (m *jobEndMsg) encode() []byte {
	var w wireBuf
	w.i64(m.JobID)
	return w.b
}

func decodeJobEnd(p []byte) (jobEndMsg, error) {
	c := wireCur{b: p}
	m := jobEndMsg{JobID: c.i64()}
	return m, c.end("job end")
}

// fetchStreamMsg asks a peer to stream one bucket as chunks, starting
// at chunk index FirstChunk (non-zero when resuming after a transient
// connection failure — chunk boundaries are fixed at publish time, so
// a resumed stream is byte-identical to an uninterrupted one).
type fetchStreamMsg struct {
	JobID      int64
	Key        string
	FirstChunk int64
}

func (m *fetchStreamMsg) encode() []byte {
	var w wireBuf
	w.i64(m.JobID)
	w.str(m.Key)
	w.i64(m.FirstChunk)
	return w.b
}

func decodeFetchStream(p []byte) (fetchStreamMsg, error) {
	c := wireCur{b: p}
	m := fetchStreamMsg{JobID: c.i64(), Key: c.str(), FirstChunk: c.i64()}
	if m.FirstChunk < 0 {
		c.fail("fetch-stream first chunk")
	}
	return m, c.end("fetch-stream")
}

// writeChunkFrame writes one chunk as a msgStreamChunk frame: a flags
// byte, the decompressed length, then the body (compressed or raw per
// the flag), which goes to w from the stored bucket without a copy.
func writeChunkFrame(w io.Writer, flags byte, rawLen int, body []byte) error {
	var hdr [1 + binary.MaxVarintLen64]byte
	hdr[0] = flags
	n := binary.PutUvarint(hdr[1:], uint64(rawLen))
	return writeFrame(w, msgStreamChunk, hdr[:1+n], body)
}

// decodeChunkFrame parses the payload writeChunkFrame framed. RawLen is
// bounded by maxFrame so a corrupt header cannot drive a giant
// decompression allocation; the body is NOT copied (it aliases p).
func decodeChunkFrame(p []byte) (flags byte, rawLen int, body []byte, err error) {
	if len(p) < 1 {
		return 0, 0, nil, fmt.Errorf("cluster: empty chunk frame")
	}
	flags = p[0]
	c := wireCur{b: p[1:]}
	n := c.u64()
	if c.err != nil {
		return 0, 0, nil, c.err
	}
	if n > maxFrame {
		return 0, 0, nil, fmt.Errorf("cluster: chunk raw length %d exceeds limit", n)
	}
	return flags, int(n), c.b, nil
}

// streamEndMsg closes a chunk stream with totals the client verifies.
type streamEndMsg struct {
	Chunks    int64 // chunks sent in THIS response (from FirstChunk on)
	RawBytes  int64 // decompressed bytes represented by those chunks
	WireBytes int64 // bytes as actually framed on the wire
}

func (m *streamEndMsg) encode() []byte {
	var w wireBuf
	w.i64(m.Chunks)
	w.i64(m.RawBytes)
	w.i64(m.WireBytes)
	return w.b
}

// decodeStreamEnd parses what encode wrote, and nothing else: the
// client checks the totals against what it received, so a short or
// padded frame is a protocol error, not a set of zeros.
func decodeStreamEnd(p []byte) (streamEndMsg, error) {
	c := wireCur{b: p}
	m := streamEndMsg{Chunks: c.i64(), RawBytes: c.i64(), WireBytes: c.i64()}
	return m, c.end("stream end")
}

// Report carries one rank's execution counters back to the driver, which
// surfaces them as per-worker rows and merges them into the cluster-wide
// snapshot. It is the schema's counter set; on the wire, the field
// count followed by one varint per field in schema order.
type Report = obs.CounterSet

func encodeReport(r Report) []byte {
	var w wireBuf
	w.u64(uint64(len(obs.Schema)))
	for _, v := range obs.CounterValues(r) {
		w.i64(v)
	}
	return w.b
}

// decodeReport parses what encodeReport wrote, and nothing else. A
// field count other than this binary's schema means the peer was built
// from a different one, and reading its counters positionally would
// file them under the wrong names (or as zeros) without a trace.
func decodeReport(p []byte) (Report, error) {
	c := wireCur{b: p}
	vals := make([]int64, len(obs.Schema))
	if n := c.u64(); c.err == nil && n != uint64(len(vals)) {
		return Report{}, fmt.Errorf("cluster: report has %d fields, this build's schema has %d", n, len(vals))
	}
	for i := range vals {
		vals[i] = c.i64()
	}
	return obs.CountersFrom(vals), c.end("report")
}
