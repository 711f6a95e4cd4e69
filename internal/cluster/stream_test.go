package cluster

// Streaming data-plane tests: chunked fetch parity with the published
// bytes and the exact wire count, transparent resume after transient
// stream errors (the rank must NOT be marked dead), fatal FetchGone classification —
// for a failed job and for one that already ended — connection-pool
// reuse, and memory-bounded fetches.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataflow"
	"repro/internal/memory"
)

// startDataServer runs just the worker's data plane: a listener and the
// serveData loop over a bare store set, no driver or control plane.
func startDataServer(t *testing.T) (*Worker, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	w := &Worker{
		cfg:    WorkerConfig{ID: "data-only"},
		dataLn: ln,
		stores: make(map[int64]*jobStore),
		done:   make(chan struct{}),
	}
	go w.dataLoop()
	t.Cleanup(func() { ln.Close() })
	return w, ln.Addr().String()
}

// clientExchange builds a 2-rank exchange where rank 1 is the given
// data server and the client is rank 0.
func clientExchange(jobID int64, serverAddr string) *Exchange {
	e := newExchange(jobID, 0, []string{"unused-self", serverAddr}, newJobStore(nil), newPeerPools(dataflow.StreamFetchWindow))
	e.fetchTimeout = 5 * time.Second
	e.dialBackoff = 5 * time.Millisecond
	return e
}

// fetchAll drains one FetchReader.
func fetchAll(e *Exchange, rank int, key string) ([]byte, error) {
	rc, err := e.FetchReader(rank, key)
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	return io.ReadAll(rc)
}

func testBlobs() map[string][]byte {
	rng := rand.New(rand.NewSource(42))
	random := make([]byte, 3*shuffleChunkSize+777) // 4 chunks, the last short
	rng.Read(random)
	return map[string][]byte{
		"empty":      {},
		"tiny":       []byte("hello"),
		"one-chunk":  bytes.Repeat([]byte("abc"), 1000),
		"repetitive": bytes.Repeat([]byte("0123456789abcdef"), 5*shuffleChunkSize/16), // 5 whole chunks
		"random":     random,
	}
}

// chunkFraming is what the chunk frames of an n-byte blob add to its
// bytes on the wire: each chunk's type byte and uvarint length.
func chunkFraming(n int) (framing int64) {
	for i := 0; i < chunkCount(n); i++ {
		size := min(n-i*shuffleChunkSize, shuffleChunkSize)
		framing += frameBytes(size) - int64(size)
	}
	return framing
}

// TestStreamFetchParity: every blob shape — empty, sub-chunk, several
// whole chunks, several with a short last one — comes back from the
// data server byte for byte, and the wire bytes are exactly its bytes
// plus its chunk frames' heads.
func TestStreamFetchParity(t *testing.T) {
	w, addr := startDataServer(t)
	server := newExchange(1, 1, nil, w.storeFor(1), newPeerPools(0))
	for name, blob := range testBlobs() {
		e := clientExchange(1, addr)
		if err := server.Publish(name, blob); err != nil {
			t.Fatalf("publish %s: %v", name, err)
		}
		got, err := fetchAll(e, 1, name)
		if err != nil {
			t.Fatalf("fetch %s: %v", name, err)
		}
		if !bytes.Equal(got, blob) {
			t.Fatalf("%s: fetched %d bytes, want %d (content mismatch)", name, len(got), len(blob))
		}
		wire, raw, chunks := e.c.WireFetchedBytes.Load(), e.c.WireRawBytes.Load(), e.c.ChunksFetched.Load()
		if raw != int64(len(blob)) || chunks != int64(chunkCount(len(blob))) {
			t.Fatalf("%s: counted %d raw bytes in %d chunks for a %d-byte blob", name, raw, chunks, len(blob))
		}
		if want := raw + chunkFraming(len(blob)); wire != want {
			t.Fatalf("%s: %d bytes on the wire, want %d raw + %d of chunk frame heads", name, wire, raw, want-raw)
		}
		if e.dead[1].Load() {
			t.Fatal("healthy rank marked dead")
		}
	}
}

func TestConnPoolReuse(t *testing.T) {
	w, addr := startDataServer(t)
	server := newExchange(2, 1, nil, w.storeFor(2), newPeerPools(0))
	e := clientExchange(2, addr)
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("k%d", i)
		_ = server.Publish(key, bytes.Repeat([]byte{byte(i)}, 10_000))
		if _, err := fetchAll(e, 1, key); err != nil {
			t.Fatalf("fetch %s: %v", key, err)
		}
	}
	if hits, misses := e.c.ConnPoolHits.Load(), e.c.ConnPoolMisses.Load(); hits < 3 || misses > 2 {
		t.Fatalf("pool not reused: %d hits, %d misses over 5 fetches", hits, misses)
	}
}

// resumingPeer is a data server for one blob that hangs up after the
// first chunk of its first response and answers every later request in
// full, its stream end claiming overclaim chunks more than it sent. It
// returns its address and the FirstChunk of each request it saw.
func resumingPeer(t *testing.T, blob []byte, overclaim int64) (string, func() []int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var fcMu sync.Mutex
	var firstChunks []int64
	var conns atomic.Int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			n := conns.Add(1)
			go func(conn net.Conn, kill bool) {
				defer conn.Close()
				br := bufio.NewReader(conn)
				typ, payload, err := readFrame(br)
				if err != nil || typ != msgFetchStream {
					return
				}
				req, err := decodeFetchStream(payload)
				if err != nil {
					return
				}
				fcMu.Lock()
				firstChunks = append(firstChunks, req.FirstChunk)
				fcMu.Unlock()
				end := streamEndMsg{Chunks: overclaim}
				for i := int(req.FirstChunk); i < chunkCount(len(blob)); i++ {
					ch := chunkOf(blob, i)
					if writeFrame(conn, msgStreamChunk, ch) != nil {
						return
					}
					end.Chunks++
					end.Bytes += int64(len(ch))
					if kill {
						return // hang up mid-stream after one chunk
					}
				}
				_ = writeFrame(conn, msgStreamEnd, end.encode())
			}(conn, n == 1)
		}
	}()
	return ln.Addr().String(), func() []int64 {
		fcMu.Lock()
		defer fcMu.Unlock()
		return append([]int64(nil), firstChunks...)
	}
}

// TestTransientStreamErrorResumes is the regression test for the PR 5
// bug where ANY fetch error permanently killed the rank: a server that
// drops the connection mid-stream must cost a transparent retry — the
// client resumes from the next chunk, the result is byte-identical,
// and the rank is NOT marked dead. The resumed response's stream end is
// checked like a first one: claiming a chunk more than it sent fails
// the fetch as a transport error.
func TestTransientStreamErrorResumes(t *testing.T) {
	blob := bytes.Repeat([]byte("stream-me-"), 4*shuffleChunkSize/10)
	if chunkCount(len(blob)) < 2 {
		t.Fatal("test bucket must span several chunks")
	}
	addr, requests := resumingPeer(t, blob, 0)
	e := clientExchange(3, addr)
	got, err := fetchAll(e, 1, "x")
	if err != nil {
		t.Fatalf("fetch across mid-stream hangup: %v", err)
	}
	if !bytes.Equal(got, blob) {
		t.Fatalf("resumed fetch not byte-identical: %d bytes, want %d", len(got), len(blob))
	}
	if e.dead[1].Load() {
		t.Fatal("transient stream error marked the rank dead")
	}
	if e.c.FetchRetries.Load() == 0 {
		t.Fatal("no retry counted for the hangup")
	}
	if seen := requests(); len(seen) < 2 || seen[0] != 0 || seen[1] == 0 {
		t.Fatalf("expected a resume with FirstChunk > 0, saw requests %v", seen)
	}
	// A later fetch from the same (healthy) rank must still work.
	if _, err := fetchAll(e, 1, "x"); err != nil {
		t.Fatalf("rank unusable after recovered transient error: %v", err)
	}

	addr, requests = resumingPeer(t, blob, 1)
	e = clientExchange(3, addr)
	rc, err := e.FetchReader(1, "x")
	if err != nil {
		t.Fatal(err)
	}
	_, err = io.ReadAll(rc)
	rc.Close()
	if terr := rc.(*streamReader).TransportErr(); err == nil || terr == nil {
		t.Fatalf("resumed stream whose end claims a chunk more: read error %v, transport error %v", err, terr)
	}
	if seen := requests(); len(seen) != 2 || seen[1] == 0 {
		t.Fatalf("expected the mismatch on a resumed response, saw requests %v", seen)
	}
}

// scriptedPeer is a data server that answers every fetch-stream request
// by writing reply's bytes and hanging up.
func scriptedPeer(t *testing.T, reply func(w io.Writer)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				if typ, _, err := readFrame(bufio.NewReader(conn)); err == nil && typ == msgFetchStream {
					reply(conn)
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestMalformedChunksAreErrors: what a peer sends is checked before it is
// believed. A frame longer than maxFrame, a chunk longer than a chunk and
// a stream end that claims a chunk more than was sent are the peer's
// fault and fail the fetch as transport errors, all without allocating
// what they claim.
func TestMalformedChunksAreErrors(t *testing.T) {
	for _, tc := range []struct {
		name  string
		reply func(w io.Writer)
	}{
		{"frame longer than maxFrame", func(w io.Writer) {
			_, _ = w.Write(binary.AppendUvarint([]byte{msgStreamChunk}, maxFrame+1))
		}},
		{"chunk longer than a chunk", func(w io.Writer) {
			_ = writeFrame(w, msgStreamChunk, make([]byte, shuffleChunkSize+1))
			_ = writeFrame(w, msgStreamEnd, (&streamEndMsg{Chunks: 1, Bytes: shuffleChunkSize + 1}).encode())
		}},
		{"stream end claiming a chunk more than sent", func(w io.Writer) {
			_ = writeFrame(w, msgStreamChunk, []byte("hello"))
			_ = writeFrame(w, msgStreamEnd, (&streamEndMsg{Chunks: 2, Bytes: 5}).encode())
		}},
	} {
		e := clientExchange(9, scriptedPeer(t, tc.reply))
		e.streamRetries = 0
		mem := memory.New(1 << 30)
		e.SetMemory(mem)
		rc, err := e.FetchReader(1, "k")
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = io.ReadAll(rc)
		runtime.ReadMemStats(&after)
		rc.Close()
		if err == nil {
			t.Errorf("%s: read without error", tc.name)
			continue
		}
		if terr := rc.(*streamReader).TransportErr(); terr == nil {
			t.Errorf("%s: no transport error behind read error %v", tc.name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: the failed fetch allocated %d bytes", tc.name, grew)
		}
		if mem.Used() != 0 {
			t.Errorf("%s: the failed fetch left %d bytes reserved", tc.name, mem.Used())
		}
	}
}

// TestFetchGoneIsFatal: a peer that answers FetchGone lost the bucket
// for good — the error must not be retried, and the rank goes dead so
// later fetches fail fast into lineage recompute.
func TestFetchGoneIsFatal(t *testing.T) {
	w, addr := startDataServer(t)
	store := w.storeFor(4)
	store.fail()
	e := clientExchange(4, addr)
	if _, err := fetchAll(e, 1, "anything"); err == nil {
		t.Fatal("fetch from failed store succeeded")
	}
	if e.c.FetchGoneEvents.Load() == 0 {
		t.Fatal("FetchGone not counted")
	}
	if !e.dead[1].Load() {
		t.Fatal("FetchGone did not mark the rank dead")
	}
	if e.c.FetchRetries.Load() != 0 {
		t.Fatalf("fatal FetchGone was retried %d times", e.c.FetchRetries.Load())
	}
	if _, err := fetchAll(e, 1, "other"); err == nil || !bytes.Contains([]byte(err.Error()), []byte("dead")) {
		t.Fatalf("dead rank not failing fast: %v", err)
	}
}

// TestFetchAfterJobEnd: a straggler fetch for a job the driver already
// retired here must be answered FetchGone at once. It must not re-create
// the job's store — nobody would ever fail or drop it, so the map entry
// would leak and the serving goroutine would wait on it for good.
func TestFetchAfterJobEnd(t *testing.T) {
	d, ws := startCluster(t, 1, 3*time.Second)
	w := ws[0]
	if _, err := d.Run("test.echo", []byte("x"), 10*time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	stores := func() int {
		w.smu.Lock()
		defer w.smu.Unlock()
		return len(w.stores)
	}
	// Job 0 is this driver's first; its JobEnd trails the Run reply.
	deadline := time.Now().Add(5 * time.Second)
	for stores() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("job store never retired: %d left", stores())
		}
		time.Sleep(time.Millisecond)
	}
	// A server parked in waitGet would show as a read timeout instead.
	e := clientExchange(0, w.DataAddr())
	e.fetchTimeout, e.streamRetries = time.Second, 0
	if _, err := fetchAll(e, 1, "x1.0.0"); err == nil || e.c.FetchGoneEvents.Load() != 1 {
		t.Fatalf("fetch from an ended job: err=%v, %d FetchGone replies", err, e.c.FetchGoneEvents.Load())
	}
	if n := stores(); n != 0 {
		t.Fatalf("straggler fetch re-created a store: %d stores", n)
	}
}

// TestMemoryBoundedFetch: streaming a bucket many times the chunk size
// must reserve at most ~a chunk of budget at a time, never the whole
// bucket.
func TestMemoryBoundedFetch(t *testing.T) {
	w, addr := startDataServer(t)
	server := newExchange(7, 1, nil, w.storeFor(7), newPeerPools(0))
	rng := rand.New(rand.NewSource(9))
	blob := make([]byte, 16*shuffleChunkSize) // 4 MiB bucket
	rng.Read(blob)
	if err := server.Publish("big", blob); err != nil {
		t.Fatal(err)
	}
	mem := memory.New(1 << 30)
	e := clientExchange(7, addr)
	e.SetMemory(mem)
	rc, err := e.FetchReader(1, "big")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blob) {
		t.Fatal("streamed bucket mismatch")
	}
	peak := mem.Peak()
	if peak == 0 {
		t.Fatal("fetch reserved no memory: budget integration is not wired")
	}
	if peak > 2*shuffleChunkSize {
		t.Fatalf("fetch peak reservation %d exceeds two chunks (%d); bucket is %d",
			peak, 2*shuffleChunkSize, len(blob))
	}
	if mem.Used() != 0 {
		t.Fatalf("fetch leaked %d reserved bytes", mem.Used())
	}
}

// fetchReply runs one fetch against a peer whose answer to the request
// is reply's bytes, over an in-memory connection, with no retry: what
// the fetch read, its error, and the exchange that counted it.
func fetchReply(reply []byte, mem *memory.Manager) ([]byte, *Exchange, error) {
	client, server := net.Pipe()
	go func() {
		defer server.Close()
		if typ, _, err := readFrame(bufio.NewReader(server)); err == nil && typ == msgFetchStream {
			_, _ = server.Write(reply)
		}
	}()
	e := clientExchange(1, "unused")
	e.streamRetries = 0
	e.SetMemory(mem)
	e.pools[1].put(client)
	defer e.pools[1].close()
	got, err := fetchAll(e, 1, "k")
	return got, e, err
}

// FuzzChunkFrame hardens the client side of a fetch against whatever a
// peer answers: the fuzzer's bytes, read as the frames of a reply, end
// the fetch with the chunks' bytes, counted exactly, or with an error —
// never a panic, and never a reservation left held. The same bytes, as
// a fetch-stream request or a stream end, decode to an error or to a
// message whose encoding decodes back to it.
func FuzzChunkFrame(f *testing.F) {
	frame := func(typ byte, payload []byte) []byte {
		return append(binary.AppendUvarint([]byte{typ}, uint64(len(payload))), payload...)
	}
	end := func(chunks, n int64) []byte { return (&streamEndMsg{Chunks: chunks, Bytes: n}).encode() }
	whole := append(frame(msgStreamChunk, []byte("hello")), frame(msgStreamEnd, end(1, 5))...)
	f.Add(whole)
	f.Add(whole[:len(whole)-2]) // cut inside the stream end
	f.Add(append(frame(msgStreamChunk, []byte("hello")), frame(msgStreamEnd, end(2, 5))...))
	f.Add(frame(msgStreamEnd, end(0, 0)))
	f.Add(frame(msgFetchGone, []byte("gone")))
	f.Add((&fetchStreamMsg{JobID: 1, Key: "x1.2.3", FirstChunk: 7}).encode())
	f.Add(end(3, 1<<20))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		mem := memory.New(1 << 30)
		got, e, err := fetchReply(data, mem)
		if mem.Used() != 0 {
			t.Fatalf("the fetch left %d bytes reserved", mem.Used())
		}
		if err == nil {
			raw, wire, chunks := e.c.WireRawBytes.Load(), e.c.WireFetchedBytes.Load(), e.c.ChunksFetched.Load()
			if raw != int64(len(got)) || wire < raw+2*chunks || wire > int64(len(data)) {
				t.Fatalf("a %d-byte fetch counted %d raw and %d wire bytes in %d chunks from a %d-byte reply",
					len(got), raw, wire, chunks, len(data))
			}
		}
		if m, err := decodeFetchStream(data); err == nil {
			if m.FirstChunk < 0 {
				t.Fatal("decoder admitted negative FirstChunk")
			}
			m2, err2 := decodeFetchStream(m.encode())
			if err2 != nil || m2 != m {
				t.Fatalf("fetch-stream not canonical: %+v vs %+v (%v)", m, m2, err2)
			}
		}
		if m, err := decodeStreamEnd(data); err == nil {
			m2, err2 := decodeStreamEnd(m.encode())
			if err2 != nil || m2 != m {
				t.Fatalf("stream end not canonical: %+v vs %+v (%v)", m, m2, err2)
			}
		}
	})
}
