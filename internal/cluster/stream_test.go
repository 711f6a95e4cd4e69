package cluster

// Streaming data-plane tests: chunked/compressed fetch parity with the
// published bytes, transparent resume after transient stream errors
// (the rank must NOT be marked dead), fatal FetchGone classification —
// for a failed job and for one that already ended — connection-pool
// reuse, and memory-bounded fetches.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/comp"
	"repro/internal/dataflow"
	"repro/internal/linalg"
	"repro/internal/memory"
	_ "repro/internal/plan" // registers the coordinate rows' codec
	"repro/internal/spill"
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
	random := make([]byte, 3*shuffleChunkSize+777) // 4 chunks, incompressible
	rng.Read(random)
	return map[string][]byte{
		"empty":      {},
		"tiny":       []byte("hello"),
		"one-chunk":  bytes.Repeat([]byte("abc"), 1000),
		"repetitive": bytes.Repeat([]byte("0123456789abcdef"), 5*shuffleChunkSize/16), // 5 chunks, compressible
		"random":     random,
	}
}

// TestStreamFetchParity: every blob shape — empty, sub-chunk, several
// compressible chunks, several incompressible ones — comes back from
// the data server byte for byte, whichever way the publish-side probe
// stored its chunks.
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
		if raw != int64(len(blob)) || (chunks == 0) != (len(blob) == 0) {
			t.Fatalf("%s: counted %d raw bytes in %d chunks for a %d-byte blob", name, raw, chunks, len(blob))
		}
		switch name {
		case "repetitive":
			if wire >= raw {
				t.Fatalf("compression saved nothing: wire=%d raw=%d", wire, raw)
			}
		case "random":
			// Stored raw by the probe: framing is the only overhead.
			if wire < raw || wire > raw+16*chunks {
				t.Fatalf("incompressible blob: wire=%d raw=%d in %d chunks", wire, raw, chunks)
			}
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

// TestTransientStreamErrorResumes is the regression test for the PR 5
// bug where ANY fetch error permanently killed the rank: a server that
// drops the connection mid-stream must cost a transparent retry — the
// client resumes from the next chunk, the result is byte-identical,
// and the rank is NOT marked dead.
func TestTransientStreamErrorResumes(t *testing.T) {
	blob := bytes.Repeat([]byte("stream-me-"), 4*shuffleChunkSize/10)
	bkt := makeBucket(blob)
	if len(bkt.chunks) < 2 {
		t.Fatal("test bucket must span several chunks")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
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
				var end streamEndMsg
				for i := int(req.FirstChunk); i < len(bkt.chunks); i++ {
					ch := bkt.chunks[i]
					if writeChunkFrame(conn, ch.flags, ch.rawLen, ch.data) != nil {
						return
					}
					end.Chunks++
					end.RawBytes += int64(ch.rawLen)
					if kill {
						return // hang up mid-stream after one chunk
					}
				}
				_ = writeFrame(conn, msgStreamEnd, end.encode())
			}(conn, n == 1)
		}
	}()
	e := clientExchange(3, ln.Addr().String())
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
	fcMu.Lock()
	resumed := len(firstChunks) >= 2 && firstChunks[0] == 0 && firstChunks[1] > 0
	seen := append([]int64(nil), firstChunks...)
	fcMu.Unlock()
	if !resumed {
		t.Fatalf("expected a resume with FirstChunk > 0, saw requests %v", seen)
	}
	// A later fetch from the same (healthy) rank must still work.
	if _, err := fetchAll(e, 1, "x"); err != nil {
		t.Fatalf("rank unusable after recovered transient error: %v", err)
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
// believed. A compressed chunk that does not inflate is corrupt payload —
// an error with no transport error behind it, so the consumer does not
// recompute what would come out the same — while a raw chunk shorter
// than its header says, a chunk claiming more than maxFrame raw bytes
// and a frame longer than maxFrame are the peer's fault and fail the
// fetch as transport errors, all without allocating what they claim.
func TestMalformedChunksAreErrors(t *testing.T) {
	oversized := func(w io.Writer) {
		hdr := binary.AppendUvarint([]byte{msgStreamChunk}, maxFrame+1)
		_, _ = w.Write(hdr)
	}
	for _, tc := range []struct {
		name      string
		reply     func(w io.Writer)
		transport bool
	}{
		{"compressed chunk that does not inflate", func(w io.Writer) {
			_ = writeChunkFrame(w, chunkFlagCompressed, 1000, []byte{200, 1, 2, 3})
		}, false},
		{"raw chunk shorter than its header", func(w io.Writer) {
			_ = writeChunkFrame(w, 0, 1000, []byte("short"))
		}, true},
		{"chunk claiming more than maxFrame", func(w io.Writer) {
			_ = writeChunkFrame(w, chunkFlagCompressed, maxFrame+1, []byte{1})
		}, true},
		{"frame longer than maxFrame", oversized, true},
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
		terr := rc.(interface{ TransportErr() error }).TransportErr()
		if (terr != nil) != tc.transport {
			t.Errorf("%s: transport error %v, want one: %v (read error: %v)", tc.name, terr, tc.transport, err)
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

// tileBucket is a shuffle bucket of the group-by-join: count n x n tiles
// keyed by the join's k and their coordinates, in the wire encoding.
// zeros is the share of each tile's cells left zero; the rest are
// uniform in [0,10), which no block compressor shortens.
func tileBucket(tb testing.TB, count, n int, zeros float64) []byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(int64(count)))
	type row = dataflow.Pair[int64, dataflow.Pair[dataflow.Coord, *linalg.Dense]]
	rows := make([]row, count)
	for i := range rows {
		tile := linalg.NewDense(n, n)
		for c := range tile.Data {
			if rng.Float64() >= zeros {
				tile.Data[c] = 10 * rng.Float64()
			}
		}
		rows[i] = dataflow.KV(int64(i%10), dataflow.KV(dataflow.Coord{I: int64(i / 10), J: int64(i % 10)}, tile))
	}
	blob, err := spill.EncodeRows(rows, spill.For[row]())
	if err != nil {
		tb.Fatal(err)
	}
	return blob
}

// coordBucket is a bucket of the coordinate fallback's join: count
// ((i,k), a) elements under the rendered join key, in the wire encoding.
// a is uniform in [0,10), or with whole a whole number below 10 (an
// adjacency or count matrix), whose float64 is six zero bytes in eight.
func coordBucket(tb testing.TB, count int, whole bool) []byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(int64(count)))
	type row = dataflow.Pair[string, comp.Value]
	rows := make([]row, count)
	for i := range rows {
		ik := comp.Tuple{int64(i / 1000), int64(i % 1000)}
		a := 10 * rng.Float64()
		if whole {
			a = math.Floor(a)
		}
		rows[i] = dataflow.KV(comp.Render(ik[1]), comp.Value(comp.Tuple{ik, a}))
	}
	blob, err := spill.EncodeRows(rows, spill.For[row]())
	if err != nil {
		tb.Fatal(err)
	}
	return blob
}

// storedCompressed counts the bucket's chunks stored compressed and
// checks every chunk against the raw bytes it stands for.
func storedCompressed(t *testing.T, blob []byte, b bucket) (compressed int) {
	t.Helper()
	var raw []byte
	for i, c := range b.chunks {
		if c.flags&chunkFlagCompressed == 0 {
			raw = append(raw, c.data...)
			continue
		}
		compressed++
		if !compressionPays(len(c.data), c.rawLen) {
			t.Fatalf("chunk %d stored compressed at %d of %d bytes, short of the break-even", i, len(c.data), c.rawLen)
		}
		plain, err := spill.DecompressBlock(c.data, c.rawLen)
		if err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
		raw = append(raw, plain...)
	}
	if !bytes.Equal(raw, blob) {
		t.Fatal("the bucket's chunks do not add up to the published bytes")
	}
	return compressed
}

// TestBucketHeuristic: the publish-side probe compresses the buckets on
// which compression pays and stores the others raw — and finds out from
// a sample of the bucket's head, not by compressing a chunk of it.
func TestBucketHeuristic(t *testing.T) {
	rep := bytes.Repeat([]byte("abcd"), shuffleChunkSize)
	rng := rand.New(rand.NewSource(1))
	rnd := make([]byte, 2*shuffleChunkSize)
	rng.Read(rnd)
	for _, tc := range []struct {
		name       string
		blob       []byte
		compressed bool
	}{
		{"repetitive bytes", rep, true},
		{"random bytes", rnd, false},
		{"dense random tiles", tileBucket(t, 50, 100, 0), false},
		{"tiles 90% zero", tileBucket(t, 50, 100, 0.9), true},
		// Random values leave a fifth to save, short of the break-even.
		{"coordinate rows", coordBucket(t, 100_000, false), false},
		{"coordinate rows, whole values", coordBucket(t, 100_000, true), true},
		{"tiny compressible", bytes.Repeat([]byte{7}, 100), true},
		{"tiny random", rnd[:100], false},
	} {
		if len(tc.blob) > 2*compressSampleSize && len(tc.blob) < 2*shuffleChunkSize {
			t.Fatalf("%s: a %d-byte bucket does not span the chunks the case is about", tc.name, len(tc.blob))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b := makeBucket(tc.blob)
		runtime.ReadMemStats(&after)
		chunks := len(b.chunks)
		if got := storedCompressed(t, tc.blob, b); tc.compressed && got != chunks || !tc.compressed && got != 0 {
			t.Errorf("%s: %d of %d chunks stored compressed", tc.name, got, chunks)
		}
		// CompressBlock allocates its input's size for its output, so what
		// makeBucket allocated bounds what it compressed: for a bucket it
		// stores raw, the sample (and at most a 64 KiB match table the pool
		// had dropped), nothing like a chunk.
		if grew := after.TotalAlloc - before.TotalAlloc; !tc.compressed && grew > shuffleChunkSize/2 {
			t.Errorf("%s: deciding to store %d bytes raw allocated %d bytes; the decision is to touch only a %d-byte sample",
				tc.name, len(tc.blob), grew, compressSampleSize)
		}
	}
}

var bucketSink bucket

// BenchmarkMakeBucket is the publish-side cost per bucket byte on the
// three payloads the exchange sees: dense tiles (stored raw after the
// sample), zero-heavy tiles and coordinate rows (compressed).
func BenchmarkMakeBucket(b *testing.B) {
	for _, bc := range []struct {
		name string
		blob []byte
	}{
		{"dense", tileBucket(b, 3, 100, 0)}, // one chunk; cluster-matmul's blobs are three or four
		{"sparse", tileBucket(b, 3, 100, 0.9)},
		{"coord", coordBucket(b, 10_000, true)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(bc.blob)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bucketSink = makeBucket(bc.blob)
			}
		})
	}
}

// FuzzChunkFrame hardens the streaming decoders against corrupt and
// truncated frames: they must error, never panic, and the frame
// encoder must round-trip.
func FuzzChunkFrame(f *testing.F) {
	// chunkPayload is the payload of the frame writeChunkFrame writes.
	chunkPayload := func(flags byte, rawLen int, body []byte) []byte {
		var frame bytes.Buffer
		if err := writeChunkFrame(&frame, flags, rawLen, body); err != nil {
			f.Fatal(err)
		}
		typ, payload, err := readFrame(bufio.NewReader(&frame))
		if err != nil || typ != msgStreamChunk {
			f.Fatalf("chunk frame read back as type %d: %v", typ, err)
		}
		return payload
	}
	f.Add(chunkPayload(0, 5, []byte("hello")))
	f.Add(chunkPayload(chunkFlagCompressed, 100, []byte{1, 2, 3}))
	f.Add((&fetchStreamMsg{JobID: 1, Key: "x1.2.3", FirstChunk: 7}).encode())
	f.Add((&streamEndMsg{Chunks: 3, RawBytes: 1 << 20, WireBytes: 1 << 18}).encode())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	ch := chunkPayload(chunkFlagCompressed, 1<<20, bytes.Repeat([]byte{7}, 64))
	f.Add(ch[:len(ch)/2]) // truncated chunk
	f.Fuzz(func(t *testing.T, data []byte) {
		flags, rawLen, body, err := decodeChunkFrame(data)
		if err == nil {
			if rawLen > maxFrame || rawLen < 0 {
				t.Fatalf("decoder admitted bad rawLen %d", rawLen)
			}
			// Re-encoding the decoded values must decode back to the
			// same values (the encoding is canonical; the input may
			// have used non-minimal varints).
			f2, r2, b2, err2 := decodeChunkFrame(chunkPayload(flags, rawLen, body))
			if err2 != nil || f2 != flags || r2 != rawLen || !bytes.Equal(b2, body) {
				t.Fatalf("chunk frame not canonical: %v", err2)
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
		_, _ = decodeStreamEnd(data)
	})
}
