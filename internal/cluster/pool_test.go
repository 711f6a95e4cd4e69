package cluster

// What a worker keeps between jobs, on the buffer side: a job's buffers go
// back to the worker's pool when the driver ends the job, but never under
// a serve of one of its buckets that is still streaming them.

import (
	"bufio"
	"bytes"
	"io"
	"sync"
	"testing"

	"repro/internal/memory"
)

// served parses what serveStream wrote: the chunks it streamed, or the
// payload of the FetchGone it answered with.
func served(t *testing.T, out *bytes.Buffer) (body []byte, gone string) {
	t.Helper()
	br := bufio.NewReader(out)
	for {
		typ, payload, err := readFrame(br)
		if err != nil {
			t.Fatalf("served stream: %v", err)
		}
		switch typ {
		case msgStreamChunk:
			body = append(body, payload...)
		case msgStreamEnd:
			return body, ""
		case msgFetchGone:
			return nil, string(payload)
		default:
			t.Fatalf("frame type %d", typ)
		}
	}
}

// TestJobEndWaitsForServes: a serve in flight when the driver ends the job
// streams the bucket's own bytes, and the job's buffers — here a published
// blob, poisoned on release by the test hook — go back to the pool only
// once it is done. A straggler fetch after the end gets FetchGone, never
// a recycled buffer.
func TestJobEndWaitsForServes(t *testing.T) {
	memory.PoisonReleased(true)
	t.Cleanup(func() { memory.PoisonReleased(false) })
	w := &Worker{stores: make(map[int64]*jobStore), buffers: memory.NewPool(1 << 30)}
	store := w.storeFor(11)
	server := newExchange(11, 1, nil, store, newPeerPools(0))
	want := bytes.Repeat([]byte("published blob "), 40_000) // three chunks
	blob := store.lease.Bytes(len(want))
	copy(blob, want)
	if err := server.Publish("published", blob); err != nil {
		t.Fatal(err)
	}
	// The serve in flight is held by its connection: the first write
	// reaching it blocks until the gate opens.
	var inflight bytes.Buffer
	conn := &gatedWriter{w: &inflight, writing: make(chan struct{}), gate: make(chan struct{})}
	done := make(chan bool)
	go func() {
		done <- w.serveStream(bufio.NewWriter(conn), fetchStreamMsg{JobID: 11, Key: "published"})
	}()
	<-conn.writing
	w.endJob(11)

	var late bytes.Buffer
	bw := bufio.NewWriter(&late)
	if !w.serveStream(bw, fetchStreamMsg{JobID: 11, Key: "published"}) {
		t.Fatal("straggler fetch broke the connection")
	}
	if body, gone := served(t, &late); gone == "" {
		t.Fatalf("straggler fetch after the job's end was served %d bytes, want FetchGone", len(body))
	}
	if !bytes.Equal(blob, want) {
		t.Fatal("the published blob was recycled while a serve of the job was in flight")
	}

	close(conn.gate)
	if !<-done {
		t.Fatal("in-flight serve broke the connection")
	}
	if body, gone := served(t, &inflight); gone != "" || !bytes.Equal(body, want) {
		t.Fatalf("in-flight serve: %d bytes (gone %q), want the bucket's %d", len(body), gone, len(want))
	}
	for i, b := range blob {
		if b != 0xA5 {
			t.Fatalf("byte %d of the published blob is %#x after the last serve left: the job's lease never closed", i, b)
		}
	}
	if held := w.buffers.Held(); held != int64(len(want)) {
		t.Fatalf("the pool holds %d bytes, want the job's one %d-byte blob", held, len(want))
	}
}

// gatedWriter is a connection that takes a serve's bytes only once gate
// is closed; writing is closed when the first write arrives.
type gatedWriter struct {
	w             io.Writer
	writing, gate chan struct{}
	once          sync.Once
}

func (g *gatedWriter) Write(p []byte) (int, error) {
	g.once.Do(func() { close(g.writing) })
	<-g.gate
	return g.w.Write(p)
}
