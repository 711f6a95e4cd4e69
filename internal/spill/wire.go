package spill

// Wire helpers: the cluster runtime reuses the spill codec registry as
// its network serialization format, so tiles, pairs, and coordinates
// cross process boundaries with the same hand-rolled codecs that write
// run files, and one set of fuzzers covers both the disk and the network
// decoders.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// init registers the primitive codecs, for bare scalars (action partials,
// counts) on the wire.
func init() {
	Register[float64](Float64Codec{})
	Register[int64](Int64Codec{})
	Register[int](IntCodec{})
	Register[string](StringCodec{})
	Register[[]float64](Float64SliceCodec{})
}

// EncodeRows serializes rows as one self-contained blob: a uvarint
// record count followed by the records. The blob is what action
// partials hand to the cluster transport. The records are encoded into
// the blob itself, sized from the rows encoded so far: a blob of equal
// tiles is one allocation, and no row is staged anywhere else.
func EncodeRows[T any](rows []T, c Codec[T]) ([]byte, error) {
	var w Writer
	writeRows(&w, rows, c, 0, len(rows))
	if w.err != nil {
		return nil, fmt.Errorf("spill: encode rows: %w", w.err)
	}
	return w.buf, nil
}

// EncodeGroups serializes groups of rows as one blob — a shuffle map
// task's segments for the reduce partitions of one rank: a uvarint group
// count, then each group as EncodeRows lays out its rows. While it runs
// the writer keeps a back-reference table (Writer.Ref), so a value that
// recurs by identity anywhere in the blob is written once.
func EncodeGroups[T any](groups [][]T, c Codec[T]) ([]byte, error) {
	w := Writer{refs: make(map[any]uint64)}
	total := 0
	for _, g := range groups {
		total += len(g)
	}
	w.Uvarint(uint64(len(groups)))
	done := 0
	for _, g := range groups {
		writeRows(&w, g, c, done, total)
		done += len(g)
	}
	if w.err != nil {
		return nil, fmt.Errorf("spill: encode groups: %w", w.err)
	}
	return w.buf, nil
}

// writeRows writes a uvarint count and the rows into an in-memory writer,
// growing its buffer towards the blob's projected size: the mean row so
// far, rounded up, times the blob's total rows (done of them written
// before these), plus 1/64 for keys whose varints lengthen along the way.
func writeRows[T any](w *Writer, rows []T, c Codec[T], done, total int) {
	w.Uvarint(uint64(len(rows)))
	for i := range rows {
		c.Encode(w, rows[i])
		n := done + i
		w.want = (len(w.buf) + n) / (n + 1) * total
		w.want += w.want / 64
	}
}

// rowReaders recycles the decoders' stream buffers: a reduce task
// decodes one blob per map task, most of them far smaller than the
// buffer that reads them.
var rowReaders = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, readerBufSize) }}

// pooledReader wraps src in a pooled stream buffer, which release returns.
func pooledReader(src io.Reader) *Reader {
	br := rowReaders.Get().(*bufio.Reader)
	br.Reset(src)
	return &Reader{r: br}
}

func (r *Reader) release() {
	r.r.Reset(nil)
	rowReaders.Put(r.r)
}

// readRows reads one uvarint count and that many records. Like the
// run-file readers it bounds the upfront allocation: a corrupt count
// turns into a truncated-stream error, not an arbitrarily large make.
func readRows[T any](r *Reader, c Codec[T]) ([]T, error) {
	n := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]T, 0, min(n, lenCheckChunk))
	for i := uint64(0); i < n; i++ {
		v := c.Decode(r)
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("record %d of %d: %w", i, n, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// DecodeRowsFrom reverses EncodeRows against a stream instead of a
// materialized blob — the streaming fetch decodes records as chunks
// arrive, so a blob never has to exist contiguously in memory on the
// consumer side.
func DecodeRowsFrom[T any](src io.Reader, c Codec[T]) ([]T, error) {
	r := pooledReader(src)
	defer r.release()
	rows, err := readRows(r, c)
	if err != nil {
		return nil, fmt.Errorf("spill: decode rows: %w", err)
	}
	return rows, nil
}

// DecodeRows reverses EncodeRows.
func DecodeRows[T any](blob []byte, c Codec[T]) ([]T, error) {
	return DecodeRowsFrom(bytes.NewReader(blob), c)
}

// bound counts the values grouped decodes in this process have bound as
// back-reference targets: each one a value that crossed whole.
var bound atomic.Int64

// Bound reads bound, for the tests that pin what a shuffle moves.
func Bound() int64 { return bound.Load() }

// DecodeGroupsFrom reverses EncodeGroups against a stream. The blob must
// hold exactly groups groups — the reduce partitions its reader owns — and
// a back-reference must point at a value decoded earlier in the blob; any
// other blob is an error.
func DecodeGroupsFrom[T any](src io.Reader, c Codec[T], groups int) ([][]T, error) {
	r := pooledReader(src)
	defer r.release()
	r.refs = []any{}
	n := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("spill: decode groups: %w", err)
	}
	if n != uint64(groups) {
		return nil, fmt.Errorf("spill: decode groups: blob holds %d groups, want %d", n, groups)
	}
	out := make([][]T, groups)
	for g := range out {
		rows, err := readRows(r, c)
		if err != nil {
			return nil, fmt.Errorf("spill: decode groups: group %d of %d: %w", g, groups, err)
		}
		out[g] = rows
	}
	bound.Add(int64(len(r.refs)))
	return out, nil
}
