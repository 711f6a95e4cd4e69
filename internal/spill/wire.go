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

	"repro/internal/memory"
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
// the blob itself, allocated at the length their codec's Size adds up to,
// and no row is staged anywhere else.
func EncodeRows[T any](rows []T, c Codec[T]) ([]byte, error) {
	size := UvarintSize(uint64(len(rows)))
	for i := range rows {
		size += c.Size(rows[i])
	}
	w := Writer{buf: make([]byte, 0, size)}
	writeRows(&w, rows, c)
	if w.err != nil {
		return nil, fmt.Errorf("spill: encode rows: %w", w.err)
	}
	return w.buf, nil
}

// EncodeGroups serializes groups of rows as one blob — a shuffle map
// task's segments for the reduce partitions of one rank: a uvarint group
// count, then each group as EncodeRows lays out its rows. While it runs
// the writer keeps a back-reference table (Writer.Ref), so a value that
// recurs by identity anywhere in the blob is written once. A sizing pass
// runs the codec over the groups first, with a table of its own, so a
// repeated value counts as the back-reference it will be written as; the
// blob is then drawn from l at exactly that length (allocated, for a nil
// lease) and is the lease's to take back.
func EncodeGroups[T any](groups [][]T, c Codec[T], l *memory.Lease) ([]byte, error) {
	size := Writer{sizing: true, refs: make(map[any]uint64)}
	writeGroups(&size, groups, c)
	clear(size.refs)
	w := Writer{buf: l.Bytes(int(size.n))[:0], refs: size.refs}
	writeGroups(&w, groups, c)
	if w.err != nil {
		return nil, fmt.Errorf("spill: encode groups: %w", w.err)
	}
	return w.buf, nil
}

func writeGroups[T any](w *Writer, groups [][]T, c Codec[T]) {
	w.Uvarint(uint64(len(groups)))
	for _, g := range groups {
		writeRows(w, g, c)
	}
}

// writeRows writes a uvarint count and the rows.
func writeRows[T any](w *Writer, rows []T, c Codec[T]) {
	w.Uvarint(uint64(len(rows)))
	for i := range rows {
		c.Encode(w, rows[i])
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
// other blob is an error. The float64 slices the codec decodes are drawn
// from l (Reader.F64s).
func DecodeGroupsFrom[T any](src io.Reader, c Codec[T], groups int, l *memory.Lease) ([][]T, error) {
	r := pooledReader(src)
	defer r.release()
	r.refs, r.lease = []any{}, l
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
