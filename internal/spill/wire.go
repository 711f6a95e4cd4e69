package spill

// Wire helpers: the cluster runtime reuses the spill codec registry as
// its network serialization format, so tiles, pairs, and coordinates
// cross process boundaries with the same hand-rolled codecs that write
// run files — no gob on the hot path, and one set of fuzzers covers
// both the disk and the network decoders.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sync"
)

// init registers the primitive codecs so bare scalars (action partials,
// counts) ship with the compact encoding instead of the gob fallback.
func init() {
	Register[float64](Float64Codec{})
	Register[int64](Int64Codec{})
	Register[int](IntCodec{})
	Register[string](StringCodec{})
	Register[[]float64](Float64SliceCodec{})
}

// EncodeRows serializes rows as one self-contained blob: a uvarint
// record count followed by the records. The blob is what shuffle
// publishers hand to the cluster transport. The records are encoded
// into the blob itself, sized from the rows encoded so far: a bucket of
// equal tiles is one allocation, and no row is staged anywhere else.
func EncodeRows[T any](rows []T, c Codec[T]) ([]byte, error) {
	var w Writer
	w.Uvarint(uint64(len(rows)))
	for i := range rows {
		c.Encode(&w, rows[i])
		// The mean row so far, rounded up, times all rows, plus 1/64 for
		// keys whose varints lengthen along the way.
		w.want = (len(w.buf) + i) / (i + 1) * len(rows)
		w.want += w.want / 64
	}
	if w.err != nil {
		return nil, fmt.Errorf("spill: encode rows: %w", w.err)
	}
	return w.buf, nil
}

// rowReaders recycles DecodeRowsFrom's stream buffers: a reduce task
// decodes one segment per map task, most of them far smaller than the
// buffer that reads them.
var rowReaders = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, readerBufSize) }}

// DecodeRowsFrom reverses EncodeRows against a stream instead of a
// materialized blob — the streaming shuffle path decodes records as
// chunks arrive, so a bucket never has to exist contiguously in memory
// on the consumer side. Like the run-file readers it bounds the upfront
// allocation: a corrupt count turns into a truncated-stream error, not
// an arbitrarily large make.
func DecodeRowsFrom[T any](src io.Reader, c Codec[T]) ([]T, error) {
	br := rowReaders.Get().(*bufio.Reader)
	br.Reset(src)
	defer func() {
		br.Reset(nil)
		rowReaders.Put(br)
	}()
	r := &Reader{r: br}
	n := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("spill: decode rows: %w", err)
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]T, 0, min(n, lenCheckChunk))
	for i := uint64(0); i < n; i++ {
		v := c.Decode(r)
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("spill: decode rows: record %d of %d: %w", i, n, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// DecodeRows reverses EncodeRows.
func DecodeRows[T any](blob []byte, c Codec[T]) ([]T, error) {
	return DecodeRowsFrom(bytes.NewReader(blob), c)
}
