// Package spill implements the serialization and external-storage
// layer behind the engine's out-of-core execution: typed codecs over a
// compact binary stream, sorted run files on local disk, and a k-way
// external merge that streams runs back in order.
//
// The package is deliberately independent of the dataflow engine: it
// knows nothing about datasets or stages. Codecs for engine types
// (pairs, coordinates, tiles) are registered by the packages that own
// them; anything unregistered falls back to a length-prefixed gob
// encoding, so every exported-field type can spill.
package spill

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"reflect"
	"sync"
)

// Writer is a buffered, sticky-error binary stream writer. Codecs
// compose its primitives; the first write error latches and all later
// writes are no-ops, so encode paths stay branch-light.
type Writer struct {
	w       *bufio.Writer
	n       int64
	err     error
	scratch [binary.MaxVarintLen64]byte
}

// NewWriter wraps w in a buffered spill stream.
func NewWriter(w io.Writer) *Writer { return &Writer{w: bufio.NewWriterSize(w, 1<<16)} }

// Err returns the latched write error, if any.
func (w *Writer) Err() error { return w.err }

// Count returns the bytes written so far (buffered included).
func (w *Writer) Count() int64 { return w.n }

// Fail latches err (if none is latched yet) so a codec can refuse a value
// it has no encoding for; the run or frame being written then fails.
func (w *Writer) Fail(err error) {
	if w.err == nil && err != nil {
		w.err = err
	}
}

// Flush drains the buffer and returns the latched error.
func (w *Writer) Flush() error {
	if w.err == nil {
		w.err = w.w.Flush()
	}
	return w.err
}

func (w *Writer) write(p []byte) {
	if w.err != nil {
		return
	}
	n, err := w.w.Write(p)
	w.n += int64(n)
	w.err = err
}

// Uvarint writes an unsigned varint.
func (w *Writer) Uvarint(v uint64) {
	n := binary.PutUvarint(w.scratch[:], v)
	w.write(w.scratch[:n])
}

// Varint writes a signed (zig-zag) varint.
func (w *Writer) Varint(v int64) {
	n := binary.PutVarint(w.scratch[:], v)
	w.write(w.scratch[:n])
}

// F64 writes a float64 as 8 little-endian bytes of its IEEE bits, so
// NaN payloads and signed zeros round-trip exactly.
func (w *Writer) F64(v float64) {
	binary.LittleEndian.PutUint64(w.scratch[:8], math.Float64bits(v))
	w.write(w.scratch[:8])
}

// F64s writes a float64 slice: uvarint length plus raw IEEE bits.
func (w *Writer) F64s(vs []float64) {
	w.Uvarint(uint64(len(vs)))
	var buf [512]byte
	for len(vs) > 0 {
		chunk := len(vs)
		if chunk > len(buf)/8 {
			chunk = len(buf) / 8
		}
		for i := 0; i < chunk; i++ {
			binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(vs[i]))
		}
		w.write(buf[:chunk*8])
		vs = vs[chunk:]
	}
}

// Bytes writes a length-prefixed byte slice.
func (w *Writer) Bytes(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.write(b)
}

// String writes a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.write([]byte(s))
}

// Reader is the buffered, sticky-error mirror of Writer. After any
// read error (including a truncated stream) every method returns zero
// values; callers check Err once per record batch.
type Reader struct {
	r       *bufio.Reader
	err     error
	scratch [8]byte
}

// NewReader wraps r in a buffered spill stream reader.
func NewReader(r io.Reader) *Reader { return &Reader{r: bufio.NewReaderSize(r, 1<<16)} }

// Err returns the latched read error, if any.
func (r *Reader) Err() error { return r.err }

// Fail latches err (if none is latched yet) so codecs outside this
// package can report structural corruption — e.g. a tile whose header
// dimensions disagree with its payload length.
func (r *Reader) Fail(err error) {
	if r.err == nil && err != nil {
		r.err = err
	}
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(r.r)
	if err != nil {
		r.err = err
		return 0
	}
	return v
}

// Varint reads a signed varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadVarint(r.r)
	if err != nil {
		r.err = err
		return 0
	}
	return v
}

// F64 reads one float64.
func (r *Reader) F64() float64 {
	if r.err != nil {
		return 0
	}
	if _, err := io.ReadFull(r.r, r.scratch[:8]); err != nil {
		r.err = err
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(r.scratch[:8]))
}

// lenCheckChunk bounds how much a length-prefixed decode allocates
// before any payload bytes have been verified to exist. A corrupt
// header can claim any length; reading in chunks turns that into a
// truncated-stream error instead of an arbitrarily large upfront
// allocation.
const lenCheckChunk = 1 << 16

// F64s reads a float64 slice written by Writer.F64s.
func (r *Reader) F64s() []float64 {
	n := r.Uvarint()
	if r.err != nil || n == 0 {
		return nil
	}
	if n > 1<<40 {
		r.err = fmt.Errorf("spill: implausible slice length %d", n)
		return nil
	}
	alloc := n
	if alloc > lenCheckChunk {
		alloc = lenCheckChunk
	}
	out := make([]float64, 0, alloc)
	for i := uint64(0); i < n; i++ {
		v := r.F64()
		if r.err != nil {
			return nil
		}
		out = append(out, v)
	}
	return out
}

// Bytes reads a length-prefixed byte slice.
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if r.err != nil || n == 0 {
		return nil
	}
	if n > 1<<40 {
		r.err = fmt.Errorf("spill: implausible byte length %d", n)
		return nil
	}
	var out []byte
	for read := uint64(0); read < n; {
		chunk := n - read
		if chunk > lenCheckChunk {
			chunk = lenCheckChunk
		}
		if out == nil {
			out = make([]byte, 0, chunk)
		}
		out = append(out, make([]byte, chunk)...)
		if _, err := io.ReadFull(r.r, out[read:]); err != nil {
			r.err = err
			return nil
		}
		read += chunk
	}
	return out
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes()) }

// Codec serializes values of one type onto spill streams. Encode must
// write a self-delimiting record; Decode must read exactly what Encode
// wrote. Decode reports failure through the Reader's sticky error.
type Codec[T any] interface {
	Encode(w *Writer, v T)
	Decode(r *Reader) T
}

// registry maps reflect.Type of T to its registered Codec[T].
var registry sync.Map

// Register installs the preferred codec for T, replacing any previous
// registration. Packages register their shuffle row types in init().
func Register[T any](c Codec[T]) {
	registry.Store(reflect.TypeFor[T](), c)
}

// For returns the registered codec for T, falling back to the gob
// codec so arbitrary exported-field types can always spill.
func For[T any]() Codec[T] {
	if c, ok := registry.Load(reflect.TypeFor[T]()); ok {
		return c.(Codec[T])
	}
	return GobCodec[T]{}
}

// Registered reports whether T has a hand-rolled codec (used by tests
// to ensure hot-path types never fall back to gob).
func Registered[T any]() bool {
	_, ok := registry.Load(reflect.TypeFor[T]())
	return ok
}

// Float64Codec spills bare float64 values.
type Float64Codec struct{}

func (Float64Codec) Encode(w *Writer, v float64) { w.F64(v) }
func (Float64Codec) Decode(r *Reader) float64    { return r.F64() }

// Int64Codec spills bare int64 values as signed varints.
type Int64Codec struct{}

func (Int64Codec) Encode(w *Writer, v int64) { w.Varint(v) }
func (Int64Codec) Decode(r *Reader) int64    { return r.Varint() }

// IntCodec spills platform ints as signed varints.
type IntCodec struct{}

func (IntCodec) Encode(w *Writer, v int) { w.Varint(int64(v)) }
func (IntCodec) Decode(r *Reader) int    { return int(r.Varint()) }

// StringCodec spills strings length-prefixed.
type StringCodec struct{}

func (StringCodec) Encode(w *Writer, v string) { w.String(v) }
func (StringCodec) Decode(r *Reader) string    { return r.String() }

// Float64SliceCodec spills []float64 payloads (tile rows, vectors).
type Float64SliceCodec struct{}

func (Float64SliceCodec) Encode(w *Writer, v []float64) { w.F64s(v) }
func (Float64SliceCodec) Decode(r *Reader) []float64    { return r.F64s() }

// gobBufPool recycles encode buffers for the gob fallback.
var gobBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// GobCodec is the fallback codec for arbitrary T: each record is a
// length-prefixed, self-contained gob message. It is markedly slower
// and fatter than the hand-rolled codecs (every record re-sends type
// info), which is exactly why hot shuffle row types register real
// codecs; correctness, not speed, is its contract.
type GobCodec[T any] struct{}

func (GobCodec[T]) Encode(w *Writer, v T) {
	if w.err != nil {
		return
	}
	buf := gobBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if err := gob.NewEncoder(buf).Encode(&v); err != nil {
		w.err = fmt.Errorf("spill: gob encode: %w", err)
		gobBufPool.Put(buf)
		return
	}
	w.Bytes(buf.Bytes())
	gobBufPool.Put(buf)
}

func (GobCodec[T]) Decode(r *Reader) T {
	var v T
	b := r.Bytes()
	if r.err != nil {
		return v
	}
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&v); err != nil {
		r.err = fmt.Errorf("spill: gob decode: %w", err)
	}
	return v
}
