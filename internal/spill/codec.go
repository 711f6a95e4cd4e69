// Package spill implements the serialization and external-storage
// layer behind the engine's out-of-core execution: typed codecs over a
// compact binary stream, sorted run files on local disk, and a k-way
// external merge that streams runs back in order.
//
// The package is deliberately independent of the dataflow engine: it
// knows nothing about datasets or stages. Codecs for engine types
// (pairs, coordinates, tiles) are registered by the packages that own
// them. A codec also knows how many bytes it writes for a value, which is
// how the engine sizes a row; a type with no codec cannot be shuffled,
// cached or gathered.
package spill

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"reflect"
	"sync"

	"repro/internal/memory"
)

// Writer is a buffered, sticky-error binary stream writer. Codecs
// compose its primitives; the first write error latches and all later
// writes are no-ops, so encode paths stay branch-light.
//
// The writer owns its buffer, and the primitives encode straight into
// its free space. Over a stream (NewWriter) the buffer is handed on a
// block of writerBufSize bytes at a time and reused; with no stream
// behind it (EncodeRows, EncodeGroups) it is allocated at the blob's
// final size and is the result, so an in-memory encode is not staged
// through a second buffer. A sizing writer writes nothing: it counts the
// bytes the same calls would write, which is how an in-memory encode
// learns its size.
type Writer struct {
	out    io.Writer // nil: the bytes stay in buf
	buf    []byte
	n      int64 // bytes handed to out, or counted by a sizing writer
	err    error
	sizing bool
	// refs is the back-reference table of the grouped blob being encoded
	// (EncodeGroups), nil anywhere else: see Ref.
	refs map[any]uint64
}

const (
	// writerBufSize is the block a stream writer hands to its stream.
	// Every block but the last is exactly this long, so a run file is
	// written at aligned offsets whatever the sizes of the values in it
	// (blocks a few bytes short, each ending on a whole value, cost the
	// file writes 14 % more time as measured).
	writerBufSize = 1 << 16
	// writerSlack is what a stream writer's buffer holds past a block:
	// room for the largest fixed-size primitive, so that one may start
	// anywhere short of a full block and the block still goes out whole.
	writerSlack = 16
)

// NewWriter wraps w in a buffered spill stream.
func NewWriter(w io.Writer) *Writer {
	return &Writer{out: w, buf: make([]byte, 0, writerBufSize+writerSlack)}
}

// Count returns the bytes written so far (buffered included).
func (w *Writer) Count() int64 { return w.n + int64(len(w.buf)) }

// Fail latches err (if none is latched yet) so a codec can refuse a value
// it has no encoding for; the run or frame being written then fails.
func (w *Writer) Fail(err error) {
	if w.err == nil && err != nil {
		w.err = err
	}
}

// Flush drains the buffer and returns the latched error.
func (w *Writer) Flush() error {
	if w.out != nil && len(w.buf) > 0 {
		w.emit(w.buf)
		w.buf = w.buf[:0]
	}
	return w.err
}

// emit hands p to the stream, latching its error.
func (w *Writer) emit(p []byte) {
	if w.err != nil {
		return
	}
	n, err := w.out.Write(p)
	w.n += int64(n)
	if err == nil && n < len(p) {
		err = io.ErrShortWrite
	}
	w.err = err
}

// room returns the buffer with at least k bytes free behind its length.
// A stream writer's buffer never grows: it has writerSlack free between
// primitives, and write and F64s ask for no more than is left. An
// in-memory one is allocated at its final size, so it grows (by doubling)
// only past a codec whose Size is short of what it writes.
func (w *Writer) room(k int) []byte {
	if cap(w.buf)-len(w.buf) >= k {
		return w.buf
	}
	size := max(len(w.buf)+k, 2*cap(w.buf), 64)
	grown := make([]byte, len(w.buf), size)
	copy(grown, w.buf)
	w.buf = grown
	return grown
}

// filled takes over the buffer a primitive appended to. A stream writer
// whose buffer has reached a block hands that block on and keeps the
// rest, fewer than writerSlack bytes, at the front.
func (w *Writer) filled(buf []byte) {
	if w.out != nil && len(buf) >= writerBufSize {
		w.emit(buf[:writerBufSize])
		buf = buf[:copy(buf, buf[writerBufSize:])]
	}
	w.buf = buf
}

func (w *Writer) write(p []byte) {
	if w.sizing {
		w.n += int64(len(p))
		return
	}
	for len(p) > 0 && w.err == nil {
		k := len(p)
		if w.out != nil {
			k = min(k, writerBufSize-len(w.buf))
		}
		w.filled(append(w.room(k), p[:k]...))
		p = p[k:]
	}
}

// Uvarint writes an unsigned varint.
func (w *Writer) Uvarint(v uint64) {
	if w.sizing {
		w.n += UvarintSize(v)
	} else if w.err == nil {
		w.filled(binary.AppendUvarint(w.room(int(UvarintSize(v))), v))
	}
}

// Varint writes a signed (zig-zag) varint.
func (w *Writer) Varint(v int64) {
	if w.sizing {
		w.n += VarintSize(v)
	} else if w.err == nil {
		w.filled(binary.AppendVarint(w.room(int(VarintSize(v))), v))
	}
}

// F64 writes a float64 as 8 little-endian bytes of its IEEE bits, so
// NaN payloads and signed zeros round-trip exactly.
func (w *Writer) F64(v float64) {
	if w.sizing {
		w.n += 8
	} else if w.err == nil {
		w.filled(binary.LittleEndian.AppendUint64(w.room(8), math.Float64bits(v)))
	}
}

// F64s writes a float64 slice: uvarint length plus raw IEEE bits,
// converted in blocks straight into the buffer's free space — all of
// them at once in memory, what the buffer has room for over a stream.
func (w *Writer) F64s(vs []float64) {
	w.Uvarint(uint64(len(vs)))
	if w.sizing {
		w.n += 8 * int64(len(vs))
		return
	}
	for len(vs) > 0 && w.err == nil {
		k := len(vs)
		if w.out != nil {
			k = min(k, (cap(w.buf)-len(w.buf))/8)
		}
		buf := w.room(8 * k)
		at := len(buf)
		buf = buf[:at+8*k]
		PutF64s(buf[at:], vs[:k])
		w.filled(buf)
		vs = vs[k:]
	}
}

// PutF64s writes vs into dst as Writer.F64s lays a slice's elements out:
// 8 little-endian bytes of IEEE bits each. dst must hold 8*len(vs) bytes.
// Four elements a step behind one bounds check run at over three times
// the speed of the plain loop.
func PutF64s(dst []byte, vs []float64) {
	dst = dst[:8*len(vs)]
	i := 0
	for ; i+4 <= len(vs); i += 4 {
		d, v := dst[8*i:8*i+32:8*i+32], vs[i:i+4:i+4]
		binary.LittleEndian.PutUint64(d[0:], math.Float64bits(v[0]))
		binary.LittleEndian.PutUint64(d[8:], math.Float64bits(v[1]))
		binary.LittleEndian.PutUint64(d[16:], math.Float64bits(v[2]))
		binary.LittleEndian.PutUint64(d[24:], math.Float64bits(v[3]))
	}
	for ; i < len(vs); i++ {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(vs[i]))
	}
}

// GetF64s is PutF64s reversed: it fills vs from the first 8*len(vs)
// bytes of src.
func GetF64s(vs []float64, src []byte) {
	src = src[:8*len(vs)]
	i := 0
	for ; i+4 <= len(vs); i += 4 {
		s, v := src[8*i:8*i+32:8*i+32], vs[i:i+4:i+4]
		v[0] = math.Float64frombits(binary.LittleEndian.Uint64(s[0:]))
		v[1] = math.Float64frombits(binary.LittleEndian.Uint64(s[8:]))
		v[2] = math.Float64frombits(binary.LittleEndian.Uint64(s[16:]))
		v[3] = math.Float64frombits(binary.LittleEndian.Uint64(s[24:]))
	}
	for ; i < len(vs); i++ {
		vs[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
}

// Bools writes a bool slice as a bitmap: its length, then one bit per
// element, the low bit of each byte first.
func (w *Writer) Bools(vs []bool) {
	w.Uvarint(uint64(len(vs)))
	if w.sizing {
		w.n += int64(len(vs)+7) / 8
		return
	}
	for len(vs) > 0 && w.err == nil {
		k := min(8, len(vs))
		var b byte
		for i, v := range vs[:k] {
			if v {
				b |= 1 << i
			}
		}
		w.filled(append(w.room(1), b))
		vs = vs[k:]
	}
}

// String writes a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.write([]byte(s))
}

// Ref is the back-reference table of a grouped blob (EncodeGroups), for
// codecs whose values repeat by identity — a tile replicated to several
// cells is one pointer. If v was written earlier in the blob it returns
// the index it was bound to and true, and the codec writes the index in
// its place; otherwise it binds v to the next index and returns false,
// and the codec writes v whole. Indices count first sightings, in the
// order Reader.Bind sees them on decode. Outside a grouped blob — run
// files, EncodeRows — there is no table: Ref returns false and binds
// nothing. v must be comparable.
func (w *Writer) Ref(v any) (uint64, bool) {
	if w.refs == nil {
		return 0, false
	}
	if i, ok := w.refs[v]; ok {
		return i, true
	}
	w.refs[v] = uint64(len(w.refs))
	return 0, false
}

// Reader is the buffered, sticky-error mirror of Writer. After any
// read error (including a truncated stream) every method returns zero
// values; callers check Err once per record batch.
type Reader struct {
	r   *bufio.Reader
	err error
	// refs is the back-reference table of the grouped blob being decoded
	// (DecodeGroupsFrom), nil anywhere else: see Bind.
	refs []any
	// lease lends the slices F64s decodes into (DecodeGroupsFrom's), nil
	// anywhere else: they are allocated.
	lease *memory.Lease
}

// readerBufSize is the reader's buffer, and so the largest block F64s
// converts at a time.
const readerBufSize = 1 << 16

// NewReader wraps r in a buffered spill stream reader.
func NewReader(r io.Reader) *Reader { return &Reader{r: bufio.NewReaderSize(r, readerBufSize)} }

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

// Bind mirrors a Writer.Ref that returned false: a codec binds each value
// it decoded whole, so that later back-references find it. Outside a
// grouped blob it does nothing.
func (r *Reader) Bind(v any) {
	if r.refs != nil {
		r.refs = append(r.refs, v)
	}
}

// Deref returns the value bound under back-reference i. A stream that is
// not a grouped blob has no table, and an index not bound yet points
// nowhere: either fails the stream and returns nil.
func (r *Reader) Deref(i uint64) any {
	switch {
	case r.err != nil:
		return nil
	case r.refs == nil:
		r.err = fmt.Errorf("spill: back-reference %d outside a grouped blob", i)
		return nil
	case i >= uint64(len(r.refs)):
		r.err = fmt.Errorf("spill: back-reference %d past the %d values bound", i, len(r.refs))
		return nil
	}
	return r.refs[i]
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
	b, err := r.r.Peek(8)
	if err != nil {
		if err == io.EOF && len(b) > 0 {
			err = io.ErrUnexpectedEOF
		}
		r.err = err
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(b))
	r.r.Discard(8)
	return v
}

// lenCheckChunk bounds how much a length-prefixed decode allocates
// before any payload bytes have been verified to exist. A corrupt
// header can claim any length; reading in chunks turns that into a
// truncated-stream error instead of an arbitrarily large upfront
// allocation.
const lenCheckChunk = 1 << 16

// F64s reads a float64 slice written by Writer.F64s, converting blocks
// of the buffered stream straight into the slice it returns. The slice
// is drawn whole — from the reader's lease, if it has one — when it has
// at most lenCheckChunk elements (every tile up to 256 x 256), and
// otherwise allocated and doubled from there, each time only once the
// stream has filled what was allocated before. A stream that ends inside
// the slice is io.ErrUnexpectedEOF.
func (r *Reader) F64s() []float64 {
	n := r.Uvarint()
	if r.err != nil || n == 0 {
		return nil
	}
	if n > 1<<40 {
		r.err = fmt.Errorf("spill: implausible slice length %d", n)
		return nil
	}
	var out []float64
	if n <= lenCheckChunk {
		out, _ = r.lease.Floats(int(n))
	} else {
		out = make([]float64, lenCheckChunk)
	}
	for filled := 0; ; {
		for filled < len(out) {
			b, err := r.r.Peek(min(8*(len(out)-filled), readerBufSize))
			k := len(b) / 8
			if k == 0 {
				if err == io.EOF {
					err = io.ErrUnexpectedEOF
				}
				r.err = err
				return nil
			}
			GetF64s(out[filled:filled+k], b)
			r.r.Discard(8 * k)
			filled += k
		}
		if uint64(filled) == n {
			return out
		}
		out = append(out, make([]float64, min(n-uint64(filled), uint64(filled)))...)
	}
}

// Bools reads a bool slice written by Writer.Bools. The slice grows as
// the bitmap's bytes arrive, so a corrupt length runs into the end of the
// stream (io.ErrUnexpectedEOF), not into one huge allocation.
func (r *Reader) Bools() []bool {
	n := r.Uvarint()
	if r.err != nil || n == 0 {
		return nil
	}
	if n > 1<<40 {
		r.err = fmt.Errorf("spill: implausible bitmap length %d", n)
		return nil
	}
	out := make([]bool, 0, min(n, lenCheckChunk))
	for uint64(len(out)) < n {
		b, err := r.r.ReadByte()
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			r.err = err
			return nil
		}
		for i := 0; i < 8 && uint64(len(out)) < n; i++ {
			out = append(out, b>>i&1 != 0)
		}
	}
	return out
}

// Bytes reads a length-prefixed byte slice, as Writer.String writes one.
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

// UvarintSize is the number of bytes Writer.Uvarint writes for v.
func UvarintSize(v uint64) int64 { return int64(bits.Len64(v|1)+6) / 7 }

// VarintSize is the number of bytes Writer.Varint writes for v.
func VarintSize(v int64) int64 { return UvarintSize(uint64(v<<1) ^ uint64(v>>63)) }

// F64sSize is the number of bytes Writer.F64s writes for a slice of n.
func F64sSize(n int) int64 { return UvarintSize(uint64(n)) + 8*int64(n) }

// BoolsSize is the number of bytes Writer.Bools writes for a slice of n.
func BoolsSize(n int) int64 { return UvarintSize(uint64(n)) + int64(n+7)/8 }

// StringSize is the number of bytes Writer.String writes for s.
func StringSize(s string) int64 { return UvarintSize(uint64(len(s))) + int64(len(s)) }

// Codec serializes values of one type onto spill streams. Encode must
// write a self-delimiting record; Decode must read exactly what Encode
// wrote, and reports failure through the Reader's sticky error. Size is
// the exact number of bytes Encode writes for v on a stream with no
// back-reference table (a run file, EncodeRows): the engine's one measure
// of a row, behind shuffled bytes, budget reservations and cache sizes.
type Codec[T any] interface {
	Encode(w *Writer, v T)
	Decode(r *Reader) T
	Size(v T) int64
}

// registry maps reflect.Type of T to its registered Codec[T].
var registry sync.Map

// Register installs the codec for T, replacing any previous
// registration. Packages register their shuffle row types in init().
func Register[T any](c Codec[T]) {
	registry.Store(reflect.TypeFor[T](), c)
}

// For returns the codec registered for T. A shuffle, a Persist cache and
// a cluster gather resolve their row codec with it when they are built,
// so a T with no codec panics there, naming T, before any row is routed.
func For[T any]() Codec[T] {
	if c, ok := registry.Load(reflect.TypeFor[T]()); ok {
		return c.(Codec[T])
	}
	panic(fmt.Sprintf("spill: no codec for %v: register one with spill.Register", reflect.TypeFor[T]()))
}

// Float64Codec spills bare float64 values.
type Float64Codec struct{}

func (Float64Codec) Encode(w *Writer, v float64) { w.F64(v) }
func (Float64Codec) Decode(r *Reader) float64    { return r.F64() }
func (Float64Codec) Size(float64) int64          { return 8 }

// Int64Codec spills bare int64 values as signed varints.
type Int64Codec struct{}

func (Int64Codec) Encode(w *Writer, v int64) { w.Varint(v) }
func (Int64Codec) Decode(r *Reader) int64    { return r.Varint() }
func (Int64Codec) Size(v int64) int64        { return VarintSize(v) }

// IntCodec spills platform ints as signed varints.
type IntCodec struct{}

func (IntCodec) Encode(w *Writer, v int) { w.Varint(int64(v)) }
func (IntCodec) Decode(r *Reader) int    { return int(r.Varint()) }
func (IntCodec) Size(v int) int64        { return VarintSize(int64(v)) }

// StringCodec spills strings length-prefixed.
type StringCodec struct{}

func (StringCodec) Encode(w *Writer, v string) { w.String(v) }
func (StringCodec) Decode(r *Reader) string    { return r.String() }
func (StringCodec) Size(v string) int64        { return StringSize(v) }

// Float64SliceCodec spills []float64 payloads (tile rows, vectors).
type Float64SliceCodec struct{}

func (Float64SliceCodec) Encode(w *Writer, v []float64) { w.F64s(v) }
func (Float64SliceCodec) Decode(r *Reader) []float64    { return r.F64s() }
func (Float64SliceCodec) Size(v []float64) int64        { return F64sSize(len(v)) }
