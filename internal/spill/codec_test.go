package spill

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
)

func roundTrip[T any](t *testing.T, c Codec[T], v T) T {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	c.Encode(w, v)
	if err := w.Flush(); err != nil {
		t.Fatalf("encode: %v", err)
	}
	if n := c.Size(v); n != int64(buf.Len()) {
		t.Fatalf("Size says %d bytes, Encode wrote %d", n, buf.Len())
	}
	r := NewReader(&buf)
	got := c.Decode(r)
	if err := r.Err(); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return got
}

func TestPrimitiveCodecs(t *testing.T) {
	for _, v := range []int64{0, 1, -1, math.MaxInt64, math.MinInt64, 123456789} {
		if got := roundTrip[int64](t, Int64Codec{}, v); got != v {
			t.Fatalf("int64 %d -> %d", v, got)
		}
	}
	for _, v := range []int{0, -7, 1 << 30} {
		if got := roundTrip[int](t, IntCodec{}, v); got != v {
			t.Fatalf("int %d -> %d", v, got)
		}
	}
	for _, v := range []string{"", "x", "héllo\x00world"} {
		if got := roundTrip[string](t, StringCodec{}, v); got != v {
			t.Fatalf("string %q -> %q", v, got)
		}
	}
}

// adversarialFloats are the values most codecs get wrong: NaN with a
// payload, infinities, signed zero, denormals.
var adversarialFloats = []float64{
	0, math.Copysign(0, -1), 1.5, -math.MaxFloat64, math.SmallestNonzeroFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0x7ff8dead00000001),
}

func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func TestFloat64CodecAdversarial(t *testing.T) {
	for _, v := range adversarialFloats {
		got := roundTrip[float64](t, Float64Codec{}, v)
		if !sameFloat(got, v) {
			t.Fatalf("float64 %x -> %x", math.Float64bits(v), math.Float64bits(got))
		}
	}
}

func TestFloat64SliceCodec(t *testing.T) {
	cases := [][]float64{
		nil,
		{},
		adversarialFloats,
		make([]float64, 1000), // exercises the chunked writer across buffer boundaries
	}
	big := make([]float64, 517) // deliberately not a multiple of the chunk size
	for i := range big {
		big[i] = float64(i) * 0.25
	}
	cases = append(cases, big)
	for ci, v := range cases {
		got := roundTrip[[]float64](t, Float64SliceCodec{}, v)
		if len(got) != len(v) {
			t.Fatalf("case %d: len %d -> %d", ci, len(v), len(got))
		}
		for i := range v {
			if !sameFloat(got[i], v[i]) {
				t.Fatalf("case %d[%d]: %x -> %x", ci, i, math.Float64bits(v[i]), math.Float64bits(got[i]))
			}
		}
	}
}

// record is a composite row for tests that need one, with a codec built
// from the Writer primitives.
type record struct {
	Name string
	Vals []float64
	N    int64
}

type recordCodec struct{}

func (recordCodec) Encode(w *Writer, v record) {
	w.String(v.Name)
	w.F64s(v.Vals)
	w.Varint(v.N)
}

func (recordCodec) Decode(r *Reader) record {
	return record{Name: r.String(), Vals: r.F64s(), N: r.Varint()}
}

func (recordCodec) Size(v record) int64 {
	return StringSize(v.Name) + F64sSize(len(v.Vals)) + VarintSize(v.N)
}

// TestCompositeCodecRoundTrip: a codec composed of primitives sizes and
// round-trips a record, its floats bit for bit.
func TestCompositeCodecRoundTrip(t *testing.T) {
	v := record{Name: "tile", Vals: []float64{1, 2, math.Inf(1)}, N: -9}
	got := roundTrip[record](t, recordCodec{}, v)
	if got.Name != v.Name || got.N != v.N || len(got.Vals) != len(v.Vals) {
		t.Fatalf("round-trip: %+v -> %+v", v, got)
	}
	for i := range v.Vals {
		if !sameFloat(got.Vals[i], v.Vals[i]) {
			t.Fatalf("vals[%d]: %v -> %v", i, v.Vals[i], got.Vals[i])
		}
	}
}

// TestVarintSizes: the size functions agree with the Writer at every
// varint length boundary.
func TestVarintSizes(t *testing.T) {
	for _, u := range []uint64{0, 1, 127, 128, 16383, 16384, 1<<56 - 1, 1 << 56, 1<<63 - 1, 1 << 63, math.MaxUint64} {
		var w Writer
		w.Uvarint(u)
		if n := UvarintSize(u); n != int64(len(w.buf)) {
			t.Fatalf("UvarintSize(%d) = %d, Writer wrote %d", u, n, len(w.buf))
		}
	}
	for _, v := range []int64{0, -1, 63, -64, 64, -65, 8191, 8192, math.MaxInt64, math.MinInt64} {
		var w Writer
		w.Varint(v)
		if n := VarintSize(v); n != int64(len(w.buf)) {
			t.Fatalf("VarintSize(%d) = %d, Writer wrote %d", v, n, len(w.buf))
		}
	}
}

// TestBoolsRoundTrip: bitmaps of every length around a byte and past a
// stream writer's block come back element for element, over a stream and
// in memory; one cut short is io.ErrUnexpectedEOF, and a corrupt length
// does not allocate what it claims.
func TestBoolsRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 100, 8*writerBufSize + 3} {
		vs := make([]bool, n)
		for i := range vs {
			vs[i] = i%3 == 0 || i%7 == 5
		}
		var buf bytes.Buffer
		w, mem := NewWriter(&buf), Writer{}
		w.Bools(vs)
		mem.Bools(vs)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), mem.buf) || len(mem.buf) > n/8+4 {
			t.Fatalf("n=%d: stream wrote %d bytes, memory %d", n, buf.Len(), len(mem.buf))
		}
		r := NewReader(bytes.NewReader(mem.buf))
		got := r.Bools()
		if r.Err() != nil || len(got) != n {
			t.Fatalf("n=%d: %d elements, err %v", n, len(got), r.Err())
		}
		for i := range vs {
			if got[i] != vs[i] {
				t.Fatalf("n=%d: element %d flipped", n, i)
			}
		}
		if n > 0 {
			r = NewReader(bytes.NewReader(mem.buf[:len(mem.buf)-1]))
			if r.Bools(); !errors.Is(r.Err(), io.ErrUnexpectedEOF) {
				t.Fatalf("n=%d truncated: err %v", n, r.Err())
			}
		}
	}
	r := NewReader(bytes.NewReader(append(binary.AppendUvarint(nil, 1<<39), 0xff)))
	if got := r.Bools(); got != nil || !errors.Is(r.Err(), io.ErrUnexpectedEOF) {
		t.Fatalf("corrupt length: %d elements, err %v", len(got), r.Err())
	}
}

// TestForPanicsOnUnregistered: a type with no codec has none to fall back
// on; For names it and the way out.
func TestForPanicsOnUnregistered(t *testing.T) {
	type unregistered struct{ X int64 }
	func() {
		defer func() {
			msg := fmt.Sprint(recover())
			if !strings.Contains(msg, "spill.unregistered") || !strings.Contains(msg, "spill.Register") {
				t.Fatalf("For of an unregistered type: panic %q", msg)
			}
		}()
		For[unregistered]()
	}()
	Register[record](recordCodec{})
	if _, ok := For[record]().(recordCodec); !ok {
		t.Fatal("registered codec not found")
	}
}

func TestReaderStickyError(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte{0x85})) // truncated varint
	_ = r.Uvarint()
	if r.Err() == nil {
		t.Fatal("truncated uvarint not an error")
	}
	// All subsequent reads must be zero-valued no-ops.
	if r.Uvarint() != 0 || r.F64() != 0 || r.Bytes() != nil || r.String() != "" {
		t.Fatal("reads after sticky error returned data")
	}
}

func TestReaderRejectsImplausibleLengths(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Uvarint(1 << 50) // claims a petabyte-scale slice
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(bytes.NewReader(buf.Bytes()))
	if r.Bytes() != nil || r.Err() == nil {
		t.Fatal("implausible length accepted")
	}
}

func TestWriterCount(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.F64(1)
	w.Uvarint(1)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != int64(buf.Len()) {
		t.Fatalf("Count = %d, buffer has %d", w.Count(), buf.Len())
	}
}
