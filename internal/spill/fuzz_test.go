package spill

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// FuzzStreamPrimitives checks that every Writer primitive round-trips
// bit-exactly through Reader, in sequence on one stream.
func FuzzStreamPrimitives(f *testing.F) {
	f.Add(uint64(0), int64(0), float64(0), "", []byte(nil))
	f.Add(uint64(math.MaxUint64), int64(math.MinInt64), math.Inf(-1), "key", []byte{0, 1, 2})
	f.Add(uint64(300), int64(-300), math.Float64frombits(0x7ff8dead00000001), "\x00", bytes.Repeat([]byte{0xff}, 70))
	f.Fuzz(func(t *testing.T, u uint64, i int64, fl float64, s string, b []byte) {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.Uvarint(u)
		w.Varint(i)
		w.F64(fl)
		w.String(s)
		w.String(string(b))
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		r := NewReader(&buf)
		if got := r.Uvarint(); got != u {
			t.Fatalf("uvarint %d -> %d", u, got)
		}
		if got := r.Varint(); got != i {
			t.Fatalf("varint %d -> %d", i, got)
		}
		if got := r.F64(); math.Float64bits(got) != math.Float64bits(fl) {
			t.Fatalf("f64 %x -> %x", math.Float64bits(fl), math.Float64bits(got))
		}
		if got := r.String(); got != s {
			t.Fatalf("string %q -> %q", s, got)
		}
		got := r.Bytes()
		if r.Err() != nil {
			t.Fatal(r.Err())
		}
		if !bytes.Equal(got, b) {
			t.Fatalf("bytes %x -> %x", b, got)
		}
	})
}

// FuzzFloat64SliceCodec decodes the fuzz input as raw float64 bits and
// round-trips the slice, covering NaN payloads and the chunked writer.
func FuzzFloat64SliceCodec(f *testing.F) {
	f.Add([]byte(nil))
	seed := make([]byte, 8*len(adversarialFloats))
	for i, v := range adversarialFloats {
		binary.LittleEndian.PutUint64(seed[i*8:], math.Float64bits(v))
	}
	f.Add(seed)
	f.Add(bytes.Repeat([]byte{0xab}, 8*100))
	f.Fuzz(func(t *testing.T, data []byte) {
		vs := make([]float64, len(data)/8)
		for i := range vs {
			vs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		Float64SliceCodec{}.Encode(w, vs)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if n := (Float64SliceCodec{}).Size(vs); n != int64(buf.Len()) {
			t.Fatalf("Size says %d bytes, Encode wrote %d", n, buf.Len())
		}
		r := NewReader(&buf)
		got := Float64SliceCodec{}.Decode(r)
		if r.Err() != nil {
			t.Fatal(r.Err())
		}
		if len(got) != len(vs) {
			t.Fatalf("len %d -> %d", len(vs), len(got))
		}
		for i := range vs {
			if math.Float64bits(got[i]) != math.Float64bits(vs[i]) {
				t.Fatalf("[%d]: %x -> %x", i, math.Float64bits(vs[i]), math.Float64bits(got[i]))
			}
		}
	})
}

// FuzzReaderNeverPanics feeds arbitrary bytes to every Reader
// primitive: garbage must surface as sticky errors, never panics or
// huge allocations.
func FuzzReaderNeverPanics(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Add([]byte{3, 'a', 'b', 'c', 8, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		_ = r.Uvarint()
		_ = r.Varint()
		_ = r.F64()
		_ = r.F64s()
		_ = r.Bytes()
		_ = r.Bools()
		_ = r.String()
		_ = recordCodec{}.Decode(r)
	})
}
