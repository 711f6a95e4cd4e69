package spill

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// refF64s is the per-element decoder F64s replaced, kept as the
// reference the block decoder is compared against.
func refF64s(r *Reader) []float64 {
	n := r.Uvarint()
	if r.Err() != nil || n == 0 {
		return nil
	}
	out := make([]float64, 0, min(n, lenCheckChunk))
	for i := uint64(0); i < n; i++ {
		v := r.F64()
		if r.Err() != nil {
			return nil
		}
		out = append(out, v)
	}
	return out
}

// randomFloats mixes uniform bit patterns (so NaN payloads, denormals and
// both infinities occur) with the adversarial values at fixed places.
func randomFloats(rng *rand.Rand, n int) []float64 {
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = math.Float64frombits(rng.Uint64())
	}
	for i, v := range adversarialFloats {
		if at := i * 7; at < n {
			vs[at] = v
		}
	}
	return vs
}

func sameFloats(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !sameFloat(got[i], want[i]) {
			t.Fatalf("%s: [%d] = %x, want %x", what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// TestF64sMatchesPerElementReference: at every length around the block
// and allocation boundaries, both writers (stream and in-memory) produce
// the bytes the format defines, and the block reader returns bit for bit
// what the per-element reference reads from them — with a varint before
// the slice, so the blocks do not start aligned in the buffer.
func TestF64sMatchesPerElementReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 4095, 4096, 4097, 8191, 8192, 8193, 65535, 65536, 65537, 1_000_000} {
		vs := randomFloats(rng, n)

		want := binary.AppendUvarint(nil, 300)
		want = binary.AppendUvarint(want, uint64(n))
		for _, v := range vs {
			want = binary.LittleEndian.AppendUint64(want, math.Float64bits(v))
		}
		want = binary.AppendUvarint(want, 77)

		var stream bytes.Buffer
		sw := NewWriter(&stream)
		var mw Writer
		for _, w := range []*Writer{sw, &mw} {
			w.Uvarint(300)
			w.F64s(vs)
			w.Uvarint(77)
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			if w.Count() != int64(len(want)) {
				t.Fatalf("n=%d: writer counted %d bytes, wrote %d", n, w.Count(), len(want))
			}
		}
		if !bytes.Equal(stream.Bytes(), want) || !bytes.Equal(mw.buf, want) {
			t.Fatalf("n=%d: encoded bytes differ from the format (stream %d, memory %d, want %d bytes)",
				n, stream.Len(), len(mw.buf), len(want))
		}

		r, ref := NewReader(bytes.NewReader(want)), NewReader(bytes.NewReader(want))
		if r.Uvarint() != 300 || ref.Uvarint() != 300 {
			t.Fatal("lead varint")
		}
		got, refGot := r.F64s(), refF64s(ref)
		if r.Err() != nil || ref.Err() != nil {
			t.Fatalf("n=%d: decode: %v / %v", n, r.Err(), ref.Err())
		}
		sameFloats(t, "block vs reference", got, refGot)
		sameFloats(t, "block vs input", got, vs)
		if r.Uvarint() != 77 || r.Err() != nil {
			t.Fatalf("n=%d: reader not positioned after the slice: %v", n, r.Err())
		}
	}
}

// oneByteReader hands out a stream one byte per Read, the slowest
// arrival a network fetch can produce.
type oneByteReader struct{ b []byte }

func (o *oneByteReader) Read(p []byte) (int, error) {
	if len(o.b) == 0 {
		return 0, io.EOF
	}
	p[0] = o.b[0]
	o.b = o.b[1:]
	return 1, nil
}

// TestF64sTruncation: a stream cut at any byte inside the slice is an
// error — io.ErrUnexpectedEOF — and never a short slice, however the
// bytes arrive.
func TestF64sTruncation(t *testing.T) {
	vs := randomFloats(rand.New(rand.NewSource(3)), 40)
	var mw Writer
	mw.F64s(vs)
	full := mw.buf
	for cut := 0; cut < len(full); cut++ {
		for _, src := range []io.Reader{bytes.NewReader(full[:cut]), &oneByteReader{full[:cut]}} {
			r := NewReader(src)
			got := r.F64s()
			if got != nil || r.Err() == nil {
				t.Fatalf("cut at %d of %d: %d elements, err %v", cut, len(full), len(got), r.Err())
			}
			if cut > 0 && !errors.Is(r.Err(), io.ErrUnexpectedEOF) {
				t.Fatalf("cut at %d: %v, want io.ErrUnexpectedEOF", cut, r.Err())
			}
		}
	}
	r := NewReader(&oneByteReader{full})
	sameFloats(t, "one byte per read", r.F64s(), vs)
}

// TestF64sBoundedAllocation: a header claiming 2^39 elements in front of
// 1 KiB of stream allocates for what could exist, not for what it claims.
func TestF64sBoundedAllocation(t *testing.T) {
	stream := binary.AppendUvarint(nil, 1<<39)
	stream = append(stream, make([]byte, 1<<10)...)
	src := bytes.NewReader(stream)
	r := NewReader(src)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := r.F64s()
	runtime.ReadMemStats(&after)
	if got != nil || !errors.Is(r.Err(), io.ErrUnexpectedEOF) {
		t.Fatalf("%d elements, err %v", len(got), r.Err())
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("corrupt length allocated %d bytes", grew)
	}
}

var benchSink []float64

// BenchmarkF64sRoundTrip encodes a 100 x 100 tile's values into memory
// and decodes them back, the codec's share of moving one tile.
func BenchmarkF64sRoundTrip(b *testing.B) {
	vs := randomFloats(rand.New(rand.NewSource(1)), 100*100)
	b.SetBytes(int64(8 * len(vs)))
	b.ReportAllocs()
	src := bytes.NewReader(nil)
	r := NewReader(src)
	for i := 0; i < b.N; i++ {
		var w Writer
		w.F64s(vs)
		src.Reset(w.buf)
		r.r.Reset(src)
		benchSink = r.F64s()
		if r.Err() != nil || len(benchSink) != len(vs) {
			b.Fatal(r.Err())
		}
	}
}
