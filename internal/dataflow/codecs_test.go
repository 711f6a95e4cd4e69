package dataflow

// Property tests for the hand-rolled spill codecs: bit-exact round
// trips over adversarial values, nil handling, corrupt-stream
// rejection without panics, and registry resolution for every row type
// the shuffle paths spill. FuzzDenseCodecDecode has a checked-in seed
// corpus under testdata/fuzz.

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/linalg"
	"repro/internal/spill"
)

func codecRoundTrip[T any](t *testing.T, c spill.Codec[T], v T) T {
	t.Helper()
	var buf bytes.Buffer
	w := spill.NewWriter(&buf)
	c.Encode(w, v)
	if err := w.Flush(); err != nil {
		t.Fatalf("encode: %v", err)
	}
	r := spill.NewReader(&buf)
	got := c.Decode(r)
	if err := r.Err(); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return got
}

// codecAdversarialFloats are the values naive encodings lose: NaN with
// a payload, infinities, signed zero, denormals.
var codecAdversarialFloats = []float64{
	0, math.Copysign(0, -1), 1.5, -math.MaxFloat64, math.SmallestNonzeroFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0x7ff8dead00000001),
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestCoordCodecRoundTrip(t *testing.T) {
	for _, v := range []Coord{
		{}, {I: 1, J: -1}, {I: math.MaxInt64, J: math.MinInt64}, {I: -307, J: 1 << 40},
	} {
		if got := codecRoundTrip[Coord](t, CoordCodec{}, v); got != v {
			t.Fatalf("coord %+v -> %+v", v, got)
		}
	}
}

func TestDenseCodecRoundTrip(t *testing.T) {
	if got := codecRoundTrip[*linalg.Dense](t, DenseCodec{}, nil); got != nil {
		t.Fatalf("nil tile decoded as %+v", got)
	}
	empty := &linalg.Dense{Rows: 0, Cols: 5, Data: []float64{}}
	if got := codecRoundTrip[*linalg.Dense](t, DenseCodec{}, empty); got == nil ||
		got.Rows != 0 || got.Cols != 5 || len(got.Data) != 0 {
		t.Fatalf("empty 0x5 tile decoded as %+v", got)
	}
	v := &linalg.Dense{Rows: 3, Cols: 3, Data: make([]float64, 9)}
	copy(v.Data, codecAdversarialFloats)
	got := codecRoundTrip[*linalg.Dense](t, DenseCodec{}, v)
	if got.Rows != v.Rows || got.Cols != v.Cols || !sameBits(got.Data, v.Data) {
		t.Fatalf("tile %+v -> %+v", v, got)
	}
}

// TestDenseCodecRejectsCorruptHeader truncates and rewrites the header
// so dims disagree with the payload; Decode must set a sticky error
// rather than return an inconsistent (or panic-inducing) tile.
func TestDenseCodecRejectsCorruptHeader(t *testing.T) {
	var buf bytes.Buffer
	w := spill.NewWriter(&buf)
	DenseCodec{}.Encode(w, &linalg.Dense{Rows: 2, Cols: 2, Data: make([]float64, 4)})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	// bytes: presence=1, rows varint, cols varint, len uvarint, payload.
	// Bump rows from 2 to 3: dims now claim 6 elements over a 4-element
	// payload.
	corrupt := append([]byte(nil), enc...)
	corrupt[1] = 6 // zigzag(3)
	r := spill.NewReader(bytes.NewReader(corrupt))
	got := DenseCodec{}.Decode(r)
	if r.Err() == nil {
		t.Fatalf("corrupt 3x2 header with 4 elements decoded silently as %+v", got)
	}
	if got != nil {
		t.Fatalf("failed decode should return nil, got %+v", got)
	}
}

func TestVectorCodecRoundTrip(t *testing.T) {
	if got := codecRoundTrip[*linalg.Vector](t, VectorCodec{}, nil); got != nil {
		t.Fatalf("nil vector decoded as %+v", got)
	}
	v := &linalg.Vector{Data: append([]float64(nil), codecAdversarialFloats...)}
	if got := codecRoundTrip[*linalg.Vector](t, VectorCodec{}, v); !sameBits(got.Data, v.Data) {
		t.Fatalf("vector %+v -> %+v", v, got)
	}
}

func TestPairCodecComposition(t *testing.T) {
	c := PairCodec[int64, Pair[Coord, float64]](spill.Int64Codec{},
		PairCodec[Coord, float64](CoordCodec{}, spill.Float64Codec{}))
	v := KV(int64(-9), KV(Coord{I: 7, J: -8}, math.Inf(-1)))
	got := codecRoundTrip(t, c, v)
	if got.Key != v.Key || got.Value.Key != v.Value.Key ||
		math.Float64bits(got.Value.Value) != math.Float64bits(v.Value.Value) {
		t.Fatalf("nested pair %+v -> %+v", v, got)
	}
}

// TestShuffleRowCodecsRegistered pins every row type the engine's
// shuffle and cache paths spill to a hand-rolled registry entry, so a
// refactor that silently drops one back to the gob fallback (slower,
// and impossible for unexported-field types) fails here.
func TestShuffleRowCodecsRegistered(t *testing.T) {
	checks := []struct {
		name string
		ok   bool
	}{
		{"Coord", spill.Registered[Coord]()},
		{"*linalg.Dense", spill.Registered[*linalg.Dense]()},
		{"*linalg.Vector", spill.Registered[*linalg.Vector]()},
		{"Block", spill.Registered[Pair[Coord, *linalg.Dense]]()},
		{"keyed block", spill.Registered[Pair[int64, Pair[Coord, *linalg.Dense]]]()},
		{"vector block", spill.Registered[Pair[int64, *linalg.Vector]]()},
		{"keyed scalar", spill.Registered[Pair[int64, float64]]()},
		{"keyed int64", spill.Registered[Pair[int64, int64]]()},
	}
	for _, c := range checks {
		if !c.ok {
			t.Errorf("%s has no registered spill codec", c.name)
		}
	}
}

// FuzzDenseCodecDecode feeds arbitrary bytes to the tile decoder: it
// must either fail via the reader's sticky error or produce a tile
// whose header is consistent with its payload — and never panic.
func FuzzDenseCodecDecode(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte{0})
	var buf bytes.Buffer
	w := spill.NewWriter(&buf)
	DenseCodec{}.Encode(w, &linalg.Dense{Rows: 2, Cols: 3, Data: make([]float64, 6)})
	w.Flush()
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		r := spill.NewReader(bytes.NewReader(data))
		got := DenseCodec{}.Decode(r)
		if r.Err() != nil {
			if got != nil {
				t.Fatalf("decode returned %+v alongside error %v", got, r.Err())
			}
			return
		}
		if got != nil && len(got.Data) != got.Rows*got.Cols {
			t.Fatalf("accepted inconsistent tile: %dx%d with %d elements", got.Rows, got.Cols, len(got.Data))
		}
	})
}
