package dataflow

// Property tests for the hand-rolled spill codecs: bit-exact round
// trips over adversarial values, nil handling, corrupt-stream
// rejection without panics, Size equal to the bytes Encode writes, and
// registry resolution for every row type the shuffle paths spill.
// FuzzDenseCodecDecode has a checked-in seed corpus under testdata/fuzz.

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"repro/internal/linalg"
	"repro/internal/spill"
)

// encoded is what c's Encode writes for v on a stream, after checking
// that Size says as much.
func encoded[T any](t *testing.T, c spill.Codec[T], v T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := spill.NewWriter(&buf)
	c.Encode(w, v)
	if err := w.Flush(); err != nil {
		t.Fatalf("encode: %v", err)
	}
	if n := c.Size(v); n != int64(buf.Len()) {
		t.Fatalf("%T: Size says %d bytes, Encode wrote %d", c, n, buf.Len())
	}
	return buf.Bytes()
}

func codecRoundTrip[T any](t *testing.T, c spill.Codec[T], v T) T {
	t.Helper()
	r := spill.NewReader(bytes.NewReader(encoded(t, c, v)))
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
// shuffle and cache paths spill to a registered codec (spill.For panics
// on one that has none) whose Size is the bytes it writes, at key widths
// from one varint byte to ten and for nil, empty and full tiles.
func TestShuffleRowCodecsRegistered(t *testing.T) {
	tile := &linalg.Dense{Rows: 3, Cols: 70, Data: make([]float64, 210)}
	vec := &linalg.Vector{Data: make([]float64, 130)}
	for _, k := range []int64{0, -1, 63, -64, 64, 1 << 20, math.MinInt64} {
		c := Coord{I: k, J: -k}
		encoded(t, spill.For[Coord](), c)
		for _, d := range []*linalg.Dense{nil, {Cols: 2}, tile} {
			encoded(t, spill.For[*linalg.Dense](), d)
			encoded(t, spill.For[Pair[Coord, *linalg.Dense]](), KV(c, d))
			encoded(t, spill.For[Pair[int64, Pair[Coord, *linalg.Dense]]](), KV(k, KV(c, d)))
		}
		for _, v := range []*linalg.Vector{nil, {}, vec} {
			encoded(t, spill.For[*linalg.Vector](), v)
			encoded(t, spill.For[Pair[int64, *linalg.Vector]](), KV(k, v))
		}
		encoded(t, spill.For[Pair[int64, float64]](), KV(k, math.NaN()))
		encoded(t, spill.For[Pair[int64, int64]](), KV(k, -k))
	}
}

// TestDenseCodecBackReference: in a grouped blob a replicated tile is
// written whole once — flag 1 — and as flag 2 plus an index wherever it
// recurs, within its group or in another, and it decodes to one pointer;
// a distinct tile with equal contents is written whole again. A back-
// reference outside a grouped blob, or to a value that is not a tile, is
// an error.
func TestDenseCodecBackReference(t *testing.T) {
	tile := &linalg.Dense{Rows: 2, Cols: 2, Data: []float64{1, 2, 3, 4}}
	twin := &linalg.Dense{Rows: 2, Cols: 2, Data: []float64{1, 2, 3, 4}}
	groups := [][]*linalg.Dense{{tile, nil, tile}, {twin, tile}}
	blob, err := spill.EncodeGroups(groups, DenseCodec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// groups, then per group a row count and its tiles: 1+4+2*32 whole,
	// two back-references of 2 bytes, one nil flag.
	if want := 1 + 1 + (1 + 1 + 1 + 1 + 32) + 1 + 2 + 1 + (1 + 1 + 1 + 1 + 32) + 2; len(blob) != want {
		t.Fatalf("%d-byte blob, want %d", len(blob), want)
	}
	got, err := spill.DecodeGroupsFrom(bytes.NewReader(blob), DenseCodec{}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, groups) || got[0][0] != got[0][2] || got[0][0] != got[1][1] || got[1][0] == got[0][0] {
		t.Fatalf("decoded %v with other identities than %v", got, groups)
	}
	if _, err := spill.DecodeRows([]byte{1, denseRef, 0}, DenseCodec{}); err == nil {
		t.Fatal("a back-reference decoded outside a grouped blob")
	}
	// A grouped blob of Coord-keyed tiles whose second row refers back
	// to a position the first bound as a tile: only tiles are bound, so
	// the index is past the table.
	block := PairCodec[Coord, *linalg.Dense](CoordCodec{}, DenseCodec{})
	bad := []byte{1, 2, 0, 0, denseNil, 0, 0, denseRef, 0}
	if _, err := spill.DecodeGroupsFrom(bytes.NewReader(bad), block, 1, nil); err == nil {
		t.Fatal("a back-reference to a nil tile decoded")
	}
}

// FuzzDenseCodecDecode feeds arbitrary bytes to the tile decoder, alone
// and as a grouped blob of one group of tiles: it must either fail via
// the reader's sticky error or produce tiles whose headers are
// consistent with their payloads — and never panic.
func FuzzDenseCodecDecode(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte{0})
	var buf bytes.Buffer
	w := spill.NewWriter(&buf)
	DenseCodec{}.Encode(w, &linalg.Dense{Rows: 2, Cols: 3, Data: make([]float64, 6)})
	w.Flush()
	whole := buf.Bytes()
	f.Add(whole)
	f.Add([]byte{denseRef, 0})                                 // a back-reference with no table
	f.Add(append(append([]byte{1, 2}, whole...), denseRef, 5)) // an index past the table
	f.Add([]byte{1, 2, denseNil, denseRef, 0})                 // a reference to nil, which binds nothing
	f.Add(append(append([]byte{1, 2}, whole...), denseRef, 0)) // a valid back-reference
	f.Add([]byte{7, 0})                                        // a vector flag that is neither nil nor present
	f.Fuzz(func(t *testing.T, data []byte) {
		consistent := func(d *linalg.Dense) {
			if d != nil && len(d.Data) != d.Rows*d.Cols {
				t.Fatalf("accepted inconsistent tile: %dx%d with %d elements", d.Rows, d.Cols, len(d.Data))
			}
			encoded(t, DenseCodec{}, d)
		}
		r := spill.NewReader(bytes.NewReader(data))
		got := DenseCodec{}.Decode(r)
		if r.Err() != nil {
			if got != nil {
				t.Fatalf("decode returned %+v alongside error %v", got, r.Err())
			}
		} else {
			consistent(got)
		}
		groups, err := spill.DecodeGroupsFrom(bytes.NewReader(data), DenseCodec{}, 1, nil)
		if err == nil {
			for _, d := range groups[0] {
				consistent(d)
			}
		}
		// The same bytes as a vector: flag 0 is nil, 1 a vector, any
		// other flag an error.
		r = spill.NewReader(bytes.NewReader(data))
		v := VectorCodec{}.Decode(r)
		if r.Err() == nil {
			if flag, _ := binary.Uvarint(data); flag > 1 {
				t.Fatalf("vector flag %d decoded as %+v", flag, v)
			}
			encoded(t, VectorCodec{}, v)
		}
	})
}
