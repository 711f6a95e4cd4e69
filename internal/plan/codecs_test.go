package plan

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/comp"
	"repro/internal/dataflow"
	"repro/internal/linalg"
	"repro/internal/spill"
	"repro/internal/tiled"
)

func encodeVal(v comp.Value) ([]byte, error) {
	return encodeOne[comp.Value](valueCodec{}, v)
}

// encodeOne is what c's Encode writes for v on a stream, or an error if
// Size says otherwise.
func encodeOne[T any](c spill.Codec[T], v T) ([]byte, error) {
	var buf bytes.Buffer
	w := spill.NewWriter(&buf)
	c.Encode(w, v)
	if err := w.Flush(); err != nil {
		return nil, err
	}
	if n := c.Size(v); n != int64(buf.Len()) {
		return nil, fmt.Errorf("%T: Size says %d bytes, Encode wrote %d", c, n, buf.Len())
	}
	return buf.Bytes(), nil
}

// decodeVal decodes one value and requires the stream to end there.
func decodeVal(b []byte) (comp.Value, error) {
	r := spill.NewReader(bytes.NewReader(b))
	v := valueCodec{}.Decode(r)
	if r.Err() == nil {
		if r.Uvarint(); r.Err() != io.EOF {
			r.Fail(io.ErrUnexpectedEOF) // trailing bytes
		} else {
			return v, nil
		}
	}
	return nil, r.Err()
}

// Every kind of the value universe, bare and nested three deep in both
// containers, survives the codec bit for bit.
func TestValueCodecRoundTrip(t *testing.T) {
	leaves := []comp.Value{nil, int64(0), int64(math.MinInt64), float64(-0.0), math.Inf(1),
		math.Float64frombits(0x7ff8dead00000001), true, false, "", "k\x00\xff", comp.Tuple{}, comp.List{}}
	var vals []comp.Value
	for _, leaf := range leaves {
		vals = append(vals, leaf,
			comp.T(leaf, comp.L(comp.T(leaf, int64(1)), leaf)),
			comp.L(comp.T(comp.L(leaf), "x"), leaf))
	}
	vals = append(vals, comp.Value(comp.Tuple(leaves)), comp.Value(comp.List(leaves)))
	for _, v := range vals {
		b, err := encodeVal(v)
		if err != nil {
			t.Fatalf("encode %s: %v", comp.Render(v), err)
		}
		got, err := decodeVal(b)
		if err != nil {
			t.Fatalf("decode %s: %v", comp.Render(v), err)
		}
		if again, _ := encodeVal(got); !bytes.Equal(again, b) {
			t.Fatalf("%s came back as %s", comp.Render(v), comp.Render(got))
		}
		if !sameKind(v, got) {
			t.Fatalf("%s (%T) came back as %T", comp.Render(v), v, got)
		}
	}
}

// sameKind compares dynamic types through the containers (comp.Equal
// coerces numerics, and a float that came back an int would change a
// later integer division).
func sameKind(a, b comp.Value) bool {
	switch x := a.(type) {
	case comp.Tuple:
		y, ok := b.(comp.Tuple)
		return ok && sameKinds(x, y)
	case comp.List:
		y, ok := b.(comp.List)
		return ok && sameKinds(x, y)
	case float64:
		y, ok := b.(float64)
		return ok && math.Float64bits(x) == math.Float64bits(y)
	default:
		return a == b
	}
}

func sameKinds(a, b []comp.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameKind(a[i], b[i]) {
			return false
		}
	}
	return true
}

// The codec is closed over comp's universe: anything else — a Go int, a
// Range that leaked out of a let — fails the write naming the type, and
// the decoder refuses an unknown tag, a truncated value and runaway
// nesting instead of guessing.
func TestValueCodecStrict(t *testing.T) {
	for _, v := range []comp.Value{int(3), comp.Range{Lo: 0, Hi: 3}, comp.T(int64(1), comp.L(struct{}{}))} {
		if _, err := encodeVal(v); err == nil || !strings.Contains(err.Error(), "cannot encode") {
			t.Errorf("encoding %T: error %v, want one naming the type", v, err)
		}
	}
	good, _ := encodeVal(comp.T(comp.T(int64(3), int64(4)), 2.5, "s", comp.L(true)))
	for n := 0; n < len(good); n++ {
		if _, err := decodeVal(good[:n]); err == nil {
			t.Errorf("%d-byte prefix of a %d-byte value decoded", n, len(good))
		}
	}
	if _, err := decodeVal([]byte{tagList + 1}); err == nil || !strings.Contains(err.Error(), "unknown tag") {
		t.Errorf("unknown tag: %v", err)
	}
	var deep comp.Value = int64(1)
	for i := 0; i <= maxValueDepth; i++ {
		deep = comp.T(deep)
	}
	if _, err := encodeVal(deep); err == nil || !strings.Contains(err.Error(), "nesting") {
		t.Errorf("deep value encoded: %v", err)
	}
	if _, err := decodeVal(append(bytes.Repeat([]byte{tagTuple, 1}, maxValueDepth+1), tagUnit)); err == nil {
		t.Error("runaway nesting decoded")
	}
}

// Every row type exec_coord.go and exec_tiled.go hand to a shuffle, a
// spill file or a cluster gather has a registered codec (spill.For panics
// on one that has none) whose Size is the bytes it writes.
func TestCoordShuffleRowsRegistered(t *testing.T) {
	check := func(b []byte, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// Chain tuples, result rows and aggregation partials; then join
	// sides, reduceByKey and groupByKey rows.
	v := comp.Value(comp.T(comp.T(int64(300), int64(-1)), 2.5, "key", comp.L(true, nil)))
	check(encodeOne(spill.For[comp.Value](), v))
	check(encodeOne(spill.For[dataflow.Pair[string, comp.Value]](), dataflow.KV("(300,-1)", v)))
	// exec_tiled.go's rows that are not plain tiles: tile-aggregation
	// partials, a total's partial, and Rule 19's replicated tiles.
	check(encodeOne(spill.For[aggRow](), testAggRow(70, 130, 2)))
	check(encodeOne(spill.For[*aggBlock](), testAggRow(0, 1, 1).Value))
	check(encodeOne(spill.For[dataflow.Pair[tiled.Coord, taggedTile]](),
		dataflow.KV(tiled.Coord{I: 64, J: -65}, taggedTile{Src: tiled.Coord{I: 1 << 33}, Tile: linalg.RandDense(3, 5, 0, 1, 9)})))
}

type aggRow = dataflow.Pair[int64, *aggBlock]

func aggRows(b []byte) ([]aggRow, error) { return spill.DecodeRows(b, spill.For[aggRow]()) }

// testAggRow is a row-sums partial of a tile-wide block: one accumulator
// per monoid, every third position untouched.
func testAggRow(key int64, n, monoids int) aggRow {
	a := &aggBlock{Touched: make([]bool, n)}
	for k := 0; k < monoids; k++ {
		a.Accs = append(a.Accs, linalg.RandVector(n, -5, 5, key+int64(k)))
	}
	for i := range a.Touched {
		a.Touched[i] = i%3 != 1
	}
	return dataflow.KV(key, a)
}

// TestAggBlockCodecRoundTrip: partials with no, one and several
// accumulators, adversarial floats, a nil partial and an empty mask come
// back bit for bit, in a row whose size is the floats plus a few bytes.
// A partial merge could not fold — a missing accumulator, accumulators
// of two widths, a mask of a third — encodes, and fails to decode.
func TestAggBlockCodecRoundTrip(t *testing.T) {
	odd := testAggRow(-7, 9, 1)
	copy(odd.Value.Accs[0].Data, []float64{math.Inf(-1), math.Copysign(0, -1), math.Float64frombits(0x7ff8dead00000001)})
	rows := []aggRow{testAggRow(3, 100, 1), testAggRow(1<<40, 16, 3), odd,
		{Key: 5}, {Key: 6, Value: &aggBlock{}}, {Key: 7, Value: &aggBlock{Accs: []*linalg.Vector{linalg.NewVector(0), linalg.NewVector(0)}}}}
	wide := testAggRow(8, 20, 2)
	for _, bad := range []*aggBlock{
		{Accs: []*linalg.Vector{nil, linalg.NewVector(0)}},
		{Accs: []*linalg.Vector{linalg.NewVector(0), nil}},
		{Accs: []*linalg.Vector{wide.Value.Accs[0], linalg.NewVector(3)}},
		{Accs: wide.Value.Accs, Touched: make([]bool, 3)},
	} {
		blob, err := spill.EncodeRows([]aggRow{dataflow.KV(int64(1), bad)}, spill.For[aggRow]())
		if err != nil {
			t.Fatal(err)
		}
		if got, err := aggRows(blob); err == nil {
			t.Fatalf("partial with %d accumulators and a %d-wide mask decoded as %+v", len(bad.Accs), len(bad.Touched), got[0].Value)
		}
	}
	blob, err := spill.EncodeRows(rows, spill.For[aggRow]())
	if err != nil {
		t.Fatal(err)
	}
	got, err := aggRows(blob)
	if err != nil || len(got) != len(rows) {
		t.Fatalf("decoded %d of %d rows: %v", len(got), len(rows), err)
	}
	for i, want := range rows {
		g := got[i]
		if g.Key != want.Key || (g.Value == nil) != (want.Value == nil) {
			t.Fatalf("row %d: %+v, want %+v", i, g, want)
		}
		if want.Value == nil {
			continue
		}
		if len(g.Value.Accs) != len(want.Value.Accs) || !slices.Equal(g.Value.Touched, want.Value.Touched) {
			t.Fatalf("row %d: %d accumulators and mask %v", i, len(g.Value.Accs), g.Value.Touched)
		}
		for k, acc := range want.Value.Accs {
			if (acc == nil) != (g.Value.Accs[k] == nil) {
				t.Fatalf("row %d accumulator %d: nil-ness changed", i, k)
			}
			if acc != nil && !slices.EqualFunc(acc.Data, g.Value.Accs[k].Data, func(x, y float64) bool {
				return math.Float64bits(x) == math.Float64bits(y)
			}) {
				t.Fatalf("row %d accumulator %d changed", i, k)
			}
		}
	}
	one, _ := spill.EncodeRows(rows[:1], spill.For[aggRow]())
	if over := len(one) - 8*100; over < 0 || over > 24 {
		t.Fatalf("a 100-wide partial encodes to %d bytes", len(one))
	}
}

// TestTaggedTileCodecRoundTrip: a replicated tile keeps its destination,
// its source coordinate and its values.
func TestTaggedTileCodecRoundTrip(t *testing.T) {
	type row = dataflow.Pair[tiled.Coord, taggedTile]
	rows := []row{
		dataflow.KV(tiled.Coord{I: 2, J: -1}, taggedTile{Src: tiled.Coord{I: 1 << 33, J: 4}, Tile: linalg.RandDense(3, 5, 0, 1, 9)}),
		dataflow.KV(tiled.Coord{}, taggedTile{}),
	}
	blob, err := spill.EncodeRows(rows, spill.For[row]())
	if err != nil {
		t.Fatal(err)
	}
	got, err := spill.DecodeRows(blob, spill.For[row]())
	if err != nil || len(got) != 2 {
		t.Fatalf("decoded %d rows: %v", len(got), err)
	}
	if got[0].Key != rows[0].Key || got[0].Value.Src != rows[0].Value.Src ||
		!slices.Equal(got[0].Value.Tile.Data, rows[0].Value.Tile.Data) || got[0].Value.Tile.Cols != 5 {
		t.Fatalf("row 0 came back as %+v", got[0])
	}
	if got[1].Value.Tile != nil {
		t.Fatalf("nil tile came back as %+v", got[1].Value.Tile)
	}
}

// FuzzAggBlockCodec: arbitrary bytes never panic the decoder of the
// tile-aggregation rows; what does decode merges with itself, is sized
// exactly by the codec, and is a fixed point — it re-encodes to bytes
// that decode and re-encode to themselves.
func FuzzAggBlockCodec(f *testing.F) {
	seed, _ := spill.EncodeRows([]aggRow{testAggRow(3, 20, 2), {Key: -1}}, spill.For[aggRow]())
	f.Add(seed)
	f.Add([]byte{1, 2, 1, 0xff, 0xff, 0xff, 0xff, 0x0f, 1})
	f.Add([]byte{1, 0, 1, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0x1f, 0xaa})
	wide := testAggRow(1, 20, 1)
	for _, bad := range []*aggBlock{
		{Accs: wide.Value.Accs, Touched: make([]bool, 3)},                            // a 20-wide accumulator under a 3-wide mask
		{Accs: []*linalg.Vector{wide.Value.Accs[0], linalg.NewVector(3)}},            // two widths
		{Accs: []*linalg.Vector{linalg.NewVector(2), nil}, Touched: make([]bool, 2)}, // a missing accumulator
	} {
		blob, _ := spill.EncodeRows([]aggRow{dataflow.KV(int64(2), bad)}, spill.For[aggRow]())
		f.Add(blob)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, err := aggRows(data)
		if err != nil {
			return
		}
		for _, row := range rows {
			if _, err := encodeOne(spill.For[aggRow](), row); err != nil {
				t.Fatal(err)
			}
			if a := row.Value; a != nil {
				ms := make([]aggMonoid, len(a.Accs))
				for k := range ms {
					ms[k], _ = lookupAggMonoid("+")
				}
				a.merge(ms, a)
			}
		}
		b1, err := spill.EncodeRows(rows, spill.For[aggRow]())
		if err != nil {
			t.Fatalf("decoded rows do not encode: %v", err)
		}
		again, err := aggRows(b1)
		if err != nil {
			t.Fatalf("re-encoded rows do not decode: %v", err)
		}
		if b2, _ := spill.EncodeRows(again, spill.For[aggRow]()); !bytes.Equal(b1, b2) {
			t.Fatalf("rows re-encode differently: %x vs %x", b1, b2)
		}
	})
}

var aggSink []aggRow

// BenchmarkAggBlockCodec round-trips the 16 partials one row-sums query
// shuffles at the benchmark's shape (tile 100) through their codec.
func BenchmarkAggBlockCodec(b *testing.B) {
	rows := make([]aggRow, 16)
	for i := range rows {
		rows[i] = testAggRow(int64(i), 100, 1)
	}
	codec := spill.For[aggRow]()
	b.SetBytes(16 * 8 * 100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		blob, err := spill.EncodeRows(rows, codec)
		if err == nil {
			aggSink, err = spill.DecodeRows(blob, codec)
		}
		if err != nil || len(aggSink) != len(rows) {
			b.Fatal(err)
		}
	}
}

// FuzzValueCodec: arbitrary bytes never panic the decoder, and what does
// decode is a fixed point — it re-encodes to bytes that decode and
// re-encode to themselves.
func FuzzValueCodec(f *testing.F) {
	seed, _ := encodeVal(comp.T(comp.T(int64(3), int64(-4)), 2.5, "s", comp.L(true, nil, comp.T())))
	f.Add(seed)
	f.Add([]byte{tagTuple, 0xff, 0xff, 0xff, 0xff, 0x0f, tagInt})
	f.Add(bytes.Repeat([]byte{tagList, 1}, 200))
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := decodeVal(data)
		if err != nil {
			return
		}
		b1, err := encodeVal(v)
		if err != nil {
			t.Fatalf("decoded %s does not encode: %v", comp.Render(v), err)
		}
		v2, err := decodeVal(b1)
		if err != nil {
			t.Fatalf("re-encoded %s does not decode: %v", comp.Render(v), err)
		}
		if b2, _ := encodeVal(v2); !bytes.Equal(b1, b2) {
			t.Fatalf("%s re-encodes differently: %x vs %x", comp.Render(v), b1, b2)
		}
	})
}
