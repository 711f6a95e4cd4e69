package plan

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/comp"
	"repro/internal/dataflow"
	"repro/internal/spill"
)

func encodeVal(v comp.Value) ([]byte, error) {
	var buf bytes.Buffer
	w := spill.NewWriter(&buf)
	valueCodec{}.Encode(w, v)
	err := w.Flush()
	return buf.Bytes(), err
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

// Every row type exec_coord.go hands to a shuffle, a spill file or a
// cluster gather has a hand-rolled codec: gob cannot encode an interface
// holding a comp.Tuple, so a fallback here is a run-time failure under
// -mem or -cluster, not a slow path.
func TestCoordShuffleRowsRegistered(t *testing.T) {
	if !spill.Registered[comp.Value]() {
		t.Error("comp.Value (chain tuples, result rows, aggregation partials) has no registered codec")
	}
	if !spill.Registered[dataflow.Pair[string, comp.Value]]() {
		t.Error("Pair[string, comp.Value] (join sides, reduceByKey, groupByKey) has no registered codec")
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
