package tiled

// Round-trip tests for the tiled layer's spill codecs.

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/linalg"
	"repro/internal/spill"
)

func tiledRoundTrip[T any](t *testing.T, c spill.Codec[T], v T) T {
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

func TestEntryCodecRoundTrip(t *testing.T) {
	for _, v := range []Entry{
		{}, {I: -1, J: 1, V: math.Inf(1)},
		{I: math.MaxInt64, J: math.MinInt64, V: math.Float64frombits(0x7ff8dead00000001)},
	} {
		got := tiledRoundTrip[Entry](t, entryCodec{}, v)
		if got.I != v.I || got.J != v.J || math.Float64bits(got.V) != math.Float64bits(v.V) {
			t.Fatalf("entry %+v -> %+v", v, got)
		}
	}
}

func TestKeyedTileCodecRoundTrip(t *testing.T) {
	v := keyedTile{K: -42, G: 9, Tile: &linalg.Dense{Rows: 1, Cols: 3, Data: []float64{0, -0.0, 7}}}
	got := tiledRoundTrip[keyedTile](t, keyedTileCodec{}, v)
	if got.K != v.K || got.G != v.G || got.Tile.Rows != 1 || got.Tile.Cols != 3 || got.Tile.Data[2] != 7 {
		t.Fatalf("keyed tile %+v -> %+v", v, got)
	}
}

// TestTiledShuffleRowsRegistered pins the tiled shuffle row types to
// hand-rolled registry entries.
func TestTiledShuffleRowsRegistered(t *testing.T) {
	if !spill.Registered[Entry]() {
		t.Error("Entry has no registered spill codec")
	}
	if !spill.Registered[dataflow.Pair[Coord, keyedTile]]() {
		t.Error("keyedTile shuffle row has no registered spill codec")
	}
	if !spill.Registered[dataflow.Pair[Coord, Entry]]() {
		t.Error("Build's shuffle row has no registered spill codec")
	}
	if !spill.Registered[dataflow.Pair[int64, dataflow.Pair[int64, float64]]]() {
		t.Error("BuildVector's shuffle row has no registered spill codec")
	}
}
