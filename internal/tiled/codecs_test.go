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
	if n := c.Size(v); n != int64(buf.Len()) {
		t.Fatalf("%T: Size says %d bytes, Encode wrote %d", c, n, buf.Len())
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
// registered codecs (spill.For panics on one that has none) and sizes
// each exactly: Entry, GroupByJoin's replicas, Build's and BuildVector's
// rows, and sparse tiles, bare and keyed for the sparse product.
func TestTiledShuffleRowsRegistered(t *testing.T) {
	tile := &linalg.Dense{Rows: 2, Cols: 70, Data: make([]float64, 140)}
	coo := linalg.NewCOO(3, 200)
	coo.Append(0, 199, -1)
	coo.Append(2, 64, 0.5)
	csr := linalg.COOToCSR(coo)
	tiledRoundTrip(t, spill.For[Entry](), Entry{I: 64, J: -65, V: 1})
	tiledRoundTrip(t, spill.For[dataflow.Pair[Coord, keyedTile]](), dataflow.KV(Coord{I: 1}, keyedTile{K: 64, G: -1, Tile: tile}))
	tiledRoundTrip(t, spill.For[dataflow.Pair[Coord, Entry]](), dataflow.KV(Coord{J: 1 << 30}, Entry{I: 3}))
	tiledRoundTrip(t, spill.For[dataflow.Pair[int64, dataflow.Pair[int64, float64]]](), dataflow.KV(int64(-70), dataflow.KV(int64(9), 0.5)))
	tiledRoundTrip(t, spill.For[SparseBlock](), dataflow.KV(Coord{I: 2}, csr))
	tiledRoundTrip(t, spill.For[dataflow.Pair[int64, SparseBlock]](), dataflow.KV(int64(5), dataflow.KV(Coord{I: 2}, csr)))
}

// TestCSRCodecRejectsWhatKernelsCannotIndex: a sparse tile whose row
// pointers or columns would send SpMM out of bounds, a truncated one and
// an unknown flag fail the stream instead of decoding.
func TestCSRCodecRejectsWhatKernelsCannotIndex(t *testing.T) {
	good := &linalg.CSR{Rows: 2, Cols: 3, RowPtr: []int{0, 1, 2}, ColIdx: []int{2, 0}, Val: []float64{1, 2}}
	if got := tiledRoundTrip[*linalg.CSR](t, csrCodec{}, good); got.Rows != 2 || got.ColIdx[0] != 2 || got.Val[1] != 2 {
		t.Fatalf("tile came back as %+v", got)
	}
	for _, bad := range []*linalg.CSR{
		{Rows: 2, Cols: 3, RowPtr: []int{0, 1}, ColIdx: []int{2}, Val: []float64{1}},          // too few row pointers
		{Rows: 2, Cols: 3, RowPtr: []int{0, 2, 1}, ColIdx: []int{2, 0}, Val: []float64{1, 2}}, // descending
		{Rows: 2, Cols: 3, RowPtr: []int{0, 1, 2}, ColIdx: []int{3, 0}, Val: []float64{1, 2}}, // column outside
		{Rows: 1, Cols: 3, RowPtr: []int{0, 2}, ColIdx: []int{1}, Val: []float64{1}},          // short of entries
	} {
		var buf bytes.Buffer
		w := spill.NewWriter(&buf)
		csrCodec{}.Encode(w, bad)
		w.Flush()
		for _, b := range [][]byte{buf.Bytes(), buf.Bytes()[:buf.Len()-1]} {
			r := spill.NewReader(bytes.NewReader(b))
			if got := (csrCodec{}).Decode(r); r.Err() == nil || got != nil {
				t.Fatalf("%+v decoded as %+v, err %v", bad, got, r.Err())
			}
		}
	}
	r := spill.NewReader(bytes.NewReader([]byte{7}))
	if (csrCodec{}).Decode(r); r.Err() == nil {
		t.Fatal("flag 7 decoded")
	}
}
