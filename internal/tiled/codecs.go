package tiled

// Spill codecs for the tiled layer's shuffle rows.

import (
	"fmt"

	"repro/internal/dataflow"
	"repro/internal/linalg"
	"repro/internal/spill"
)

// entryCodec spills sparse tile entries (two varints + raw IEEE bits).
type entryCodec struct{}

func (entryCodec) Encode(w *spill.Writer, e Entry) {
	w.Varint(e.I)
	w.Varint(e.J)
	w.F64(e.V)
}

func (entryCodec) Decode(r *spill.Reader) Entry {
	return Entry{I: r.Varint(), J: r.Varint(), V: r.F64()}
}

func (entryCodec) Size(e Entry) int64 { return spill.VarintSize(e.I) + spill.VarintSize(e.J) + 8 }

// keyedTileCodec spills a tile tagged with its SUMMA join key and
// group — dropping the group would misroute matches after a spill.
type keyedTileCodec struct{}

func (keyedTileCodec) Encode(w *spill.Writer, t keyedTile) {
	w.Varint(t.K)
	w.Varint(t.G)
	dataflow.DenseCodec{}.Encode(w, t.Tile)
}

func (keyedTileCodec) Decode(r *spill.Reader) keyedTile {
	return keyedTile{K: r.Varint(), G: r.Varint(), Tile: dataflow.DenseCodec{}.Decode(r)}
}

func (keyedTileCodec) Size(t keyedTile) int64 {
	return spill.VarintSize(t.K) + spill.VarintSize(t.G) + dataflow.DenseCodec{}.Size(t.Tile)
}

// csrCodec spills a sparse tile: flag 0 for nil, or 1, its dimensions,
// row pointers and column indices as counted lists of varints, and its
// values' IEEE bits. It decodes only a tile the kernels can index: Rows+1
// ascending row pointers from 0 to the entry count, every column inside.
type csrCodec struct{}

func csrInts(m *linalg.CSR) [3][]int { return [3][]int{{m.Rows, m.Cols}, m.RowPtr, m.ColIdx} }

func (csrCodec) Encode(w *spill.Writer, m *linalg.CSR) {
	if m == nil {
		w.Uvarint(0)
		return
	}
	w.Uvarint(1)
	for _, xs := range csrInts(m) {
		w.Uvarint(uint64(len(xs)))
		for _, x := range xs {
			w.Varint(int64(x))
		}
	}
	w.F64s(m.Val)
}

func (csrCodec) Decode(r *spill.Reader) *linalg.CSR {
	if flag := r.Uvarint(); flag != 1 {
		if flag != 0 {
			r.Fail(fmt.Errorf("tiled: sparse tile codec: flag %d", flag))
		}
		return nil
	}
	var xs [3][]int
	for k := range xs {
		// Grown as they arrive: a corrupt count runs into the end of the
		// stream, not into one huge allocation.
		for i, n := uint64(0), r.Uvarint(); i < n && r.Err() == nil; i++ {
			xs[k] = append(xs[k], int(r.Varint()))
		}
	}
	m := &linalg.CSR{RowPtr: xs[1], ColIdx: xs[2], Val: r.F64s()}
	ok := r.Err() == nil && len(xs[0]) == 2
	if ok {
		m.Rows, m.Cols = xs[0][0], xs[0][1]
		ok = m.Rows >= 0 && len(m.RowPtr) == m.Rows+1 && len(m.ColIdx) == len(m.Val) &&
			m.RowPtr[0] == 0 && m.RowPtr[m.Rows] == len(m.Val)
	}
	for i := 0; ok && i < m.Rows; i++ {
		ok = m.RowPtr[i] <= m.RowPtr[i+1]
	}
	for _, c := range m.ColIdx {
		ok = ok && c >= 0 && c < m.Cols
	}
	if !ok {
		r.Fail(fmt.Errorf("tiled: sparse tile codec: inconsistent %dx%d tile of %d entries", m.Rows, m.Cols, len(m.Val)))
		return nil
	}
	return m
}

func (csrCodec) Size(m *linalg.CSR) int64 {
	if m == nil {
		return 1
	}
	n := 1 + spill.F64sSize(len(m.Val))
	for _, xs := range csrInts(m) {
		n += spill.UvarintSize(uint64(len(xs)))
		for _, x := range xs {
			n += spill.VarintSize(int64(x))
		}
	}
	return n
}

func init() {
	spill.Register[Entry](entryCodec{})
	// The rows Build and BuildVector group by block coordinate.
	spill.Register(dataflow.PairCodec[Coord, Entry](dataflow.CoordCodec{}, entryCodec{}))
	spill.Register(dataflow.PairCodec[int64, dataflow.Pair[int64, float64]](spill.Int64Codec{},
		dataflow.PairCodec[int64, float64](spill.Int64Codec{}, spill.Float64Codec{})))
	spill.Register(dataflow.PairCodec[Coord, keyedTile](dataflow.CoordCodec{}, keyedTileCodec{}))
	// Sparse tiles, cached and keyed for the sparse product's join.
	sparse := dataflow.PairCodec[Coord, *linalg.CSR](dataflow.CoordCodec{}, csrCodec{})
	spill.Register(sparse)
	spill.Register(dataflow.PairCodec[int64, SparseBlock](spill.Int64Codec{}, sparse))
}
