package tiled

// Spill codecs for the tiled layer's shuffle rows.

import (
	"repro/internal/dataflow"
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

func init() {
	spill.Register[Entry](entryCodec{})
	// The rows Build and BuildVector group by block coordinate.
	spill.Register(dataflow.PairCodec[Coord, Entry](dataflow.CoordCodec{}, entryCodec{}))
	spill.Register(dataflow.PairCodec[int64, dataflow.Pair[int64, float64]](spill.Int64Codec{},
		dataflow.PairCodec[int64, float64](spill.Int64Codec{}, spill.Float64Codec{})))
	spill.Register(dataflow.PairCodec[Coord, keyedTile](dataflow.CoordCodec{}, keyedTileCodec{}))
}
