package dataflow

// Spill codecs for the engine's row types: coordinates, tiles, vectors,
// and the pairs of them the tiled layer shuffles and caches. A row type
// with no registered codec cannot cross a shuffle, a Persist cache or a
// cluster gather: building one panics, naming the type (spill.For).

import (
	"fmt"

	"repro/internal/linalg"
	"repro/internal/spill"
)

// CoordCodec spills 2-D tile/element coordinates as two varints.
type CoordCodec struct{}

func (CoordCodec) Encode(w *spill.Writer, v Coord) {
	w.Varint(v.I)
	w.Varint(v.J)
}

func (CoordCodec) Decode(r *spill.Reader) Coord {
	return Coord{I: r.Varint(), J: r.Varint()}
}

func (CoordCodec) Size(v Coord) int64 { return spill.VarintSize(v.I) + spill.VarintSize(v.J) }

// DenseCodec spills dense tiles: a flag, then for a tile written whole
// its dimensions and the raw IEEE bits of its payload. Flag 0 is a nil
// tile and 1 a whole one. Flag 2, followed by a uvarint index, is a tile
// the grouped blob being written already holds (spill.Writer.Ref): a tile
// replicated to several cells of one rank crosses to it once and arrives
// as one pointer, as the local backend hands it out. Run files and
// EncodeRows have no table, so they never write or accept flag 2.
type DenseCodec struct{}

const (
	denseNil = iota
	denseWhole
	denseRef
)

func (DenseCodec) Encode(w *spill.Writer, v *linalg.Dense) {
	if v == nil {
		w.Uvarint(denseNil)
		return
	}
	if i, seen := w.Ref(v); seen {
		w.Uvarint(denseRef)
		w.Uvarint(i)
		return
	}
	w.Uvarint(denseWhole)
	w.Varint(int64(v.Rows))
	w.Varint(int64(v.Cols))
	w.F64s(v.Data)
}

func (DenseCodec) Decode(r *spill.Reader) *linalg.Dense {
	switch flag := r.Uvarint(); flag {
	case denseNil:
		return nil
	case denseRef:
		v := r.Deref(r.Uvarint())
		if t, ok := v.(*linalg.Dense); ok && t != nil {
			return t
		}
		r.Fail(fmt.Errorf("dataflow: tile codec: back-reference to a %T, not a tile", v))
		return nil
	case denseWhole:
	default:
		r.Fail(fmt.Errorf("dataflow: tile codec: flag %d", flag))
		return nil
	}
	rows, cols := int(r.Varint()), int(r.Varint())
	data := r.F64s()
	if r.Err() != nil {
		return nil
	}
	if rows < 0 || cols < 0 || len(data) != rows*cols {
		r.Fail(fmt.Errorf("dataflow: tile codec: %dx%d header with %d elements", rows, cols, len(data)))
		return nil
	}
	t := &linalg.Dense{Rows: rows, Cols: cols, Data: data}
	r.Bind(t)
	return t
}

// Size counts a tile whole: a stream without a back-reference table, and
// a local shuffle, hand it over whole wherever it repeats.
func (DenseCodec) Size(v *linalg.Dense) int64 {
	if v == nil {
		return 1
	}
	return TileSize(v.Rows, v.Cols, len(v.Data))
}

// TileSize is what DenseCodec writes for a rows x cols tile of n cells
// written whole: the flag, the header and 8 bytes a cell.
func TileSize(rows, cols, n int) int64 {
	return 1 + spill.VarintSize(int64(rows)) + spill.VarintSize(int64(cols)) + spill.F64sSize(n)
}

// VectorCodec spills dense vector blocks: flag 0 for nil, 1 and the
// elements for a vector.
type VectorCodec struct{}

func (VectorCodec) Encode(w *spill.Writer, v *linalg.Vector) {
	if v == nil {
		w.Uvarint(0)
		return
	}
	w.Uvarint(1)
	w.F64s(v.Data)
}

func (VectorCodec) Decode(r *spill.Reader) *linalg.Vector {
	switch flag := r.Uvarint(); flag {
	case 0:
		return nil
	case 1:
		return &linalg.Vector{Data: r.F64s()}
	default:
		r.Fail(fmt.Errorf("dataflow: vector codec: flag %d", flag))
		return nil
	}
}

func (VectorCodec) Size(v *linalg.Vector) int64 {
	if v == nil {
		return 1
	}
	return 1 + spill.F64sSize(len(v.Data))
}

// pairCodec composes key and value codecs into a Pair codec.
type pairCodec[K comparable, V any] struct {
	kc spill.Codec[K]
	vc spill.Codec[V]
}

func (c pairCodec[K, V]) Encode(w *spill.Writer, p Pair[K, V]) {
	c.kc.Encode(w, p.Key)
	c.vc.Encode(w, p.Value)
}

func (c pairCodec[K, V]) Decode(r *spill.Reader) Pair[K, V] {
	k := c.kc.Decode(r)
	return Pair[K, V]{Key: k, Value: c.vc.Decode(r)}
}

func (c pairCodec[K, V]) Size(p Pair[K, V]) int64 { return c.kc.Size(p.Key) + c.vc.Size(p.Value) }

// PairCodec builds a codec for Pair[K, V] from its component codecs,
// so downstream packages can register codecs for their own pair rows.
func PairCodec[K comparable, V any](kc spill.Codec[K], vc spill.Codec[V]) spill.Codec[Pair[K, V]] {
	return pairCodec[K, V]{kc: kc, vc: vc}
}

func init() {
	spill.Register[Coord](CoordCodec{})
	spill.Register[*linalg.Dense](DenseCodec{})
	spill.Register[*linalg.Vector](VectorCodec{})
	// Tile blocks (tiled.Block / mllib.Block), the k-keyed blocks of the
	// tiled multiply join, and vector blocks.
	blockCodec := PairCodec[Coord, *linalg.Dense](CoordCodec{}, DenseCodec{})
	spill.Register(blockCodec)
	spill.Register(PairCodec[int64, Pair[Coord, *linalg.Dense]](spill.Int64Codec{}, blockCodec))
	spill.Register(PairCodec[int64, *linalg.Vector](spill.Int64Codec{}, VectorCodec{}))
	// Keyed scalars (row sums, counts).
	spill.Register(PairCodec[int64, float64](spill.Int64Codec{}, spill.Float64Codec{}))
	spill.Register(PairCodec[int64, int64](spill.Int64Codec{}, spill.Int64Codec{}))
}
