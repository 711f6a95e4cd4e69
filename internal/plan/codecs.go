package plan

// Codecs for the rows this package shuffles, caches and gathers: the
// coordinate path's one row type, and the tile strategies' two that are
// not plain tiles (the aggregation partial and the replicated tile). Each
// codec's Size is the engine's measure of the row.
//
// Every dataset exec_coord.go shuffles, spills or gathers is a comp.Value
// or a Pair[string, comp.Value], and a comp.Value is drawn from the closed
// universe of comp/value.go, so one tagged encoding covers them all; its
// size walks a tuple or list the way the encoder does.

import (
	"fmt"

	"repro/internal/comp"
	"repro/internal/dataflow"
	"repro/internal/spill"
	"repro/internal/tiled"
)

const (
	tagUnit = iota
	tagInt
	tagFloat
	tagFalse
	tagTrue
	tagString
	tagTuple
	tagList

	// maxValueDepth bounds tuple/list nesting on both sides, so a corrupt
	// stream cannot recurse the decoder off the stack.
	maxValueDepth = 64
)

// valueCodec encodes calculus values: a tag, then a varint, the IEEE
// bits, a length-prefixed string, or a count and the elements.
type valueCodec struct{}

func (valueCodec) Encode(w *spill.Writer, v comp.Value) { encodeValue(w, v, 0) }
func (valueCodec) Decode(r *spill.Reader) comp.Value    { return decodeValue(r, 0) }
func (valueCodec) Size(v comp.Value) int64              { return valueSize(v) }

// valueSize is what encodeValue writes for v. A type encodeValue refuses
// writes nothing.
func valueSize(v comp.Value) int64 {
	switch x := v.(type) {
	case nil, bool:
		return 1
	case int64:
		return 1 + spill.VarintSize(x)
	case float64:
		return 1 + 8
	case string:
		return 1 + spill.StringSize(x)
	case comp.Tuple:
		return elemsSize(x)
	case comp.List:
		return elemsSize(x)
	default:
		return 0
	}
}

func elemsSize(vs []comp.Value) int64 {
	n := 1 + spill.UvarintSize(uint64(len(vs)))
	for _, e := range vs {
		n += valueSize(e)
	}
	return n
}

func encodeElems(w *spill.Writer, tag uint64, vs []comp.Value, depth int) {
	if depth == maxValueDepth {
		w.Fail(fmt.Errorf("plan: value codec: nesting deeper than %d", maxValueDepth))
		return
	}
	w.Uvarint(tag)
	w.Uvarint(uint64(len(vs)))
	for _, e := range vs {
		encodeValue(w, e, depth+1)
	}
}

func encodeValue(w *spill.Writer, v comp.Value, depth int) {
	switch x := v.(type) {
	case nil:
		w.Uvarint(tagUnit)
	case int64:
		w.Uvarint(tagInt)
		w.Varint(x)
	case float64:
		w.Uvarint(tagFloat)
		w.F64(x)
	case bool:
		if x {
			w.Uvarint(tagTrue)
		} else {
			w.Uvarint(tagFalse)
		}
	case string:
		w.Uvarint(tagString)
		w.String(x)
	case comp.Tuple:
		encodeElems(w, tagTuple, x, depth)
	case comp.List:
		encodeElems(w, tagList, x, depth)
	default:
		w.Fail(fmt.Errorf("plan: value codec: cannot encode %T", v))
	}
}

func decodeValue(r *spill.Reader, depth int) comp.Value {
	switch tag := r.Uvarint(); tag {
	case tagUnit:
		return nil
	case tagInt:
		return r.Varint()
	case tagFloat:
		return r.F64()
	case tagFalse, tagTrue:
		return tag == tagTrue
	case tagString:
		return r.String()
	case tagTuple, tagList:
		n := r.Uvarint()
		if depth == maxValueDepth {
			r.Fail(fmt.Errorf("plan: value codec: nesting deeper than %d", maxValueDepth))
		}
		// Grown as elements arrive: a corrupt count runs into the end of
		// the stream, not into one huge allocation.
		var vs []comp.Value
		for i := uint64(0); i < n && r.Err() == nil; i++ {
			vs = append(vs, decodeValue(r, depth+1))
		}
		if tag == tagTuple {
			return comp.Tuple(vs)
		}
		return comp.List(vs)
	default:
		r.Fail(fmt.Errorf("plan: value codec: unknown tag %d", tag))
		return nil
	}
}

// aggBlockCodec encodes a tile-aggregation partial: a presence flag, the
// accumulators as bulk float slices, the touched mask as a bitmap. It
// decodes only what aggBlock.merge can fold: every accumulator present
// and of one width, and a mask that is empty or of that width.
type aggBlockCodec struct{}

func (aggBlockCodec) Encode(w *spill.Writer, a *aggBlock) {
	if a == nil {
		w.Uvarint(0)
		return
	}
	w.Uvarint(1)
	w.Uvarint(uint64(len(a.Accs)))
	for _, acc := range a.Accs {
		dataflow.VectorCodec{}.Encode(w, acc)
	}
	w.Bools(a.Touched)
}

func (aggBlockCodec) Decode(r *spill.Reader) *aggBlock {
	if flag := r.Uvarint(); flag != 1 {
		if flag != 0 {
			r.Fail(fmt.Errorf("plan: partial codec: flag %d", flag))
		}
		return nil
	}
	a := &aggBlock{}
	// Grown as accumulators arrive, like a value's elements.
	for i, n := uint64(0), r.Uvarint(); i < n && r.Err() == nil; i++ {
		a.Accs = append(a.Accs, dataflow.VectorCodec{}.Decode(r))
	}
	a.Touched = r.Bools()
	ok := r.Err() == nil && (len(a.Accs) == 0 || a.Accs[0] != nil)
	for _, acc := range a.Accs {
		ok = ok && acc != nil && len(acc.Data) == a.width()
	}
	if !ok || (len(a.Touched) != 0 && len(a.Touched) != a.width()) {
		r.Fail(fmt.Errorf("plan: partial codec: %d accumulators and a %d-wide mask that merge cannot fold", len(a.Accs), len(a.Touched)))
		return nil
	}
	return a
}

func (aggBlockCodec) Size(a *aggBlock) int64 {
	if a == nil {
		return 1
	}
	n := 1 + spill.UvarintSize(uint64(len(a.Accs))) + spill.BoolsSize(len(a.Touched))
	for _, acc := range a.Accs {
		n += dataflow.VectorCodec{}.Size(acc)
	}
	return n
}

// taggedTileCodec encodes a replicated tile with its source coordinate.
type taggedTileCodec struct{}

func (taggedTileCodec) Encode(w *spill.Writer, t taggedTile) {
	dataflow.CoordCodec{}.Encode(w, t.Src)
	dataflow.DenseCodec{}.Encode(w, t.Tile)
}

func (taggedTileCodec) Decode(r *spill.Reader) taggedTile {
	src := dataflow.CoordCodec{}.Decode(r)
	return taggedTile{Src: src, Tile: dataflow.DenseCodec{}.Decode(r)}
}

func (taggedTileCodec) Size(t taggedTile) int64 {
	return dataflow.CoordCodec{}.Size(t.Src) + dataflow.DenseCodec{}.Size(t.Tile)
}

func init() {
	spill.Register[comp.Value](valueCodec{})
	spill.Register(dataflow.PairCodec[string, comp.Value](spill.StringCodec{}, valueCodec{}))
	// execTileAgg's partials, through reduceByKey and groupByKey alike, a
	// total's per-partition partial gathered across ranks, and
	// execReplicate's tiles.
	spill.Register(dataflow.PairCodec[int64, *aggBlock](spill.Int64Codec{}, aggBlockCodec{}))
	spill.Register[*aggBlock](aggBlockCodec{})
	spill.Register(dataflow.PairCodec[tiled.Coord, taggedTile](dataflow.CoordCodec{}, taggedTileCodec{}))
}
