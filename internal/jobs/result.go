package jobs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/comp"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/linalg"
	"repro/internal/plan"
	"repro/internal/spill"
	"repro/internal/tiled"
)

// Result-blob kinds. The encoding is canonical — a cluster's result is
// byte-identical to the local backend's: matrices and vectors serialize
// their dense float64 bits in row-major order, lists and scalars their
// rendered text.
//
// A matrix or vector stays partitioned until it reaches the driver. A
// rank replies with a piece, the tiles of the partitions it owns:
//
//	kind | varint rows, cols (matrix) or size (vector) | varint tile | uvarint partitions
//	then per owned partition: uvarint partition | uvarint tiles
//	then per tile: varint i, j (matrix) or k (vector) | its cells inside the matrix, 8 LE bytes each, row-major
//
// Everything up to the partition count is the header, equal on every
// rank. MergeResult makes the blob of the pieces.
const (
	kindMatrix = 'M'
	kindVector = 'V'
	kindList   = 'L'
	kindScalar = 'S'

	// A piece's kind is its blob's in lower case.
	pieceOf         = 'a' - 'A'
	kindMatrixPiece = kindMatrix + pieceOf
	kindVectorPiece = kindVector + pieceOf
)

// maxDenseBytes bounds the cell area MergeResult allocates on a piece
// header's word. It is the cluster protocol's frame limit: what one reply
// could carry when every rank sent the whole blob.
const maxDenseBytes = 1 << 30

// tileGrid is the geometry of a dense result: rows x cols cells in
// row-major order, cut into tile x tile tiles. A block vector is the
// 1 x size case, block k its tile (0, k).
type tileGrid struct{ rows, cols, tile int64 }

// clip returns the height and width of the part of tile (i, j) inside the
// matrix, both zero when none of it is.
func (g tileGrid) clip(i, j int64) (h, w int64) {
	if i < 0 || j < 0 || i > g.rows/g.tile || j > g.cols/g.tile {
		return 0, 0
	}
	h, w = min(g.tile, g.rows-i*g.tile), min(g.tile, g.cols-j*g.tile)
	if h <= 0 || w <= 0 {
		return 0, 0
	}
	return h, w
}

// scatter puts the h rows of tile (i, j) at their offsets in body, the
// grid's cell area: row fills dst, 8 bytes per cell of the clipped width,
// with row r of the tile. It is the one place a tile's position becomes
// byte offsets, for a tile converted from floats (EncodeResult) and for
// one copied out of a piece (MergeResult) alike.
func (g tileGrid) scatter(body []byte, i, j, h, w int64, row func(dst []byte, r int64)) {
	top, left := i*g.tile, j*g.tile
	for r := int64(0); r < h; r++ {
		off := 8 * ((top+r)*g.cols + left)
		row(body[off:off+8*w], r)
	}
}

// denseShape is what a matrix or vector result is apart from its cells.
type denseShape struct {
	kind byte // kindMatrix or kindVector
	grid tileGrid
}

// dims are the dimensions as the blob's and a piece's header list them.
func (s denseShape) dims() []int64 {
	if s.kind == kindVector {
		return []int64{s.grid.cols}
	}
	return []int64{s.grid.rows, s.grid.cols}
}

// tileRef is one tile of a result as its encoders see it: the key, the
// height and width of its part inside the matrix, and the cells, in rows
// stride apart.
type tileRef struct {
	i, j, h, w int64
	data       []float64
	stride     int64
}

// denseResult is a matrix or vector result on the process encoding it:
// the partitions of the tile dataset it owns — all of them on a local
// session — with the final stage run for those and no others.
type denseResult struct {
	denseShape
	parts       int
	distributed bool
	owned       []dataflow.OwnedPartition[tileRef]
}

func matrixResult(m *tiled.Matrix) denseResult {
	shape := denseShape{kindMatrix, tileGrid{m.Rows, m.Cols, int64(m.N)}}
	return collectDense(shape, m.Tiles, func(b tiled.Block) tileRef {
		return tileRef{i: b.Key.I, j: b.Key.J, data: b.Value.Data, stride: int64(b.Value.Cols)}
	})
}

func vectorResult(v *tiled.Vector) denseResult {
	shape := denseShape{kindVector, tileGrid{1, v.Size, int64(v.N)}}
	return collectDense(shape, v.Blocks, func(b tiled.VBlock) tileRef {
		return tileRef{j: b.Key, data: b.Value.Data}
	})
}

func collectDense[T any](shape denseShape, d *dataflow.Dataset[T], ref func(T) tileRef) denseResult {
	res := denseResult{denseShape: shape, parts: d.NumPartitions(), distributed: d.Context().Conf().Transport != nil}
	for _, op := range dataflow.CollectOwned(d) {
		tiles := make([]tileRef, 0, len(op.Rows))
		for _, t := range op.Rows {
			// A tile outside the matrix is dropped, as in ToDense.
			r := ref(t)
			if r.h, r.w = res.grid.clip(r.i, r.j); r.h > 0 {
				tiles = append(tiles, r)
			}
		}
		res.owned = append(res.owned, dataflow.OwnedPartition[tileRef]{Part: op.Part, Rows: tiles})
	}
	return res
}

// encode serializes what this process holds of the result: the blob, on a
// local session; a piece, on a rank. Either way each tile's floats are
// converted once, into a buffer allocated at its final size.
func (d denseResult) encode() []byte {
	if d.distributed {
		return d.piece()
	}
	return d.blob()
}

// blob is the canonical encoding of a result held whole; cells no tile
// covers stay zero, as in ToDense.
func (d denseResult) blob() []byte {
	blob, body := denseBlob(d.kind, d.dims()...)
	for _, op := range d.owned {
		for _, t := range op.Rows {
			d.grid.scatter(body, t.i, t.j, t.h, t.w, func(dst []byte, r int64) {
				spill.PutF64s(dst, t.data[r*t.stride:][:t.w])
			})
		}
	}
	return blob
}

// piece encodes the owned partitions for MergeResult.
func (d denseResult) piece() []byte {
	dims := d.dims()
	size := (1 + len(dims) + 2 + 2*len(d.owned)) * binary.MaxVarintLen64
	for _, op := range d.owned {
		for _, t := range op.Rows {
			size += len(dims)*binary.MaxVarintLen64 + int(8*t.h*t.w)
		}
	}
	piece := append(make([]byte, 0, size), d.kind+pieceOf)
	for _, dim := range dims {
		piece = binary.AppendVarint(piece, dim)
	}
	piece = binary.AppendVarint(piece, d.grid.tile)
	piece = binary.AppendUvarint(piece, uint64(d.parts))
	for _, op := range d.owned {
		piece = binary.AppendUvarint(piece, uint64(op.Part))
		piece = binary.AppendUvarint(piece, uint64(len(op.Rows)))
		for _, t := range op.Rows {
			if d.kind == kindMatrix {
				piece = binary.AppendVarint(piece, t.i)
			}
			piece = binary.AppendVarint(piece, t.j)
			at := len(piece)
			piece = piece[:at+int(8*t.h*t.w)]
			if t.stride == t.w || t.h == 1 {
				spill.PutF64s(piece[at:], t.data[:t.h*t.w])
				continue
			}
			for r := int64(0); r < t.h; r++ {
				spill.PutF64s(piece[at+int(8*t.w*r):], t.data[r*t.stride:][:t.w])
			}
		}
	}
	return piece
}

// EncodeResult serializes what this process holds of a query result. On
// a local session that is the result, and the return is its canonical
// blob. On a rank of a cluster job a matrix or a vector is the tiles of
// the partitions the rank owns — the final stage runs for those only, and
// nothing is gathered from the peers — and the return is a piece for
// MergeResult; a list or a scalar, which every rank holds whole, is the
// blob there too.
func EncodeResult(res *plan.Result) ([]byte, error) {
	switch res.Kind() {
	case "matrix":
		return matrixResult(res.Matrix).encode(), nil
	case "vector":
		return vectorResult(res.Vector).encode(), nil
	case "list":
		var sb strings.Builder
		for _, row := range res.List {
			sb.WriteString(comp.Render(row))
			sb.WriteByte('\n')
		}
		return append([]byte{kindList}, sb.String()...), nil
	default:
		return append([]byte{kindScalar}, comp.Render(res.Scalar)...), nil
	}
}

// denseBlob allocates a matrix or vector blob — the kind byte, one varint
// per dimension, then 8 zero bytes per cell — and returns it with its
// cell area.
func denseBlob(kind byte, dims ...int64) (blob, body []byte) {
	cells := int64(1)
	for _, d := range dims {
		cells *= d
	}
	blob = make([]byte, 1, 1+len(dims)*binary.MaxVarintLen64+int(8*cells))
	blob[0] = kind
	for _, d := range dims {
		blob = binary.AppendVarint(blob, d)
	}
	blob = blob[:len(blob)+int(8*cells)]
	return blob, blob[len(blob)-int(8*cells):]
}

// pieceHeader is what every rank's piece of one result starts with.
type pieceHeader struct {
	denseShape        // of the blob the pieces make
	parts      uint64 // partitions of the tile dataset
	size       int    // bytes of the piece the header takes
}

// parsePieceHeader reads a piece's header and refuses one no result has:
// a varint cut short or overflowing, a negative dimension, a tile size or
// partition count of zero, a cell area past maxDenseBytes.
func parsePieceHeader(piece []byte) (pieceHeader, error) {
	var h pieceHeader
	if len(piece) == 0 {
		return h, fmt.Errorf("empty reply")
	}
	rest := piece[1:]
	next := func(what string) (int64, error) {
		v, n := binary.Varint(rest)
		if n <= 0 {
			return 0, fmt.Errorf("header cut short or overflowing at the %s", what)
		}
		rest = rest[n:]
		return v, nil
	}
	var err error
	switch piece[0] {
	case kindMatrixPiece:
		h.kind = kindMatrix
		if h.grid.rows, err = next("row count"); err != nil {
			return h, err
		}
	case kindVectorPiece:
		h.kind, h.grid.rows = kindVector, 1
	default:
		return h, fmt.Errorf("reply of kind %q is not a piece of a result", piece[0])
	}
	if h.grid.cols, err = next("column count"); err != nil {
		return h, err
	}
	if h.grid.tile, err = next("tile size"); err != nil {
		return h, err
	}
	parts, n := binary.Uvarint(rest)
	if n <= 0 {
		return h, fmt.Errorf("header cut short or overflowing at the partition count")
	}
	h.parts, h.size = parts, len(piece)-len(rest)+n
	g := h.grid
	switch {
	case g.rows < 0 || g.cols < 0:
		return h, fmt.Errorf("negative dimensions %d x %d", g.rows, g.cols)
	case g.tile <= 0:
		return h, fmt.Errorf("tile size %d", g.tile)
	case h.parts == 0:
		return h, fmt.Errorf("a result of no partitions")
	case g.rows > 0 && g.cols > maxDenseBytes/8/g.rows:
		return h, fmt.Errorf("%d x %d cells are more than a result holds (%d bytes)", g.rows, g.cols, maxDenseBytes)
	}
	return h, nil
}

// MergeResult is sac.query's cluster.Merge: it makes the canonical blob —
// the bytes RunQueryLocal returns — of the ranks' replies. A list or a
// scalar is replicated, and checked as such. A matrix or a vector arrives
// as pieces, whose rows are copied to their offsets in the blob; that the
// ranks ran one program to one end shows in the pieces fitting together,
// which replaces comparing W copies of the whole: every header is the
// same, every partition 0..parts-1 is in exactly one piece, and every
// tile lies inside the matrix and appears once. A reply is bytes from
// another process: nothing in it is believed before it is checked, and the
// blob is not allocated before every piece has been.
func MergeResult(replies []cluster.RankResult) ([]byte, error) {
	if len(replies) == 0 || len(replies[0].Result) == 0 ||
		(replies[0].Result[0] != kindMatrixPiece && replies[0].Result[0] != kindVectorPiece) {
		return cluster.Replicated(replies)
	}
	first := replies[0]
	hdr, err := parsePieceHeader(first.Result)
	if err != nil {
		return nil, fmt.Errorf("jobs: rank %d: %v", first.Rank, err)
	}
	g, matrix := hdr.grid, hdr.kind == kindMatrix
	type placed struct {
		i, j, h, w int64
		cells      []byte
	}
	var tiles []placed
	seenPart := map[uint64]bool{}
	seenTile := map[[2]int64]bool{}
	for _, reply := range replies {
		bad := func(format string, args ...any) ([]byte, error) {
			return nil, fmt.Errorf("jobs: rank %d: %s", reply.Rank, fmt.Sprintf(format, args...))
		}
		if len(reply.Result) < hdr.size || !bytes.Equal(reply.Result[:hdr.size], first.Result[:hdr.size]) {
			return bad("piece header differs from rank %d's — SPMD determinism violated", first.Rank)
		}
		rest := reply.Result[hdr.size:]
		for len(rest) > 0 {
			part, n := binary.Uvarint(rest)
			count, m := binary.Uvarint(rest[max(n, 0):])
			if n <= 0 || m <= 0 {
				return bad("piece cut short or overflowing at a partition's head")
			}
			rest = rest[n+m:]
			switch {
			case part >= hdr.parts:
				return bad("partition %d of a result of %d", part, hdr.parts)
			case seenPart[part]:
				return bad("partition %d was sent already", part)
			case count > uint64(len(rest)):
				return bad("partition %d claims %d tiles in %d bytes", part, count, len(rest))
			}
			seenPart[part] = true
			for ; count > 0; count-- {
				var i, j int64
				if matrix {
					if i, n = binary.Varint(rest); n <= 0 {
						return bad("piece cut short or overflowing at a tile's key")
					}
					rest = rest[n:]
				}
				if j, n = binary.Varint(rest); n <= 0 {
					return bad("piece cut short or overflowing at a tile's key")
				}
				rest = rest[n:]
				h, w := g.clip(i, j)
				switch {
				case h == 0:
					return bad("tile (%d,%d) lies outside the %d x %d result", i, j, g.rows, g.cols)
				case seenTile[[2]int64{i, j}]:
					return bad("tile (%d,%d) was sent already", i, j)
				case int64(len(rest)) < 8*h*w:
					return bad("piece cut short in tile (%d,%d): %d of %d bytes", i, j, len(rest), 8*h*w)
				}
				seenTile[[2]int64{i, j}] = true
				tiles = append(tiles, placed{i, j, h, w, rest[:8*h*w]})
				rest = rest[8*h*w:]
			}
		}
	}
	if uint64(len(seenPart)) != hdr.parts {
		missing := uint64(0)
		for seenPart[missing] {
			missing++
		}
		return nil, fmt.Errorf("jobs: partition %d of %d is in no rank's piece: %w", missing, hdr.parts, cluster.ErrIncomplete)
	}
	blob, body := denseBlob(hdr.kind, hdr.dims()...)
	for _, t := range tiles {
		g.scatter(body, t.i, t.j, t.h, t.w, func(dst []byte, r int64) { copy(dst, t.cells[8*t.w*r:]) })
	}
	return blob, nil
}

// SummarizeBlob describes a result blob as core.Summarize describes the
// result it was encoded from, field for field. The blob may come from a
// worker's reply, so one whose header does not parse or does not match
// its length is described (kind "malformed"), not indexed.
func SummarizeBlob(blob []byte) core.Summary {
	malformed := func(format string, args ...any) core.Summary {
		return core.Summary{Kind: "malformed", Text: fmt.Sprintf(format, args...)}
	}
	if len(blob) == 0 {
		return malformed("empty result")
	}
	kind, body := blob[0], blob[1:]
	switch kind {
	case kindMatrix:
		dims, cells, ok := denseHeader(body, 2)
		if !ok {
			return malformed("malformed result (matrix header in %d bytes)", len(blob))
		}
		return core.MatrixSummary(linalg.NewDenseFrom(int(dims[0]), int(dims[1]), f64s(cells)))
	case kindVector:
		_, cells, ok := denseHeader(body, 1)
		if !ok {
			return malformed("malformed result (vector header in %d bytes)", len(blob))
		}
		return core.VectorSummary(linalg.NewVectorFrom(f64s(cells)))
	case kindList:
		text := string(body)
		head := strings.SplitN(text, "\n", core.ListPreview+1)
		return core.ListSummary(strings.Count(text, "\n"), func(i int) string { return head[i] })
	case kindScalar:
		return core.Summary{Kind: "scalar", Text: string(body)}
	default:
		return malformed("unknown result kind %q (%d bytes)", kind, len(blob))
	}
}

// denseHeader parses the n dimensions denseBlob wrote and returns them
// with the cell area; ok is false when a varint is cut short or
// overflows, a dimension is negative, or the cells are not exactly the
// dimensions' product.
func denseHeader(body []byte, n int) (dims []int64, cells []byte, ok bool) {
	for i := 0; i < n; i++ {
		d, k := binary.Varint(body)
		if k <= 0 || d < 0 {
			return nil, nil, false
		}
		dims, body = append(dims, d), body[k:]
	}
	want := uint64(8)
	for _, d := range dims {
		if d == 0 { // no cells, whatever the other dimensions
			return dims, body, len(body) == 0
		}
	}
	for _, d := range dims {
		if want > uint64(len(body))/uint64(d) {
			return nil, nil, false
		}
		want *= uint64(d)
	}
	return dims, body, uint64(len(body)) == want
}

func f64s(cells []byte) []float64 {
	vs := make([]float64, len(cells)/8)
	spill.GetF64s(vs, cells)
	return vs
}
