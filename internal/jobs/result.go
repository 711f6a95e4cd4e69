package jobs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
	"sync"

	"repro/internal/cluster"
	"repro/internal/comp"
	"repro/internal/core"
	"repro/internal/dataflow"
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

// maxPieceHeader is the longest a piece's header can be: the kind, three
// varints and a uvarint.
const maxPieceHeader = 1 + 4*binary.MaxVarintLen64

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
// local session, with each tile's floats converted once into a buffer
// allocated at its final size; a piece, on a rank, as a writer.
func (d denseResult) encode() encoded {
	if d.distributed {
		return encoded{size: d.pieceSize(), write: d.writePiece}
	}
	return encoded{blob: d.blob()}
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

// pieceSize is the length of the piece writePiece writes.
func (d denseResult) pieceSize() int64 {
	size := 1 + spill.VarintSize(d.grid.tile) + spill.UvarintSize(uint64(d.parts))
	for _, dim := range d.dims() {
		size += spill.VarintSize(dim)
	}
	for _, op := range d.owned {
		size += spill.UvarintSize(uint64(op.Part)) + spill.UvarintSize(uint64(len(op.Rows)))
		for _, t := range op.Rows {
			if d.kind == kindMatrix {
				size += spill.VarintSize(t.i)
			}
			size += spill.VarintSize(t.j) + 8*t.h*t.w
		}
	}
	return size
}

// pieceBlock is the buffer writePiece converts a piece through.
const pieceBlock = 64 << 10

// writePiece writes the piece of the owned partitions for MergeResult to
// w: the header, then per partition its index and its tiles, each a key
// and the cells inside the matrix. The cells are converted a block at a
// time (spill.PutF64s) into one small buffer that is written as it fills,
// so a rank's piece is never held whole: it goes from the result tiles to
// the driver's connection.
func (d denseResult) writePiece(w io.Writer) error {
	buf := make([]byte, 0, min(pieceBlock, max(d.pieceSize(), 64)))
	var err error
	flush := func() {
		if err == nil && len(buf) > 0 {
			_, err = w.Write(buf)
		}
		buf = buf[:0]
	}
	key := func(k func([]byte) []byte) {
		if cap(buf)-len(buf) < 2*binary.MaxVarintLen64 {
			flush()
		}
		buf = k(buf)
	}
	cells := func(vs []float64) {
		for len(vs) > 0 {
			k := min(len(vs), (cap(buf)-len(buf))/8)
			if k == 0 {
				flush()
				continue
			}
			at := len(buf)
			buf = buf[:at+8*k]
			spill.PutF64s(buf[at:], vs[:k])
			vs = vs[k:]
		}
	}
	buf = append(buf, d.kind+pieceOf)
	for _, dim := range d.dims() {
		buf = binary.AppendVarint(buf, dim)
	}
	buf = binary.AppendVarint(buf, d.grid.tile)
	buf = binary.AppendUvarint(buf, uint64(d.parts))
	for _, op := range d.owned {
		key(func(b []byte) []byte {
			return binary.AppendUvarint(binary.AppendUvarint(b, uint64(op.Part)), uint64(len(op.Rows)))
		})
		for _, t := range op.Rows {
			key(func(b []byte) []byte {
				if d.kind == kindMatrix {
					b = binary.AppendVarint(b, t.i)
				}
				return binary.AppendVarint(b, t.j)
			})
			if t.stride == t.w || t.h == 1 {
				cells(t.data[:t.h*t.w])
				continue
			}
			for r := int64(0); r < t.h; r++ {
				cells(t.data[r*t.stride:][:t.w])
			}
		}
	}
	flush()
	return err
}

// piece is the piece writePiece writes, in one buffer of its length.
func (d denseResult) piece() []byte { return d.encode().bytes() }

// encoded is what this process replies with for a query result: the
// result's bytes held whole (blob), or — a rank's piece — size bytes that
// write writes.
type encoded struct {
	blob  []byte
	size  int64
	write func(io.Writer) error
}

// bytes is the reply in one buffer: the blob, or what write writes into a
// buffer of its size.
func (e encoded) bytes() []byte {
	if e.write == nil {
		return e.blob
	}
	b := bytes.NewBuffer(make([]byte, 0, e.size))
	e.write(b) // writes to a bytes.Buffer do not fail
	return b.Bytes()
}

// replyWith makes e the reply of env's job: it returns the blob, or hands
// the writer to the worker (JobEnv.Reply), which then writes the piece to
// the driver's connection.
func replyWith(env *cluster.JobEnv, e encoded) []byte {
	if e.write != nil {
		env.Reply(e.size, e.write)
	}
	return e.blob
}

// EncodeResult serializes what this process holds of a query result. On
// a local session that is the result, and the return is its canonical
// blob. On a rank of a cluster job a matrix or a vector is the tiles of
// the partitions the rank owns — the final stage runs for those only, and
// nothing is gathered from the peers — and the return is a piece for
// MergeResult; a list or a scalar, which every rank holds whole, is the
// blob there too.
func EncodeResult(res *plan.Result) ([]byte, error) {
	e, err := encodeResult(res)
	return e.bytes(), err
}

// encodeResult is EncodeResult with a rank's piece left as its writer.
func encodeResult(res *plan.Result) (encoded, error) {
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
		return encoded{blob: append([]byte{kindList}, sb.String()...)}, nil
	default:
		return encoded{blob: append([]byte{kindScalar}, comp.Render(res.Scalar)...)}, nil
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

// resultMerger is sac.query's cluster.Merger: it makes the canonical blob
// — the bytes RunQueryLocal returns — of the ranks' replies as they
// arrive. A list or a scalar is replicated, and goes to cluster.Replicated:
// the first reply is the result and every other must equal it. A matrix or
// a vector arrives as pieces, whose rows are read straight to their offsets
// in the blob; that the ranks ran one program to one end shows in the pieces
// fitting together, which replaces comparing W copies of the whole: every
// header is the same, every partition 0..parts-1 is in exactly one piece,
// and every tile lies inside the matrix and appears once. A reply is bytes
// from another process: nothing in it is believed before it is checked,
// and the blob is allocated once the first piece's header has been.
//
// Ranks' replies are read at once, each off its own connection: the lock
// is held to check and claim a partition or a tile, never across a read,
// so a rank that stalls mid-piece holds up no other. A reply whose read
// fails gives its claims back — that rank did not reply — and Result
// waits for the replies still being read.
type resultMerger struct {
	mu     sync.Mutex
	idle   sync.Cond // on mu: no Add is reading
	active int       // the Adds reading a reply
	err    error     // the first reply that is no part of a result
	done   bool
	got    bool
	pieces bool // the kind of the first reply to arrive: pieces, or replicated
	whole  cluster.Merger

	header     []byte // the first piece's, and its rank
	first      int
	hdr        pieceHeader
	blob, body []byte
	parts      map[uint64]bool   // claimed by a piece
	tiles      map[[2]int64]bool // claimed by a piece
}

func newResultMerger() cluster.Merger {
	m := &resultMerger{whole: cluster.Replicated()}
	m.idle.L = &m.mu
	return m
}

// MergeResult is what the driver's merge makes of replies arriving in the
// order given: the canonical blob, or an error naming the rank and the
// cause.
func MergeResult(replies []cluster.RankResult) ([]byte, error) {
	m := newResultMerger()
	for _, r := range replies {
		_ = m.Add(r.Rank, bytes.NewReader(r.Result), int64(len(r.Result))) // a reply that is no part of a result is Result's error
	}
	return m.Result()
}

// claims are the partitions and tiles one piece claimed.
type claims struct {
	parts []uint64
	tiles [][2]int64
}

func (m *resultMerger) Add(rank int, r io.Reader, size int64) error {
	m.mu.Lock()
	if m.done || m.err != nil {
		m.mu.Unlock()
		return m.err
	}
	m.active++
	m.mu.Unlock()
	p := &replyReader{r: r, left: size}
	var c claims
	err := m.add(rank, p, &c)
	m.mu.Lock()
	defer m.mu.Unlock()
	if err != nil {
		if p.failed == nil && m.err == nil {
			m.err = err
		}
		for _, part := range c.parts {
			delete(m.parts, part)
		}
		for _, t := range c.tiles {
			delete(m.tiles, t)
		}
	}
	if m.active--; m.active == 0 {
		m.idle.Broadcast()
	}
	return err
}

func (m *resultMerger) add(rank int, p *replyReader, c *claims) error {
	head := make([]byte, min(maxPieceHeader, p.left))
	if err := p.full(head); err != nil {
		return err
	}
	m.mu.Lock()
	if !m.got {
		m.got = true
		m.pieces = len(head) > 0 && (head[0] == kindMatrixPiece || head[0] == kindVectorPiece)
	}
	if !m.pieces {
		m.mu.Unlock()
		p.unread(head)
		return m.whole.Add(rank, p, p.left)
	}
	bad := func(format string, args ...any) error {
		return fmt.Errorf("jobs: rank %d: %s", rank, fmt.Sprintf(format, args...))
	}
	if m.header == nil {
		hdr, err := parsePieceHeader(head)
		if err != nil {
			m.mu.Unlock()
			return bad("%v", err)
		}
		m.header, m.first, m.hdr = head[:hdr.size], rank, hdr
		m.blob, m.body = denseBlob(hdr.kind, hdr.dims()...)
		m.parts, m.tiles = map[uint64]bool{}, map[[2]int64]bool{}
	} else if len(head) < len(m.header) || !bytes.Equal(head[:len(m.header)], m.header) {
		m.mu.Unlock()
		return bad("piece header differs from rank %d's — SPMD determinism violated", m.first)
	}
	hdr, body := m.hdr, m.body
	p.unread(head[len(m.header):])
	m.mu.Unlock()

	g, matrix := hdr.grid, hdr.kind == kindMatrix
	// claim checks a key against what the pieces claimed so far and takes
	// it; nil means it is this piece's.
	claim := func(check func() error) error {
		m.mu.Lock()
		defer m.mu.Unlock()
		return check()
	}
	for p.left > 0 {
		part, err1 := binary.ReadUvarint(p)
		count, err2 := binary.ReadUvarint(p)
		if p.failed != nil {
			return p.failed
		}
		if err := claim(func() error {
			switch {
			case err1 != nil || err2 != nil:
				return bad("piece cut short or overflowing at a partition's head")
			case part >= hdr.parts:
				return bad("partition %d of a result of %d", part, hdr.parts)
			case m.parts[part]:
				return bad("partition %d was sent already", part)
			case count > uint64(p.left):
				return bad("partition %d claims %d tiles in %d bytes", part, count, p.left)
			}
			m.parts[part] = true
			c.parts = append(c.parts, part)
			return nil
		}); err != nil {
			return err
		}
		for ; count > 0; count-- {
			var i, j int64
			var err error
			if matrix {
				i, err = binary.ReadVarint(p)
			}
			if err == nil {
				j, err = binary.ReadVarint(p)
			}
			if p.failed != nil {
				return p.failed
			}
			h, w := g.clip(i, j)
			if err := claim(func() error {
				switch {
				case err != nil:
					return bad("piece cut short or overflowing at a tile's key")
				case h == 0:
					return bad("tile (%d,%d) lies outside the %d x %d result", i, j, g.rows, g.cols)
				case m.tiles[[2]int64{i, j}]:
					return bad("tile (%d,%d) was sent already", i, j)
				case p.left < 8*h*w:
					return bad("piece cut short in tile (%d,%d): %d of %d bytes", i, j, p.left, 8*h*w)
				}
				m.tiles[[2]int64{i, j}] = true
				c.tiles = append(c.tiles, [2]int64{i, j})
				return nil
			}); err != nil {
				return err
			}
			// The tile is this piece's: its rows go to their offsets in
			// the blob outside the lock.
			g.scatter(body, i, j, h, w, func(dst []byte, _ int64) {
				if err == nil {
					err = p.full(dst)
				}
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func (m *resultMerger) Result() ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.done = true
	for m.active > 0 {
		m.idle.Wait()
	}
	switch {
	case m.err != nil:
		return nil, m.err
	case !m.got:
		return nil, fmt.Errorf("no rank replied: %w", cluster.ErrIncomplete)
	case !m.pieces:
		return m.whole.Result()
	case uint64(len(m.parts)) != m.hdr.parts:
		missing := uint64(0)
		for m.parts[missing] {
			missing++
		}
		return nil, fmt.Errorf("jobs: partition %d of %d is in no rank's piece: %w", missing, m.hdr.parts, cluster.ErrIncomplete)
	}
	return m.blob, nil
}

// replyReader reads one rank's reply off its stream, counting what is left
// of it. Running past the reply's end is the reply's fault, and reads as
// io.EOF; a stream that fails before the end is the transport's (failed).
type replyReader struct {
	r      io.Reader
	left   int64
	failed error
	b      [1]byte
}

func (p *replyReader) Read(b []byte) (int, error) {
	if p.left <= 0 {
		return 0, io.EOF
	}
	b = b[:min(int64(len(b)), p.left)]
	if err := p.full(b); err != nil {
		return 0, err
	}
	return len(b), nil
}

func (p *replyReader) ReadByte() (byte, error) {
	if p.left <= 0 {
		return 0, io.EOF
	}
	if err := p.full(p.b[:]); err != nil {
		return 0, err
	}
	return p.b[0], nil
}

// unread puts b, read last, back in front of the rest of the reply.
func (p *replyReader) unread(b []byte) {
	p.r, p.left = io.MultiReader(bytes.NewReader(b), p.r), p.left+int64(len(b))
}

// full fills dst from the reply, or fails: io.ErrUnexpectedEOF past its
// end, the stream's error when that fails.
func (p *replyReader) full(dst []byte) error {
	if int64(len(dst)) > p.left {
		return io.ErrUnexpectedEOF
	}
	if _, err := io.ReadFull(p.r, dst); err != nil {
		p.failed, p.left = err, 0 // the stream has no more of the reply to give
		return err
	}
	p.left -= int64(len(dst))
	return nil
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
		return summarizeCells(core.NewMatrixSummary(dims[0], dims[1]), cells)
	case kindVector:
		dims, cells, ok := denseHeader(body, 1)
		if !ok {
			return malformed("malformed result (vector header in %d bytes)", len(blob))
		}
		return summarizeCells(core.NewVectorSummary(dims[0]), cells)
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

// summarizeCells feeds d a blob's little-endian cells where they lie,
// decoding them a few at a time, and returns the summary.
func summarizeCells(d *core.DenseSummary, cells []byte) core.Summary {
	var buf [512]float64
	for len(cells) >= 8 {
		vs := buf[:min(len(buf), len(cells)/8)]
		spill.GetF64s(vs, cells)
		d.Cells(vs)
		cells = cells[8*len(vs):]
	}
	return d.Summary()
}
