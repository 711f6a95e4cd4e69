package jobs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/comp"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/plan"
	"repro/internal/tiled"
)

// TestSummarizeBlobMalformed: a result blob arrives from a worker, so
// SummarizeBlob must describe — never index into — a header that is cut
// short, overflows, or disagrees with the blob's length. Every proper
// prefix of a valid matrix and vector blob is one of those.
func TestSummarizeBlobMalformed(t *testing.T) {
	ctx := dataflow.NewContext(dataflow.Config{DefaultPartitions: 2})
	defer ctx.Close()
	mat, err := EncodeResult(&plan.Result{Matrix: tiled.RandMatrix(ctx, 300, 7, 4, 2, 0, 10, 1)})
	if err != nil {
		t.Fatal(err)
	}
	vec, err := EncodeResult(&plan.Result{Vector: tiled.RandMatrix(ctx, 300, 7, 4, 2, 0, 10, 1).RowSums()})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, prefix string
		blob         []byte
	}{{"matrix", "300x7 tiled matrix (sum=", mat}, {"vector", "block vector of 300 (sum=", vec}} {
		if got := SummarizeBlob(tc.blob).String(); !strings.HasPrefix(got, tc.prefix) {
			t.Fatalf("%s: valid blob formats as %q", tc.name, got)
		}
		for cut := 1; cut < len(tc.blob); cut++ {
			if got := SummarizeBlob(tc.blob[:cut]).String(); !strings.HasPrefix(got, "malformed result (") {
				t.Fatalf("%s cut at %d of %d bytes formats as %q", tc.name, cut, len(tc.blob), got)
			}
		}
	}
	// No cells is a shape, not damage.
	if got := SummarizeBlob([]byte{kindMatrix, 12, 0}); got.Kind != "matrix" {
		t.Errorf("a 6 x 0 matrix formats as %q", got)
	}
	overflow := append([]byte{kindMatrix}, bytes.Repeat([]byte{0xff}, 11)...)
	negative := binary.AppendVarint([]byte{kindVector}, -3)
	huge := binary.AppendVarint(binary.AppendVarint([]byte{kindMatrix}, math.MaxInt64), math.MaxInt64)
	for name, blob := range map[string][]byte{"overflowing varint": overflow, "negative size": negative, "dimensions past any blob": huge} {
		if got := SummarizeBlob(blob).String(); !strings.HasPrefix(got, "malformed result (") {
			t.Errorf("%s formats as %q", name, got)
		}
	}
}

// TestSummarizeBlobMatchesResult: the summary decoded from a result's
// blob is the summary Run makes of the result itself — from the tiles
// its one action collected (plan.Result.Collect) — bit for bit, and so
// is the summary of the lazy result and of its dense form, for every
// kind: inlined values, list previews past their cut and an empty list
// included, and tiles or blocks missing, ragged edges, no rows or no
// columns, and cells of -0.0. A cluster-backed /query reply cannot differ
// from a local one in anything but where it was computed.
func TestSummarizeBlobMatchesResult(t *testing.T) {
	ctx := dataflow.NewContext(dataflow.Config{DefaultPartitions: 3})
	defer ctx.Close()
	list := func(n int) comp.List {
		l := comp.List{}
		for i := 0; i < n; i++ {
			l = append(l, comp.Tuple{int64(i), float64(i) / 3})
		}
		return l
	}
	negZero := math.Copysign(0, -1)
	// withCells rewrites m's tiles: set(i, j) gives cell (i, j) of the
	// matrix a new value, or keeps it.
	withCells := func(m *tiled.Matrix, set func(i, j int64, x float64) float64) *tiled.Matrix {
		out := *m
		out.Tiles = dataflow.Map(m.Tiles, func(b tiled.Block) tiled.Block {
			d := b.Value.Clone()
			for r := 0; r < d.Rows; r++ {
				for c := 0; c < d.Cols; c++ {
					i, j := b.Key.I*int64(m.N)+int64(r), b.Key.J*int64(m.N)+int64(c)
					d.Set(r, c, set(i, j, d.At(r, c)))
				}
			}
			return tiled.Block{Key: b.Key, Value: d}
		})
		return &out
	}
	sparse := func(m *tiled.Matrix) *tiled.Matrix {
		out := *m
		out.Tiles = dataflow.Filter(m.Tiles, func(b tiled.Block) bool { return (b.Key.I+b.Key.J)%2 == 0 })
		return &out
	}
	holed := func(v *tiled.Vector) *tiled.Vector {
		out := *v
		out.Blocks = dataflow.Filter(v.Blocks, func(b tiled.VBlock) bool { return b.Key != 1 })
		return &out
	}
	small := tiled.RandMatrix(ctx, 7, 8, 4, 3, -5, 5, 1)
	big := tiled.RandMatrix(ctx, 100, 37, 10, 3, -5, 5, 2)
	ragged := tiled.RandMatrix(ctx, 13, 7, 4, 3, -5, 5, 3)
	noRows, noCols := tiled.RandMatrix(ctx, 0, 5, 4, 3, -5, 5, 4), tiled.RandMatrix(ctx, 5, 0, 4, 3, -5, 5, 5)
	firstNegZero := withCells(small, func(i, j int64, x float64) float64 {
		if i == 0 && j == 0 {
			return negZero
		}
		return x
	})
	allNegZero := withCells(ragged, func(int64, int64, float64) float64 { return negZero })
	for name, res := range map[string]*plan.Result{
		"inlined matrix": {Matrix: small}, "matrix": {Matrix: big},
		"inlined vector": {Vector: small.RowSums()}, "vector": {Vector: big.RowSums()},
		"matrix with tiles missing": {Matrix: sparse(big)}, "inlined matrix with tiles missing": {Matrix: sparse(small)},
		"vector with a block missing": {Vector: holed(big.RowSums())}, "inlined vector with a block missing": {Vector: holed(ragged.RowSums())},
		"ragged matrix": {Matrix: ragged}, "ragged vector": {Vector: ragged.RowSums()},
		"0-row matrix": {Matrix: noRows}, "0-column matrix": {Matrix: noCols}, "0-cell vector": {Vector: noRows.RowSums()},
		"first cell -0": {Matrix: firstNegZero}, "first cell -0, tiles missing": {Matrix: sparse(firstNegZero)},
		"every cell -0": {Matrix: allNegZero}, "every cell -0, vector": {Vector: allNegZero.RowSums()},
		"list": {List: list(3)}, "cut list": {List: list(25)}, "empty list": {List: list(0)},
		"scalar": {Scalar: 2.5}, "int scalar": {Scalar: int64(7)},
	} {
		blob, err := EncodeResult(res)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		forced := *res
		forced.Collect()
		got, want := SummarizeBlob(blob), core.Summarize(&forced)
		if !sameSummary(got, want) {
			t.Errorf("%s: blob summary %+v, result summary %+v", name, got, want)
		}
		if want.Kind == "malformed" || got.String() != want.String() {
			t.Errorf("%s: prints %q from the blob, %q from the result", name, got, want)
		}
		if lazy := core.Summarize(res); !sameSummary(lazy, want) {
			t.Errorf("%s: lazy result summary %+v, forced %+v", name, lazy, want)
		}
		if dense, ok := denseSummary(res); ok && !sameSummary(dense, want) {
			t.Errorf("%s: dense summary %+v, from the tiles %+v", name, dense, want)
		}
	}
}

// sameSummary is reflect.DeepEqual with the floats compared bit for bit,
// which tells -0.0 from 0.
func sameSummary(a, b core.Summary) bool {
	bits := func(s core.Summary) (sum uint64, vals [][]uint64) {
		for _, row := range s.Values {
			r := make([]uint64, len(row))
			for i, x := range row {
				r[i] = math.Float64bits(x)
			}
			vals = append(vals, r)
		}
		return math.Float64bits(s.Sum), vals
	}
	as, av := bits(a)
	bs, bv := bits(b)
	return reflect.DeepEqual(a, b) && as == bs && reflect.DeepEqual(av, bv)
}

// denseSummary describes a matrix or a vector result through its dense
// form, as Summarize did before it read tiles: the row-major sum of
// Dense.Sum and the values up to 8x8 (16).
func denseSummary(res *plan.Result) (core.Summary, bool) {
	switch {
	case res.Matrix != nil:
		d := res.Matrix.ToDense()
		s := core.Summary{Kind: "matrix", Rows: int64(d.Rows), Cols: int64(d.Cols), Sum: d.Sum()}
		for i := 0; i < d.Rows && d.Rows <= 8 && d.Cols <= 8; i++ {
			s.Values = append(s.Values, d.Data[i*d.Cols:][:d.Cols])
		}
		return s, true
	case res.Vector != nil:
		v := res.Vector.ToDense()
		s := core.Summary{Kind: "vector", Size: int64(v.Len()), Sum: v.Sum()}
		if v.Len() <= 16 {
			s.Values = [][]float64{v.Data}
		}
		return s, true
	}
	return core.Summary{}, false
}

// TestEncodeResultMatchesDense: the blob built tile by tile is the one
// the dense matrix spells out — ragged edge tiles, rows x cols not
// multiples of the tile, and cells no tile covers included.
func TestEncodeResultMatchesDense(t *testing.T) {
	ctx := dataflow.NewContext(dataflow.Config{DefaultPartitions: 3})
	defer ctx.Close()
	for _, shape := range [][3]int64{{1, 1, 4}, {10, 10, 5}, {13, 7, 4}, {7, 13, 16}, {100, 37, 10}} {
		m := tiled.RandMatrix(ctx, shape[0], shape[1], int(shape[2]), 3, -5, 5, shape[0])
		sparse := *m
		sparse.Tiles = dataflow.Filter(m.Tiles, func(b tiled.Block) bool { return (b.Key.I+b.Key.J)%2 == 0 })
		for _, mm := range []*tiled.Matrix{m, &sparse} {
			d := mm.ToDense()
			want := binary.AppendVarint(binary.AppendVarint([]byte{kindMatrix}, int64(d.Rows)), int64(d.Cols))
			for _, v := range d.Data {
				want = binary.LittleEndian.AppendUint64(want, math.Float64bits(v))
			}
			got, err := EncodeResult(&plan.Result{Matrix: mm})
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%v matrix: blob of %d bytes differs from the dense encoding (%d bytes): %v", shape, len(got), len(want), err)
			}
		}
		v := m.RowSums()
		dv := v.ToDense()
		want := binary.AppendVarint([]byte{kindVector}, int64(len(dv.Data)))
		for _, x := range dv.Data {
			want = binary.LittleEndian.AppendUint64(want, math.Float64bits(x))
		}
		got, err := EncodeResult(&plan.Result{Vector: v})
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%v vector: blob differs from the dense encoding: %v", shape, err)
		}
	}
}

// splitPieces encodes a result held whole as the ranks of a world would
// reply: rank r the partitions p with p % world == r.
func splitPieces(d denseResult, world int) []cluster.RankResult {
	replies := make([]cluster.RankResult, world)
	for r := range replies {
		rank := d
		rank.distributed, rank.owned = true, nil
		for _, op := range d.owned {
			if op.Part%world == r {
				rank.owned = append(rank.owned, op)
			}
		}
		replies[r] = cluster.RankResult{Rank: r, Result: rank.piece()}
	}
	return replies
}

// TestMergeResultMatchesBlob: the pieces of any world merge into the blob
// the whole result encodes to — ragged edges, tiles no partition holds,
// partitions no tile falls in, a single cell, and worlds with more ranks
// than partitions included — and what the ranks ship adds up to the cells
// plus headers, each piece in a buffer of exactly its length.
func TestMergeResultMatchesBlob(t *testing.T) {
	ctx := dataflow.NewContext(dataflow.Config{DefaultPartitions: 3})
	defer ctx.Close()
	for _, shape := range [][4]int64{{1, 1, 4, 3}, {10, 10, 5, 3}, {13, 7, 4, 5}, {7, 13, 16, 6}, {100, 37, 10, 3}, {250, 250, 100, 8}} {
		m := tiled.RandMatrix(ctx, shape[0], shape[1], int(shape[2]), int(shape[3]), -5, 5, shape[0])
		sparse := *m
		sparse.Tiles = dataflow.Filter(m.Tiles, func(b tiled.Block) bool { return (b.Key.I+b.Key.J)%2 == 0 })
		for name, d := range map[string]denseResult{"matrix": matrixResult(m), "sparse matrix": matrixResult(&sparse), "vector": vectorResult(m.RowSums())} {
			want := d.blob()
			for _, world := range []int{1, 2, 3, 8} {
				pieces := splitPieces(d, world)
				got, err := MergeResult(pieces)
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("%v %s, world %d: merged %d bytes, the blob has %d: %v", shape, name, world, len(got), len(want), err)
				}
				shipped := 0
				for _, p := range pieces {
					shipped += len(p.Result)
					if cap(p.Result) != len(p.Result) {
						t.Fatalf("%v %s, world %d: a %d-byte piece in a buffer of %d", shape, name, world, len(p.Result), cap(p.Result))
					}
				}
				tiles := 0
				for _, op := range d.owned {
					tiles += len(op.Rows)
				}
				cells := 8 * tiles * int(shape[2]*shape[2])
				if name == "vector" {
					cells = len(want) - 2
				}
				if shipped > cells+30*world+20*d.parts+20*tiles || (name != "sparse matrix" && shipped < len(want)-21) {
					t.Fatalf("%v %s, world %d: %d bytes shipped for a blob of %d", shape, name, world, shipped, len(want))
				}
			}
		}
	}
}

// TestMergeResultMalformed: a piece arrives from a worker, so MergeResult
// answers with an error naming the rank and the cause — never a panic, an
// allocation sized by an unchecked header or a write outside the blob —
// to every proper prefix of a piece, varints that overflow, dimensions
// that are negative or past any result, a tile past the matrix edge, a
// partition or a tile sent twice, ranks whose headers disagree, and a
// partition nobody sent, which is the one error that wraps ErrIncomplete.
func TestMergeResultMalformed(t *testing.T) {
	ctx := dataflow.NewContext(dataflow.Config{DefaultPartitions: 3})
	defer ctx.Close()
	m := tiled.RandMatrix(ctx, 10, 7, 4, 3, 0, 10, 1)
	other := tiled.RandMatrix(ctx, 10, 8, 4, 3, 0, 10, 1)
	for name, d := range map[string]denseResult{"matrix": matrixResult(m), "vector": vectorResult(m.RowSums())} {
		whole := splitPieces(d, 2)
		if _, err := MergeResult(whole); err != nil {
			t.Fatalf("%s: whole pieces: %v", name, err)
		}
		for rank := range whole {
			for cut := 0; cut < len(whole[rank].Result); cut++ {
				pieces := append([]cluster.RankResult{}, whole...)
				pieces[rank].Result = whole[rank].Result[:cut]
				if _, err := MergeResult(pieces); err == nil {
					t.Fatalf("%s: rank %d's piece cut at %d of %d bytes merged", name, rank, cut, len(whole[rank].Result))
				}
			}
		}
	}

	// A piece built field by field: header values, then partitions.
	piece := func(kind byte, header []int64, parts uint64, body ...[]byte) []byte {
		b := []byte{kind}
		for _, v := range header {
			b = binary.AppendVarint(b, v)
		}
		return append(binary.AppendUvarint(b, parts), bytes.Join(body, nil)...)
	}
	partition := func(part, tiles uint64, body ...[]byte) []byte {
		return append(binary.AppendUvarint(binary.AppendUvarint(nil, part), tiles), bytes.Join(body, nil)...)
	}
	tile := func(cells int, key ...int64) []byte {
		var b []byte
		for _, k := range key {
			b = binary.AppendVarint(b, k)
		}
		return append(b, make([]byte, 8*cells)...)
	}
	hdr := []int64{6, 6, 4} // 6 x 6 in tiles of 4: tiles (0,0) 4x4, (0,1) 4x2, (1,0) 2x4, (1,1) 2x2
	good := splitPieces(matrixResult(m), 2)
	for _, tc := range []struct {
		name    string
		replies [][]byte
		rank    int
		cause   string
	}{
		{"overflowing varint", [][]byte{append([]byte{kindMatrixPiece}, bytes.Repeat([]byte{0xff}, 11)...)}, 0, "overflowing"},
		{"negative rows", [][]byte{piece(kindMatrixPiece, []int64{-6, 6, 4}, 1)}, 0, "negative"},
		{"negative size", [][]byte{piece(kindVectorPiece, []int64{-6, 4}, 1)}, 0, "negative"},
		{"dimensions past any result", [][]byte{piece(kindMatrixPiece, []int64{math.MaxInt64, math.MaxInt64, 4}, 1)}, 0, "more than a result holds"},
		{"a gigabyte and a cell", [][]byte{piece(kindMatrixPiece, []int64{1 << 14, 1<<13 + 1, 4}, 1)}, 0, "more than a result holds"},
		{"zero tile size", [][]byte{piece(kindMatrixPiece, []int64{6, 6, 0}, 1)}, 0, "tile size 0"},
		{"no partitions", [][]byte{piece(kindMatrixPiece, hdr, 0)}, 0, "no partitions"},
		{"partition count overflows", [][]byte{append(piece(kindMatrixPiece, hdr, 1)[:4], bytes.Repeat([]byte{0xff}, 11)...)}, 0, "overflowing"},
		{"partition past the count", [][]byte{piece(kindMatrixPiece, hdr, 2, partition(2, 0))}, 0, "partition 2 of a result of 2"},
		{"tile count past the piece", [][]byte{piece(kindMatrixPiece, hdr, 1, partition(0, 1<<40))}, 0, "claims"},
		{"tile past the bottom edge", [][]byte{piece(kindMatrixPiece, hdr, 1, partition(0, 1, tile(16, 2, 0)))}, 0, "tile (2,0) lies outside"},
		{"tile past the right edge", [][]byte{piece(kindMatrixPiece, hdr, 1, partition(0, 1, tile(16, 0, 2)))}, 0, "tile (0,2) lies outside"},
		{"negative tile", [][]byte{piece(kindMatrixPiece, hdr, 1, partition(0, 1, tile(16, -1, 0)))}, 0, "tile (-1,0) lies outside"},
		{"tile key past int64 when scaled", [][]byte{piece(kindMatrixPiece, hdr, 1, partition(0, 1, tile(16, math.MaxInt64/2, 0)))}, 0, "lies outside"},
		{"block past the vector", [][]byte{piece(kindVectorPiece, []int64{6, 4}, 1, partition(0, 1, tile(4, 2)))}, 0, "lies outside"},
		{"edge tile sent at full size", [][]byte{piece(kindMatrixPiece, hdr, 1, partition(0, 2, tile(16, 1, 1), tile(16, 0, 0)))}, 0, "was sent already"}, // the surplus reads as more partitions
		{"tile cut short", [][]byte{piece(kindMatrixPiece, hdr, 1, partition(0, 1, tile(15, 0, 0)))}, 0, "cut short in tile (0,0)"},
		{"duplicate tile in one partition", [][]byte{piece(kindMatrixPiece, hdr, 1, partition(0, 2, tile(16, 0, 0), tile(16, 0, 0)))}, 0, "tile (0,0) was sent already"},
		{"duplicate tile across ranks", [][]byte{piece(kindMatrixPiece, hdr, 2, partition(0, 1, tile(4, 1, 1))), piece(kindMatrixPiece, hdr, 2, partition(1, 1, tile(4, 1, 1)))}, 1, "tile (1,1) was sent already"},
		{"duplicate partition in one piece", [][]byte{piece(kindMatrixPiece, hdr, 2, partition(1, 0), partition(1, 0))}, 0, "partition 1 was sent already"},
		{"duplicate partition across ranks", [][]byte{good[0].Result, good[0].Result}, 1, "was sent already"},
		{"headers disagree on the shape", [][]byte{good[0].Result, splitPieces(matrixResult(other), 2)[1].Result}, 1, "header differs from rank 0's"},
		{"headers disagree on the partition count", [][]byte{piece(kindMatrixPiece, hdr, 2, partition(0, 0)), piece(kindMatrixPiece, hdr, 3, partition(1, 0))}, 1, "header differs"},
		{"headers disagree on the kind", [][]byte{piece(kindVectorPiece, []int64{6, 4}, 2, partition(0, 0)), piece(kindMatrixPiece, hdr, 2, partition(1, 0))}, 1, "header differs"},
		{"a piece and a blob", [][]byte{good[0].Result, []byte("Lrow\n")}, 1, "header differs"},
		{"a blob and a piece", [][]byte{[]byte("Lrow\n"), good[1].Result}, 1, "determinism"},
		{"lists that differ", [][]byte{[]byte("La\n"), []byte("Lb\n")}, 1, "determinism"},
		{"empty replies that differ", [][]byte{{}, {kindScalar}}, 1, "determinism"},
	} {
		replies := make([]cluster.RankResult, len(tc.replies))
		for r, b := range tc.replies {
			replies[r] = cluster.RankResult{Rank: r, Result: b}
		}
		_, err := MergeResult(replies)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("rank %d", tc.rank)) || !strings.Contains(err.Error(), tc.cause) {
			t.Errorf("%s: error %v, want one naming rank %d and %q", tc.name, err, tc.rank, tc.cause)
		}
		if errors.Is(err, cluster.ErrIncomplete) {
			t.Errorf("%s: %v reads as a result a re-run would complete", tc.name, err)
		}
	}

	// Sound pieces that do not add up: every partition of a rank nobody
	// heard from, or no reply at all.
	for name, replies := range map[string][]cluster.RankResult{
		"rank 1 of 2 missing": good[:1], "rank 0 of 2 missing": good[1:], "no replies": nil,
		"one partition of three": {{Rank: 0, Result: piece(kindMatrixPiece, hdr, 3, partition(1, 0))}},
	} {
		if _, err := MergeResult(replies); !errors.Is(err, cluster.ErrIncomplete) {
			t.Errorf("%s: error %v, want ErrIncomplete", name, err)
		}
	}
	// Replicated kinds pass through, compared.
	if got, err := MergeResult([]cluster.RankResult{{Rank: 0, Result: []byte("S7")}, {Rank: 2, Result: []byte("S7")}}); err != nil || string(got) != "S7" {
		t.Errorf("replicated scalar: %q, %v", got, err)
	}
}

// FuzzMergeResult: whatever two ranks reply, MergeResult returns an error
// or a blob, and a blob made of pieces is one SummarizeBlob can read. Headers that claim more than a
// megabyte of cells are left to TestMergeResultMalformed: they may be
// well-formed, and the fuzzer has no use for the allocation.
func FuzzMergeResult(f *testing.F) {
	ctx := dataflow.NewContext(dataflow.Config{DefaultPartitions: 3})
	defer ctx.Close()
	m := tiled.RandMatrix(ctx, 10, 7, 4, 3, 0, 10, 1)
	for _, d := range []denseResult{matrixResult(m), vectorResult(m.RowSums())} {
		pieces := splitPieces(d, 2)
		f.Add(pieces[0].Result, pieces[1].Result)
		f.Add(pieces[1].Result, pieces[1].Result)
		f.Add(pieces[0].Result, pieces[0].Result[:len(pieces[0].Result)/2])
	}
	f.Add([]byte("Lrow\n"), []byte("Lrow\n"))
	f.Add([]byte{kindMatrixPiece, 12, 12, 8, 1, 0, 0}, []byte{})
	f.Add([]byte{kindMatrixPiece, 12, 0, 8, 1, 0, 0}, []byte{kindMatrixPiece, 12, 0, 8, 1}) // 6 x 0: a blob of no cells
	f.Fuzz(func(t *testing.T, a, b []byte) {
		hdr, notPieces := parsePieceHeader(a)
		if notPieces == nil && hdr.grid.rows*hdr.grid.cols > 1<<17 {
			t.Skip()
		}
		blob, err := MergeResult([]cluster.RankResult{{Rank: 0, Result: a}, {Rank: 1, Result: b}})
		if err != nil {
			return
		}
		if notPieces == nil && SummarizeBlob(blob).Kind == "malformed" {
			t.Fatalf("merged a blob SummarizeBlob cannot read: %s", SummarizeBlob(blob))
		}
	})
}

var resultSink []byte

// BenchmarkEncodeResult is every rank's last step before it replies: the
// canonical blob of an n = 1000, tile 100 matrix result.
func BenchmarkEncodeResult(b *testing.B) {
	ctx := dataflow.NewContext(dataflow.Config{DefaultPartitions: 8})
	defer ctx.Close()
	m := tiled.RandMatrix(ctx, 1000, 1000, 100, 8, 0, 10, 1).Persist()
	dataflow.Count(m.Tiles)
	res := &plan.Result{Matrix: m}
	b.SetBytes(8 * 1000 * 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blob, err := EncodeResult(res)
		if err != nil {
			b.Fatal(err)
		}
		resultSink = blob
	}
}

// benchPieces is an n = 1000, tile 100 matrix result as the ranks of a
// world reply with it.
func benchPieces(b *testing.B, world int) (denseResult, []cluster.RankResult) {
	ctx := dataflow.NewContext(dataflow.Config{DefaultPartitions: 8})
	b.Cleanup(func() { ctx.Close() })
	m := tiled.RandMatrix(ctx, 1000, 1000, 100, 8, 0, 10, 1).Persist()
	d := matrixResult(m)
	return d, splitPieces(d, world)
}

// BenchmarkEncodePiece is a rank's last step before it replies: its share
// of the result's tiles converted into a piece. MB/s of the piece.
func BenchmarkEncodePiece(b *testing.B) {
	for _, world := range []int{2, 8} {
		b.Run(fmt.Sprintf("world=%d", world), func(b *testing.B) {
			d, pieces := benchPieces(b, world)
			rank := d
			rank.distributed, rank.owned = true, nil
			for _, op := range d.owned {
				if op.Part%world == 0 {
					rank.owned = append(rank.owned, op)
				}
			}
			b.SetBytes(int64(len(pieces[0].Result)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resultSink = rank.piece()
			}
		})
	}
}

// BenchmarkMergeResult is the driver's step between the last reply and
// the caller: the pieces of 2 and of 8 ranks checked and scattered into
// the blob. MB/s of the blob.
func BenchmarkMergeResult(b *testing.B) {
	for _, world := range []int{2, 8} {
		b.Run(fmt.Sprintf("pieces=%d", world), func(b *testing.B) {
			_, pieces := benchPieces(b, world)
			b.SetBytes(8 * 1000 * 1000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				blob, err := MergeResult(pieces)
				if err != nil {
					b.Fatal(err)
				}
				resultSink = blob
			}
		})
	}
}
