package jobs

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"

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
// blob is the summary of the result itself, bit for bit, for every kind
// — inlined values, list previews past their cut and an empty list
// included — so a cluster-backed /query reply cannot differ from a local
// one in anything but where it was computed.
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
	small := tiled.RandMatrix(ctx, 7, 8, 4, 3, -5, 5, 1)
	big := tiled.RandMatrix(ctx, 100, 37, 10, 3, -5, 5, 2)
	for name, res := range map[string]*plan.Result{
		"inlined matrix": {Matrix: small}, "matrix": {Matrix: big},
		"inlined vector": {Vector: small.RowSums()}, "vector": {Vector: big.RowSums()},
		"list": {List: list(3)}, "cut list": {List: list(25)}, "empty list": {List: list(0)},
		"scalar": {Scalar: 2.5}, "int scalar": {Scalar: int64(7)},
	} {
		blob, err := EncodeResult(res)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, want := SummarizeBlob(blob), core.Summarize(res)
		if !reflect.DeepEqual(got, want) || math.Float64bits(got.Sum) != math.Float64bits(want.Sum) {
			t.Errorf("%s: blob summary %+v, result summary %+v", name, got, want)
		}
		if want.Kind == "malformed" || got.String() != want.String() {
			t.Errorf("%s: prints %q from the blob, %q from the result", name, got, want)
		}
	}
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
