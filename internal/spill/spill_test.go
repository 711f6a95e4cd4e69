package spill

import (
	"math/rand"
	"os"
	"sort"
	"testing"
)

func ident(v int64) uint64 { return uint64(v) }

func TestWriteRunRoundTrip(t *testing.T) {
	dir := t.TempDir()
	items := []int64{5, 1, 9, 1, -3, 7}
	run, err := WriteRun(dir, items, ident, Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	defer run.Remove()
	if run.Rows != 6 {
		t.Fatalf("rows = %d, want 6", run.Rows)
	}
	if run.Bytes <= 0 {
		t.Fatalf("bytes = %d, want > 0", run.Bytes)
	}
	var got []int64
	var ords []uint64
	if err := run.Each(Int64Codec{}, func(o uint64, v int64) {
		got = append(got, v)
		ords = append(ords, o)
	}); err != nil {
		t.Fatal(err)
	}
	if !sort.SliceIsSorted(ords, func(i, j int) bool { return ords[i] < ords[j] }) {
		t.Fatalf("run not sorted by ord: %v", ords)
	}
	want := map[int64]int{5: 1, 1: 2, 9: 1, -3: 1, 7: 1}
	for _, v := range got {
		want[v]--
	}
	for v, n := range want {
		if n != 0 {
			t.Fatalf("value %d count off by %d", v, n)
		}
	}
}

// TestRunBytesAreCodecSizes: a run's Bytes is its row-count header plus,
// per row, its ord and what the codec's Size says the row takes.
func TestRunBytesAreCodecSizes(t *testing.T) {
	rows := []record{{}, {Name: "a", N: -1}, {Name: "tile", Vals: make([]float64, 300), N: 1 << 40}}
	for i := 0; i < 2000; i++ {
		rows = append(rows, record{Vals: make([]float64, i%17), N: int64(i * i)})
	}
	ord := func(v record) uint64 { return uint64(v.N) }
	run, err := WriteRunOrdered(t.TempDir(), rows, ord, recordCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer run.Remove()
	want := UvarintSize(uint64(len(rows)))
	for _, v := range rows {
		want += UvarintSize(ord(v)) + recordCodec{}.Size(v)
	}
	if run.Bytes != want {
		t.Fatalf("run holds %d bytes, codec sizes sum to %d", run.Bytes, want)
	}
	if fi, err := os.Stat(run.Path); err != nil || fi.Size() != want {
		t.Fatalf("run file: %v, err %v; want %d bytes", fi, err, want)
	}
}

func TestRunRemove(t *testing.T) {
	run, err := WriteRun(t.TempDir(), []int64{1}, ident, Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	run.Remove()
	if _, err := os.Stat(run.Path); !os.IsNotExist(err) {
		t.Fatal("run file still exists after Remove")
	}
	run.Remove() // second remove must not panic
}

func TestMergeOrdersAcrossRunsAndMemory(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(7))
	var all []int64
	var runs []Run[int64]
	for i := 0; i < 4; i++ {
		var chunk []int64
		for j := 0; j < 100; j++ {
			v := int64(rng.Intn(500))
			chunk = append(chunk, v)
			all = append(all, v)
		}
		run, err := WriteRun(dir, chunk, ident, Int64Codec{})
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run)
	}
	defer RemoveAll(runs)
	mem := []int64{3, 499, 0, 250}
	all = append(all, mem...)

	var got []int64
	if err := Merge(runs, mem, ident, Int64Codec{}, func(v int64) {
		got = append(got, v)
	}); err != nil {
		t.Fatal(err)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	if len(got) != len(all) {
		t.Fatalf("merged %d records, want %d", len(got), len(all))
	}
	for i := range got {
		if got[i] != all[i] {
			t.Fatalf("merge out of order at %d: got %d, want %d", i, got[i], all[i])
		}
	}
}

func TestMergeEmptyInputs(t *testing.T) {
	calls := 0
	if err := Merge(nil, nil, ident, Int64Codec{}, func(int64) { calls++ }); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatalf("emit called %d times on empty merge", calls)
	}
	// A run with zero rows must merge cleanly too.
	run, err := WriteRun(t.TempDir(), nil, ident, Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	defer run.Remove()
	if err := Merge([]Run[int64]{run}, nil, ident, Int64Codec{}, func(int64) { calls++ }); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatal("emit called for empty run")
	}
}

type row struct {
	K   int64
	Src int
}

func rowOrd(r row) uint64 { return uint64(r.K) }

type rowCodec struct{}

func (rowCodec) Encode(w *Writer, r row) {
	w.Varint(r.K)
	w.Varint(int64(r.Src))
}

func (rowCodec) Decode(r *Reader) row { return row{K: r.Varint(), Src: int(r.Varint())} }
func (rowCodec) Size(r row) int64     { return VarintSize(r.K) + VarintSize(int64(r.Src)) }

func TestMergeIsStableAcrossSources(t *testing.T) {
	dir := t.TempDir()
	// Two runs plus memory, all containing key 5; run 0's rows must come
	// before run 1's, which come before memory's.
	r0, err := WriteRun(dir, []row{{5, 0}, {5, 0}}, rowOrd, rowCodec{})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := WriteRun(dir, []row{{5, 1}}, rowOrd, rowCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer RemoveAll([]Run[row]{r0, r1})
	mem := []row{{5, 2}}
	var srcs []int
	if err := Merge([]Run[row]{r0, r1}, mem, rowOrd, rowCodec{}, func(r row) {
		srcs = append(srcs, r.Src)
	}); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 0, 1, 2}
	if len(srcs) != len(want) {
		t.Fatalf("got %v, want %v", srcs, want)
	}
	for i := range want {
		if srcs[i] != want[i] {
			t.Fatalf("tie-break order %v, want %v", srcs, want)
		}
	}
}

func TestMergeTruncatedRunFails(t *testing.T) {
	run, err := WriteRun(t.TempDir(), []int64{1, 2, 3, 4, 5}, ident, Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	defer run.Remove()
	b, err := os.ReadFile(run.Path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(run.Path, b[:len(b)-2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Merge([]Run[int64]{run}, nil, ident, Int64Codec{}, func(int64) {}); err == nil {
		t.Fatal("merge of truncated run did not fail")
	}
	if err := run.Each(Int64Codec{}, func(uint64, int64) {}); err == nil {
		t.Fatal("Each on truncated run did not fail")
	}
}

func TestMergeManyRunsProperty(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		var all []int64
		var runs []Run[int64]
		nRuns := rng.Intn(6)
		for i := 0; i < nRuns; i++ {
			n := rng.Intn(50)
			chunk := make([]int64, n)
			for j := range chunk {
				chunk[j] = int64(rng.Intn(64))
			}
			all = append(all, chunk...)
			run, err := WriteRun(dir, chunk, ident, Int64Codec{})
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, run)
		}
		mem := make([]int64, rng.Intn(30))
		for j := range mem {
			mem[j] = int64(rng.Intn(64))
		}
		all = append(all, mem...)

		var got []int64
		if err := Merge(runs, mem, ident, Int64Codec{}, func(v int64) { got = append(got, v) }); err != nil {
			t.Fatal(err)
		}
		RemoveAll(runs)
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		if len(got) != len(all) {
			t.Fatalf("trial %d: merged %d records, want %d", trial, len(got), len(all))
		}
		for i := range got {
			if got[i] != all[i] {
				t.Fatalf("trial %d: out of order at %d", trial, i)
			}
		}
	}
}
