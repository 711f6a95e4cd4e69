package spill

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/memory"
)

func TestEncodeDecodeRowsRoundTrip(t *testing.T) {
	f64 := Float64Codec{}
	rows := []float64{0, 1.5, -2.25, 1e300, -1e-300}
	blob, err := EncodeRows(rows, f64)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeRows(blob, f64)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, rows) {
		t.Fatalf("round trip: got %v want %v", got, rows)
	}

	strs := []string{"", "a", "hello world", string(make([]byte, 3000))}
	sblob, err := EncodeRows(strs, StringCodec{})
	if err != nil {
		t.Fatalf("encode strings: %v", err)
	}
	sgot, err := DecodeRows(sblob, StringCodec{})
	if err != nil {
		t.Fatalf("decode strings: %v", err)
	}
	if !reflect.DeepEqual(sgot, strs) {
		t.Fatalf("string round trip mismatch")
	}
}

func TestEncodeDecodeRowsEmpty(t *testing.T) {
	blob, err := EncodeRows(nil, IntCodec{})
	if err != nil {
		t.Fatalf("encode empty: %v", err)
	}
	got, err := DecodeRows(blob, IntCodec{})
	if err != nil {
		t.Fatalf("decode empty: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("want empty, got %v", got)
	}
}

// Truncated or corrupt blobs must error, never panic or over-allocate:
// the decoder's chunked allocation caps what a hostile count can claim.
func TestDecodeRowsTruncated(t *testing.T) {
	blob, err := EncodeRows([]int64{1, 2, 3, 4, 5}, Int64Codec{})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	for cut := 0; cut < len(blob); cut++ {
		if _, err := DecodeRows(blob[:cut], Int64Codec{}); err == nil && cut < len(blob) {
			// A prefix that happens to decode cleanly to fewer rows is
			// impossible here: the count says 5, so any cut must error.
			t.Fatalf("decode of %d/%d bytes succeeded", cut, len(blob))
		}
	}
	// A huge claimed count with no payload must fail fast, not allocate.
	hostile := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}
	if _, err := DecodeRowsHostileCheck(hostile); err == nil {
		t.Fatal("hostile count decoded")
	}
}

// DecodeRowsHostileCheck exists so the test exercises the generic path
// with an attacker-controlled count without exporting test helpers.
func DecodeRowsHostileCheck(blob []byte) ([]int64, error) {
	return DecodeRows(blob, Int64Codec{})
}

func TestWireCodecRegistry(t *testing.T) {
	// wire.go's init must have registered the primitive codecs so the
	// cluster exchange can look codecs up by type; For panics otherwise.
	For[float64]()
	For[int64]()
	For[int]()
	For[string]()
	For[[]float64]()
}

// cell stands in for a tile: a value that recurs by identity when a map
// task replicates it to several cells.
type cell struct{ vals []float64 }

// cellCodec writes a *cell the way the engine's tile codec writes a tile:
// flag 0 for nil, 1 for a cell written whole, 2 and an index for one the
// grouped blob already holds.
type cellCodec struct{}

func (cellCodec) Encode(w *Writer, c *cell) {
	if c == nil {
		w.Uvarint(0)
		return
	}
	if i, seen := w.Ref(c); seen {
		w.Uvarint(2)
		w.Uvarint(i)
		return
	}
	w.Uvarint(1)
	w.F64s(c.vals)
}

func (cellCodec) Decode(r *Reader) *cell {
	switch r.Uvarint() {
	case 0:
		return nil
	case 2:
		c, _ := r.Deref(r.Uvarint()).(*cell)
		if c == nil {
			r.Fail(errors.New("back-reference to something other than a cell"))
		}
		return c
	}
	c := &cell{vals: r.F64s()}
	r.Bind(c)
	return c
}

func (cellCodec) Size(c *cell) int64 {
	if c == nil {
		return 1
	}
	return 1 + F64sSize(len(c.vals))
}

// TestGroupedBlobWritesARepeatOnce: a value that recurs by identity in a
// grouped blob — within a group and across groups — is written whole
// once, and decodes to one pointer wherever it recurred; equal values
// that are distinct pointers stay distinct. EncodeRows of the same rows
// has no table: it writes every occurrence whole, and its decoder refuses
// a back-reference.
func TestGroupedBlobWritesARepeatOnce(t *testing.T) {
	a := &cell{vals: make([]float64, 1000)}
	b := &cell{vals: []float64{1, 2}}
	twin := &cell{vals: []float64{1, 2}}
	groups := [][]*cell{{a, b, a}, nil, {nil, a, twin}}
	blob, err := EncodeGroups(groups, cellCodec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) > 8000+100 {
		t.Fatalf("a %d-byte blob for one 8000-byte cell written thrice", len(blob))
	}
	before := Bound()
	got, err := DecodeGroupsFrom(bytes.NewReader(blob), cellCodec{}, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := Bound() - before; n != 3 {
		t.Fatalf("%d cells bound; a, b and twin crossed whole", n)
	}
	if !reflect.DeepEqual(got, groups) {
		t.Fatalf("grouped round trip: %v, want %v", got, groups)
	}
	if got[0][0] != got[0][2] || got[0][0] != got[2][1] || got[0][1] == got[2][2] {
		t.Fatal("decoded identities differ from the encoded ones")
	}
	if _, err := DecodeGroupsFrom(bytes.NewReader(blob), cellCodec{}, 2, nil); err == nil {
		t.Fatal("a blob of 3 groups decoded as 2")
	}

	flat := append(append([]*cell{}, groups[0]...), groups[2]...)
	rows, err := EncodeRows(flat, cellCodec{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 3*8000 {
		t.Fatalf("EncodeRows wrote %d bytes for three 8000-byte cells", len(rows))
	}
	if back, err := DecodeRows(rows, cellCodec{}); err != nil || !reflect.DeepEqual(back, flat) || back[0] == back[2] {
		t.Fatalf("EncodeRows round trip: %v", err)
	}
	refRow := []byte{1, 2, 0}
	if _, err := DecodeRows(refRow, cellCodec{}); err == nil {
		t.Fatal("DecodeRows accepted a back-reference")
	}
}

// keyedCell is a shuffle row in small: a varint key and a cell.
type keyedCell struct {
	key uint64
	c   *cell
}

type keyedCellCodec struct{}

func (keyedCellCodec) Encode(w *Writer, r keyedCell) {
	w.Uvarint(r.key)
	cellCodec{}.Encode(w, r.c)
}

func (keyedCellCodec) Decode(r *Reader) keyedCell {
	return keyedCell{key: r.Uvarint(), c: cellCodec{}.Decode(r)}
}

func (keyedCellCodec) Size(r keyedCell) int64 { return UvarintSize(r.key) + cellCodec{}.Size(r.c) }

// TestGroupedBlobSizedExactly: a grouped blob is allocated once, at its
// final length — the sizing pass counts a cell the blob repeats as the
// back-reference it is written as — with keys 1 to 10 bytes wide, with
// and without repeats. Drawn from a lease, the blob is the same bytes in
// a buffer of the same exact length; so is EncodeRows' blob.
func TestGroupedBlobSizedExactly(t *testing.T) {
	lease := memory.NewPool(1 << 20).Lease()
	defer lease.Close()
	a, b := &cell{vals: make([]float64, 100)}, &cell{vals: []float64{1, 2, 3}}
	for width := 1; width <= 10; width++ {
		key := uint64(1) << (7 * (width - 1))
		if UvarintSize(key) != int64(width) {
			t.Fatalf("key %d is %d bytes wide, want %d", key, UvarintSize(key), width)
		}
		for name, groups := range map[string][][]keyedCell{
			"distinct": {{{key, a}, {key + 1, b}}, nil, {{key, nil}}},
			"repeats":  {{{key, a}, {key, b}, {key + 1, a}}, {{key, a}, {key, nil}, {key, b}}},
		} {
			blob, err := EncodeGroups(groups, keyedCellCodec{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if cap(blob) != len(blob) {
				t.Errorf("%s, %d-byte keys: a %d-byte blob in a buffer of %d", name, width, len(blob), cap(blob))
			}
			leased, err := EncodeGroups(groups, keyedCellCodec{}, lease)
			if err != nil || !bytes.Equal(leased, blob) || cap(leased) != len(blob) {
				t.Errorf("%s, %d-byte keys: leased blob of %d/%d bytes (%v), want the %d-byte one", name, width, len(leased), cap(leased), err, len(blob))
			}
			rows, err := EncodeRows(groups[0], keyedCellCodec{})
			if err != nil || cap(rows) != len(rows) {
				t.Errorf("%s, %d-byte keys: EncodeRows blob of %d bytes in %d (%v)", name, width, len(rows), cap(rows), err)
			}
		}
	}
}

// FuzzGroupedDecode feeds arbitrary bytes to the grouped decoder, as a
// rank owning two reduce partitions reads a blob: a group count other
// than two, a row count past the payload, and a back-reference forward or
// past what the blob bound must all be errors, never panics. Whatever
// does decode re-encodes to a blob that decodes and re-encodes to the
// same bytes.
func FuzzGroupedDecode(f *testing.F) {
	cellBytes := func(vals ...float64) []byte {
		var w Writer
		w.F64s(vals)
		return w.buf
	}
	one := cellBytes(1.5)
	blob, err := EncodeGroups([][]*cell{{{vals: []float64{1.5}}}, nil}, cellCodec{}, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add([]byte{3, 0, 0, 0})                               // three groups where the rank owns two
	f.Add([]byte{2, 5, 1})                                  // a row count past the payload
	f.Add(append(append([]byte{2, 2, 2, 0, 1}, one...), 0)) // a reference forward to a cell bound later
	f.Add(append(append([]byte{2, 2, 1}, one...), 2, 7, 0)) // a reference past the table
	f.Add(append(append([]byte{2, 1, 1}, one...), 1, 2, 0)) // a reference back across groups
	f.Add([]byte{2, 2, 0, 2, 0, 0})                         // a reference to a nil cell, which binds nothing
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeGroupsFrom(bytes.NewReader(data), cellCodec{}, 2, nil)
		if err != nil {
			return
		}
		again, err := EncodeGroups(got, cellCodec{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeGroupsFrom(bytes.NewReader(again), cellCodec{}, 2, nil)
		if err != nil {
			t.Fatalf("%x decoded, but its re-encoding %x does not: %v", data, again, err)
		}
		// Compared as bytes, not with DeepEqual: a NaN payload is equal
		// to itself only bit for bit, and the bytes pin the sharing too.
		if twice, err := EncodeGroups(back, cellCodec{}, nil); err != nil || !bytes.Equal(twice, again) {
			t.Fatalf("%x re-encodes to %x, then to %x (%v)", data, again, twice, err)
		}
	})
}
