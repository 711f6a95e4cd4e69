package spill

import (
	"container/heap"
	"fmt"
	"os"
	"sort"
)

// Run is one spill file: records, each stored as a uvarint 64-bit sort
// key ("ord") followed by the codec-encoded payload, after a uvarint
// row-count header. WriteRun orders them by ord for Merge; the engine's
// shuffle segments and caches use WriteRunOrdered and stream a run back
// whole, in written order, with Each. Runs are not a durable format.
type Run[T any] struct {
	Path  string
	Rows  int64
	Bytes int64
}

// WriteRun stably sorts items by ord in place, then writes them as a
// new run file in dir (created with O_TMPFILE-style unique names). The
// caller hands over ownership of items; on return the slice may be
// reused.
func WriteRun[T any](dir string, items []T, ord func(T) uint64, codec Codec[T]) (Run[T], error) {
	sort.SliceStable(items, func(i, j int) bool { return ord(items[i]) < ord(items[j]) })
	return WriteRunOrdered(dir, items, ord, codec)
}

// WriteRunOrdered writes items in their existing order, skipping the
// sort. Cache spills use it: they stream the run back whole with Each
// (never k-way merge it), must preserve element order, and only read
// the items slice — so a slice shared with consumers stays untouched.
func WriteRunOrdered[T any](dir string, items []T, ord func(T) uint64, codec Codec[T]) (Run[T], error) {
	f, err := os.CreateTemp(dir, "spill-*.run")
	if err != nil {
		return Run[T]{}, fmt.Errorf("spill: create run: %w", err)
	}
	w := NewWriter(f)
	w.Uvarint(uint64(len(items)))
	for _, v := range items {
		w.Uvarint(ord(v))
		codec.Encode(w, v)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		os.Remove(f.Name())
		return Run[T]{}, fmt.Errorf("spill: write run: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return Run[T]{}, fmt.Errorf("spill: close run: %w", err)
	}
	return Run[T]{Path: f.Name(), Rows: int64(len(items)), Bytes: w.Count()}, nil
}

// Each streams the run's records in file order, stopping on the first
// decode error.
func (r Run[T]) Each(codec Codec[T], fn func(ord uint64, v T)) error {
	f, err := os.Open(r.Path)
	if err != nil {
		return fmt.Errorf("spill: open run: %w", err)
	}
	defer f.Close()
	rd := NewReader(f)
	n := rd.Uvarint()
	for i := uint64(0); i < n; i++ {
		o := rd.Uvarint()
		v := codec.Decode(rd)
		if rd.Err() != nil {
			break
		}
		fn(o, v)
	}
	if rd.Err() != nil {
		return fmt.Errorf("spill: read run %s: %w", r.Path, rd.Err())
	}
	return nil
}

// Remove deletes the run file. Missing files are not an error (merge
// cleanup may race with context teardown).
func (r Run[T]) Remove() {
	if r.Path != "" {
		os.Remove(r.Path)
	}
}

// RemoveAll deletes every run in the slice.
func RemoveAll[T any](runs []Run[T]) {
	for _, r := range runs {
		r.Remove()
	}
}

// source is one cursor in the k-way merge: either a run file or the
// in-memory tail. idx breaks ord ties so the merge is stable across
// sources (runs in spill order first, then the memory tail).
type source[T any] struct {
	idx int
	ord uint64
	val T

	// file-backed
	f     *os.File
	r     *Reader
	left  int64
	codec Codec[T]

	// memory-backed
	mem    []T
	memPos int
	memOrd func(T) uint64
}

// advance loads the next record into (ord, val); ok=false on
// exhaustion.
func (s *source[T]) advance() (ok bool, err error) {
	if s.r != nil {
		if s.left == 0 {
			return false, nil
		}
		s.left--
		s.ord = s.r.Uvarint()
		s.val = s.codec.Decode(s.r)
		if e := s.r.Err(); e != nil {
			return false, fmt.Errorf("spill: merge read: %w", e)
		}
		return true, nil
	}
	if s.memPos >= len(s.mem) {
		return false, nil
	}
	s.val = s.mem[s.memPos]
	s.ord = s.memOrd(s.val)
	s.memPos++
	return true, nil
}

func (s *source[T]) close() {
	if s.f != nil {
		s.f.Close()
		s.f = nil
	}
}

// mergeHeap is a min-heap on (ord, idx).
type mergeHeap[T any] []*source[T]

func (h mergeHeap[T]) Len() int { return len(h) }
func (h mergeHeap[T]) Less(i, j int) bool {
	if h[i].ord != h[j].ord {
		return h[i].ord < h[j].ord
	}
	return h[i].idx < h[j].idx
}
func (h mergeHeap[T]) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap[T]) Push(x any)   { *h = append(*h, x.(*source[T])) }

func (h *mergeHeap[T]) Pop() any {
	old := *h
	n := len(old)
	s := old[n-1]
	*h = old[:n-1]
	return s
}

func (h mergeHeap[T]) closeAll() {
	for _, s := range h {
		s.close()
	}
}

// merge is the k-way core: streams every record from runs plus the
// in-memory tail (stably sorted here by ord) in ascending (ord, source)
// order. One pass, O(total · log k).
func merge[T any](runs []Run[T], mem []T, ord func(T) uint64, codec Codec[T], emit func(ord uint64, v T)) error {
	sort.SliceStable(mem, func(i, j int) bool { return ord(mem[i]) < ord(mem[j]) })
	h := make(mergeHeap[T], 0, len(runs)+1)
	defer h.closeAll()
	for i, r := range runs {
		f, err := os.Open(r.Path)
		if err != nil {
			return fmt.Errorf("spill: open run: %w", err)
		}
		s := &source[T]{idx: i, f: f, r: NewReader(f), codec: codec}
		s.left = int64(s.r.Uvarint())
		if e := s.r.Err(); e != nil {
			f.Close()
			return fmt.Errorf("spill: run header: %w", e)
		}
		ok, err := s.advance()
		if err != nil {
			f.Close()
			return err
		}
		if !ok {
			f.Close()
			continue
		}
		h = append(h, s)
	}
	if len(mem) > 0 {
		s := &source[T]{idx: len(runs), mem: mem, memOrd: ord}
		if ok, _ := s.advance(); ok {
			h = append(h, s)
		}
	}
	heap.Init(&h)
	for h.Len() > 0 {
		s := h[0]
		emit(s.ord, s.val)
		ok, err := s.advance()
		if err != nil {
			return err
		}
		if ok {
			heap.Fix(&h, 0)
		} else {
			s.close()
			heap.Pop(&h)
		}
	}
	return nil
}

// Merge streams every record from the runs plus the in-memory tail in
// ascending ord order (stable across sources). mem is stably sorted in
// place. Its callers are the benchmark's spill.run_write_mbs and
// spill.merge_mbs layers.
func Merge[T any](runs []Run[T], mem []T, ord func(T) uint64, codec Codec[T], emit func(v T)) error {
	return merge(runs, mem, ord, codec, func(_ uint64, v T) { emit(v) })
}
