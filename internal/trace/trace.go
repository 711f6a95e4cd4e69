// Package trace implements hierarchical query tracing for the SAC
// engine: spans with explicit parent links and attributes, recorded by
// a Tracer and exported either as a human-readable span tree or as
// Chrome trace_event JSON loadable in chrome://tracing and Perfetto.
//
// The span hierarchy mirrors query execution:
//
//	query → phase (plan / execute) → stage → task
//
// with tile kernels (SUMMA / group-by-join multiplies) recording leaf
// spans of their own.
//
// The API is nil-tolerant end to end: a nil *Tracer hands out nil
// *Spans, and every Span method is a no-op on a nil receiver, so
// instrumented code pays only a pointer check when tracing is off.
package trace

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Attr is one key/value attribute attached to a span (plan-node name,
// partition id, record counts, byte counts, ...).
type Attr struct {
	Key   string
	Value any
}

// Span is one timed operation in the query hierarchy. IDs are assigned
// by the Tracer; ParentID 0 marks a root span.
type Span struct {
	tr       *Tracer
	ID       int64
	ParentID int64
	Name     string
	Start    time.Time

	mu    sync.Mutex
	end   time.Time
	attrs []Attr
}

// DefaultSpanLimit is the span-buffer capacity a fresh Tracer starts
// with. Once the buffer is full the oldest span is overwritten and the
// dropped counter advances, so a long-running or high-partition query
// keeps a bounded trace of its most recent activity instead of growing
// without limit.
const DefaultSpanLimit = 1 << 16

// Tracer records spans. All methods are safe for concurrent use, and
// all are no-ops on a nil receiver.
type Tracer struct {
	mu     sync.Mutex
	nextID int64
	// ring holds the retained spans: a ring buffer of capacity limit,
	// with head indexing the oldest entry once full. While len(ring) <
	// limit the buffer is a plain append-slice and head is 0.
	ring    []*Span
	head    int
	limit   int
	dropped int64
	now     func() time.Time
	// auto holds attributes stamped onto every span at Start — a
	// distributed worker sets {"worker": tag} once so every stage, task,
	// and kernel span it records is attributable after traces from
	// several processes are merged.
	auto []Attr
}

// New returns a Tracer that stamps spans with the wall clock.
func New() *Tracer { return NewAt(time.Now) }

// NewAt returns a Tracer with an injected clock, so tests can produce
// deterministic traces.
func NewAt(now func() time.Time) *Tracer {
	return &Tracer{now: now, limit: DefaultSpanLimit}
}

// SetLimit changes the span-buffer capacity (minimum 1); if more spans
// are already retained, the oldest are discarded and counted as
// dropped. Nil-safe.
func (t *Tracer) SetLimit(n int) {
	if t == nil {
		return
	}
	if n < 1 {
		n = 1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.ring) > n {
		ordered := t.orderedLocked()
		drop := len(ordered) - n
		t.dropped += int64(drop)
		t.ring = append(t.ring[:0], ordered[drop:]...)
		t.head = 0
	}
	t.limit = n
}

// Dropped reports how many spans have been discarded by the buffer
// limit so far; nil-safe.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Start opens a span under parent (nil parent makes a root span). On a
// nil Tracer it returns nil, which every Span method tolerates.
func (t *Tracer) Start(parent *Span, name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.nextID++
	s := &Span{tr: t, ID: t.nextID, Name: name, Start: t.now()}
	if parent != nil {
		s.ParentID = parent.ID
	}
	if len(t.auto) > 0 {
		s.attrs = append(s.attrs, t.auto...)
	}
	if t.limit <= 0 {
		t.limit = DefaultSpanLimit
	}
	if len(t.ring) < t.limit {
		t.ring = append(t.ring, s)
	} else {
		t.ring[t.head] = s
		t.head = (t.head + 1) % t.limit
		t.dropped++
	}
	t.mu.Unlock()
	return s
}

// SetAutoAttr registers an attribute stamped onto every subsequently
// started span (replacing an earlier auto-attribute with the same key);
// nil-safe. Cluster workers tag their spans with the worker identity
// this way.
func (t *Tracer) SetAutoAttr(key string, value any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.auto {
		if t.auto[i].Key == key {
			t.auto[i].Value = value
			return
		}
	}
	t.auto = append(t.auto, Attr{Key: key, Value: value})
}

// orderedLocked returns the retained spans oldest-first; caller holds
// t.mu.
func (t *Tracer) orderedLocked() []*Span {
	out := make([]*Span, 0, len(t.ring))
	out = append(out, t.ring[t.head:]...)
	out = append(out, t.ring[:t.head]...)
	return out
}

// Spans returns a snapshot of the retained spans in creation order
// (the oldest may have been dropped by the buffer limit; see Dropped).
func (t *Tracer) Spans() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := t.orderedLocked()
	t.mu.Unlock()
	return out
}

// StartChild opens a child span on the same tracer; nil-safe.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	return s.tr.Start(s, name)
}

// SetAttr attaches an attribute; nil-safe, returns s for chaining.
func (s *Span) SetAttr(key string, value any) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
	return s
}

// End closes the span; nil-safe and idempotent.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = s.tr.now()
	}
	s.mu.Unlock()
}

// Duration reports the span's elapsed time, or 0 if it never ended.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.end.IsZero() {
		return 0
	}
	return s.end.Sub(s.Start)
}

// Attrs returns a copy of the span's attributes in insertion order.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Attr(nil), s.attrs...)
}

func (s *Span) endTime() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.end
}

// childIndex maps parent span ID → children for a span snapshot, each
// list in start order (ties by ID). A span whose parent is absent from
// the snapshot (dropped by the buffer limit, or never shipped from a
// worker) is re-rooted under parent 0 so it still renders instead of
// silently vanishing.
func childIndex(spans []*Span) map[int64][]*Span {
	present := make(map[int64]bool, len(spans))
	for _, s := range spans {
		present[s.ID] = true
	}
	children := make(map[int64][]*Span)
	for _, s := range spans {
		p := s.ParentID
		if p != 0 && !present[p] {
			p = 0
		}
		children[p] = append(children[p], s)
	}
	for _, kids := range children {
		sort.SliceStable(kids, func(i, j int) bool {
			if !kids[i].Start.Equal(kids[j].Start) {
				return kids[i].Start.Before(kids[j].Start)
			}
			return kids[i].ID < kids[j].ID
		})
	}
	return children
}

// attrText is how Tree prints an attribute value: bare when it reads as
// a number, quoted otherwise. It looks only at the value's text, so a
// span replayed from its record, whose values are all strings, prints as
// the live span did.
func attrText(v any) string {
	s := fmt.Sprint(v)
	if _, err := strconv.ParseFloat(s, 64); err == nil {
		return s
	}
	return strconv.Quote(s)
}

// Tree renders the recorded spans as an indented hierarchy with
// durations and attributes — the human-readable exporter. When the
// buffer limit discarded spans, the header says how many.
func (t *Tracer) Tree() string {
	if t == nil {
		return ""
	}
	children := childIndex(t.Spans())
	var b strings.Builder
	if d := t.Dropped(); d > 0 {
		fmt.Fprintf(&b, "[trace: %d span(s) dropped by buffer limit]\n", d)
	}
	var walk func(s *Span, prefix, childPrefix string)
	walk = func(s *Span, prefix, childPrefix string) {
		b.WriteString(prefix)
		b.WriteString(s.Name)
		if d := s.Duration(); d > 0 {
			fmt.Fprintf(&b, " (%s)", d.Round(time.Microsecond))
		} else if s.endTime().IsZero() {
			b.WriteString(" (unfinished)")
		}
		for _, a := range s.Attrs() {
			fmt.Fprintf(&b, " %s=%s", a.Key, attrText(a.Value))
		}
		b.WriteByte('\n')
		kids := children[s.ID]
		for i, k := range kids {
			if i == len(kids)-1 {
				walk(k, childPrefix+"└─ ", childPrefix+"   ")
			} else {
				walk(k, childPrefix+"├─ ", childPrefix+"│  ")
			}
		}
	}
	for _, root := range children[0] {
		walk(root, "", "")
	}
	return b.String()
}
