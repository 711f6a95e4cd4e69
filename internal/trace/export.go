// Span export, cross-process merge and replay. A cluster worker exports
// its tracer as SpanRecs at the end of a job and sends them to the driver
// in its job reply, and the driver reassembles every rank's records into
// one Tracer — synthetic per-worker roots keep every rank on its own lane
// in the merged tree and Chrome trace. A query's record (core.Record)
// keeps the same SpanRecs, and Replay turns them back into a Tracer.

package trace

import (
	"fmt"
	"time"
)

// SpanRec is one span flattened for the wire: times as unix
// nanoseconds (EndNs 0 = unfinished) and attributes stringified into
// parallel Keys/Vals slices. IDs are the recording tracer's — unique
// per worker, remapped on merge.
type SpanRec struct {
	ID       int64    `json:"id"`
	ParentID int64    `json:"parent,omitempty"`
	Name     string   `json:"name"`
	StartNs  int64    `json:"start"`
	EndNs    int64    `json:"end,omitempty"`
	Keys     []string `json:"keys,omitempty"`
	Vals     []string `json:"vals,omitempty"`
}

func recOf(s *Span) SpanRec {
	s.mu.Lock()
	rec := SpanRec{
		ID:       s.ID,
		ParentID: s.ParentID,
		Name:     s.Name,
		StartNs:  s.Start.UnixNano(),
	}
	if !s.end.IsZero() {
		rec.EndNs = s.end.UnixNano()
	}
	for _, a := range s.attrs {
		rec.Keys = append(rec.Keys, a.Key)
		rec.Vals = append(rec.Vals, fmt.Sprint(a.Value))
	}
	s.mu.Unlock()
	return rec
}

// Export returns every retained span as a record (oldest first) plus
// the dropped-span count; the buffer is left untouched. Nil-safe.
func (t *Tracer) Export() ([]SpanRec, int64) {
	if t == nil {
		return nil, 0
	}
	spans := t.Spans()
	recs := make([]SpanRec, 0, len(spans))
	for _, s := range spans {
		recs = append(recs, recOf(s))
	}
	return recs, t.Dropped()
}

// WorkerTrace is one worker's contribution to a merged trace: its
// identity tag, the span records it sent (oldest first), and how many
// spans its buffer limit discarded.
type WorkerTrace struct {
	Worker  string
	Dropped int64
	Spans   []SpanRec
}

// Merge reassembles per-worker span records into a single Tracer. Each
// group hangs under a synthetic root span named "worker: <tag>"
// covering the group's full extent, so the merged Tree and Chrome
// trace show one lane per rank; records whose parent never arrived
// (dropped, or cut off by worker loss) re-root under that worker span
// rather than vanishing. Groups are laid out in the order given —
// callers sort by rank for deterministic output. Dropped counts sum
// into the merged tracer's header.
func Merge(groups []WorkerTrace) *Tracer {
	total := 1
	for _, g := range groups {
		total += len(g.Spans) + 1
	}
	t := &Tracer{now: time.Now, limit: total}
	for _, g := range groups {
		t.dropped += g.Dropped
		name := g.Worker
		if name == "" {
			name = "?"
		}
		lo, hi := int64(0), int64(0)
		for _, r := range g.Spans {
			if lo == 0 || r.StartNs < lo {
				lo = r.StartNs
			}
			hi = max(hi, r.StartNs, r.EndNs)
		}
		t.nextID++
		root := &Span{tr: t, ID: t.nextID, Name: "worker: " + name,
			Start: time.Unix(0, lo), end: time.Unix(0, hi)}
		root.attrs = append(root.attrs, Attr{Key: "worker", Value: name})
		if g.Dropped > 0 {
			root.attrs = append(root.attrs, Attr{Key: "dropped", Value: g.Dropped})
		}
		t.ring = append(t.ring, root)
		t.add(g.Spans, root.ID)
	}
	return t
}

// Replay rebuilds the tracer that Export read recs and dropped from,
// so its Tree and Chrome trace render as that tracer's did.
func Replay(recs []SpanRec, dropped int64) *Tracer {
	t := &Tracer{now: time.Now, limit: max(1, len(recs)), dropped: dropped}
	t.add(recs, 0)
	return t
}

// add appends recs as spans under fresh IDs, in order; a record whose
// parent is not among them hangs under root.
func (t *Tracer) add(recs []SpanRec, root int64) {
	idmap := make(map[int64]int64, len(recs))
	for _, r := range recs {
		t.nextID++
		idmap[r.ID] = t.nextID
	}
	for _, r := range recs {
		s := &Span{tr: t, ID: idmap[r.ID], ParentID: root, Name: r.Name,
			Start: time.Unix(0, r.StartNs)}
		if r.EndNs != 0 {
			s.end = time.Unix(0, r.EndNs)
		}
		if pid, ok := idmap[r.ParentID]; ok && r.ParentID != 0 {
			s.ParentID = pid
		}
		s.attrs = make([]Attr, len(r.Keys))
		for i, k := range r.Keys {
			s.attrs[i] = Attr{Key: k, Value: r.Vals[i]}
		}
		t.ring = append(t.ring, s)
	}
}
