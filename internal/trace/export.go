// Wire-friendly span export and cross-process merge. A cluster worker
// exports its tracer as SpanRecs at the end of a job and sends them to
// the driver in its job reply, and the driver reassembles every rank's
// records into one Tracer — synthetic per-worker roots keep every rank
// on its own lane in the merged tree and Chrome trace.

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
	ID       int64
	ParentID int64
	Name     string
	StartNs  int64
	EndNs    int64
	Keys     []string
	Vals     []string
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
// into the merged tracer's header. Attribute values arrive
// stringified, so the merged tree prints every value quoted.
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
			if r.EndNs > hi {
				hi = r.EndNs
			}
			if r.StartNs > hi {
				hi = r.StartNs
			}
		}
		t.nextID++
		root := &Span{tr: t, ID: t.nextID, Name: "worker: " + name,
			Start: time.Unix(0, lo), end: time.Unix(0, hi)}
		root.attrs = append(root.attrs, Attr{Key: "worker", Value: name})
		if g.Dropped > 0 {
			root.attrs = append(root.attrs, Attr{Key: "dropped", Value: g.Dropped})
		}
		t.ring = append(t.ring, root)
		idmap := make(map[int64]int64, len(g.Spans))
		for _, r := range g.Spans {
			t.nextID++
			idmap[r.ID] = t.nextID
		}
		for _, r := range g.Spans {
			s := &Span{tr: t, ID: idmap[r.ID], Name: r.Name,
				Start: time.Unix(0, r.StartNs)}
			if r.EndNs != 0 {
				s.end = time.Unix(0, r.EndNs)
			}
			if pid, ok := idmap[r.ParentID]; ok && r.ParentID != 0 {
				s.ParentID = pid
			} else {
				s.ParentID = root.ID
			}
			for i := range r.Keys {
				s.attrs = append(s.attrs, Attr{Key: r.Keys[i], Value: r.Vals[i]})
			}
			t.ring = append(t.ring, s)
		}
	}
	return t
}
