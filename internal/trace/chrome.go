// Chrome trace_event exporter. The output loads in chrome://tracing
// and https://ui.perfetto.dev: one complete ("ph":"X") event per span,
// with timestamps in microseconds relative to the earliest span.
//
// Chrome infers nesting on a thread lane from containment, so spans
// are assigned tids greedily: a child whose interval fits after its
// siblings on the parent's lane shares the parent's tid (rendering
// nested under it); overlapping siblings — concurrent stages, parallel
// tasks — spill onto fresh lanes.

package trace

import (
	"encoding/json"
	"io"
	"sort"
	"strings"
	"time"
)

// chromeCat buckets spans into trace categories by name prefix so the
// Perfetto UI can filter spill/merge activity (or kernels) in and out.
func chromeCat(name string) string {
	switch {
	case strings.HasPrefix(name, "spill: "), strings.HasPrefix(name, "merge: "):
		return "spill"
	case strings.HasPrefix(name, "kernel: "):
		return "kernel"
	}
	return "sac"
}

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs since trace start
	Dur  float64        `json:"dur"` // µs
	Pid  int64          `json:"pid"`
	Tid  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChrome emits the recorded spans as Chrome trace_event JSON.
func (t *Tracer) WriteChrome(w io.Writer) error {
	out := chromeTrace{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}
	spans := t.Spans()
	if len(spans) > 0 {
		epoch := spans[0].Start
		var last time.Time
		for _, s := range spans {
			if s.Start.Before(epoch) {
				epoch = s.Start
			}
			if e := s.endTime(); e.After(last) {
				last = e
			}
			if s.Start.After(last) {
				last = s.Start
			}
		}
		// An unfinished span (query aborted mid-flight) is drawn as
		// running to the end of the trace rather than dropped.
		endOf := func(s *Span) time.Time {
			if e := s.endTime(); !e.IsZero() {
				return e
			}
			return last
		}

		children := childIndex(spans)

		tids := make(map[int64]int64, len(spans))
		var nextTid int64
		var assign func(s *Span, tid int64)
		assign = func(s *Span, tid int64) {
			tids[s.ID] = tid
			lanes := []int64{tid}
			ends := []time.Time{s.Start}
			for _, k := range children[s.ID] {
				placed := false
				for li := range lanes {
					if !k.Start.Before(ends[li]) {
						assign(k, lanes[li])
						ends[li] = endOf(k)
						placed = true
						break
					}
				}
				if !placed {
					nextTid++
					lanes = append(lanes, nextTid)
					ends = append(ends, endOf(k))
					assign(k, nextTid)
				}
			}
		}
		for _, root := range children[0] {
			nextTid++
			assign(root, nextTid)
		}

		for _, s := range spans {
			args := map[string]any{"span": s.ID, "parent": s.ParentID}
			for _, a := range s.Attrs() {
				args[a.Key] = a.Value
			}
			ev := chromeEvent{
				Name: s.Name,
				Cat:  chromeCat(s.Name),
				Ph:   "X",
				Ts:   float64(s.Start.Sub(epoch).Nanoseconds()) / 1e3,
				Dur:  float64(endOf(s).Sub(s.Start).Nanoseconds()) / 1e3,
				Pid:  1,
				Tid:  tids[s.ID],
				Args: args,
			}
			out.TraceEvents = append(out.TraceEvents, ev)
		}
		sort.SliceStable(out.TraceEvents, func(i, j int) bool {
			if out.TraceEvents[i].Ts != out.TraceEvents[j].Ts {
				return out.TraceEvents[i].Ts < out.TraceEvents[j].Ts
			}
			return out.TraceEvents[i].Args["span"].(int64) < out.TraceEvents[j].Args["span"].(int64)
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}
