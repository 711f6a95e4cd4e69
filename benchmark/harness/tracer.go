package harness

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// Span is one benchmark-owned interval around a call into a layer of
// the program. Spans of one op share Op; Parent is the ID of the span
// that caused this one, -1 for the op's root.
type Span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Client  int    `json:"client"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// OpCounters holds the counter differences taken at an op's boundaries.
type OpCounters struct {
	Op       int                `json:"op"`
	Client   int                `json:"client"`
	Counters map[string]float64 `json:"counters"`
}

// Recorder keeps the spans and counters of a traced run in memory; they
// are written out once, when the run ends.
type Recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
	ops   []OpCounters
}

func NewRecorder() *Recorder { return &Recorder{t0: time.Now()} }

// Scope is an open span. A nil *Scope means tracing is off: every
// method is a no-op, so call sites need no branches.
type Scope struct {
	r        *Recorder
	id       int
	op       int
	client   int
	counters map[string]float64
}

func (r *Recorder) open(parent, op, client int, name string) *Scope {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Op: op, Client: client, Name: name, StartNs: now})
	r.mu.Unlock()
	return &Scope{r: r, id: id, op: op, client: client}
}

// Op opens the root span of one op.
func (r *Recorder) Op(client, op int) *Scope {
	if r == nil {
		return nil
	}
	return r.open(-1, op, client, "op")
}

// Start opens a child span.
func (s *Scope) Start(name string) *Scope {
	if s == nil {
		return nil
	}
	return s.r.open(s.id, s.op, s.client, name)
}

// End closes the span; on a root it also files the op's counters.
func (s *Scope) End() {
	if s == nil {
		return
	}
	now := time.Since(s.r.t0).Nanoseconds()
	s.r.mu.Lock()
	s.r.spans[s.id].EndNs = now
	if s.counters != nil {
		s.r.ops = append(s.r.ops, OpCounters{Op: s.op, Client: s.client, Counters: s.counters})
	}
	s.r.mu.Unlock()
}

// Count adds v to the op's counter name. Call it on the op's root.
func (s *Scope) Count(name string, v float64) {
	if s == nil {
		return
	}
	if s.counters == nil {
		s.counters = map[string]float64{}
	}
	s.counters[name] += v
}

// selfTimes returns, per span name, the summed self time in ns: a
// span's duration minus what its children cover. Root spans are listed
// under "op".
func (r *Recorder) selfTimes() map[string]float64 {
	child := make([]int64, len(r.spans))
	for _, sp := range r.spans {
		if sp.Parent >= 0 {
			child[sp.Parent] += sp.EndNs - sp.StartNs
		}
	}
	out := map[string]float64{}
	for _, sp := range r.spans {
		out[sp.Name] += float64(sp.EndNs - sp.StartNs - child[sp.ID])
	}
	return out
}

// rootNs is the summed duration of the op roots.
func (r *Recorder) rootNs() (total float64, ops int) {
	for _, sp := range r.spans {
		if sp.Parent < 0 {
			total += float64(sp.EndNs - sp.StartNs)
			ops++
		}
	}
	return total, ops
}

// counterMean is the mean per op of a counter over the traced ops.
func (r *Recorder) counterMean(name string) float64 {
	if len(r.ops) == 0 {
		return 0
	}
	var t float64
	for _, o := range r.ops {
		t += o.Counters[name]
	}
	return t / float64(len(r.ops))
}

func (r *Recorder) counterValues(name string) []float64 {
	var out []float64
	for _, o := range r.ops {
		if v, ok := o.Counters[name]; ok {
			out = append(out, v)
		}
	}
	return out
}

// WriteFile writes the trace with the run's environment record.
func (r *Recorder) WriteFile(path, workload string, seed int64, env Environment) error {
	doc := struct {
		Workload string       `json:"workload"`
		Seed     int64        `json:"seed"`
		Env      Environment  `json:"env"`
		Spans    []Span       `json:"spans"`
		Ops      []OpCounters `json:"ops"`
	}{workload, seed, env, r.spans, r.ops}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
