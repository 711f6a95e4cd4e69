// Package obs is the engine's metrics registry: named counters,
// gauges, and histograms with atomic hot paths, exported in Prometheus
// text exposition format from the /debug/metrics endpoint of both CLIs.
//
// The registry is process-wide (the Default registry) because the
// quantities it tracks — stages run, bytes shuffled and spilled, wire
// traffic served to peers — are process-level facts: a worker process
// is one scrape target, whatever sessions it runs. Instruments are
// resolved once (package-level vars or a one-time lookup), so the hot
// path is a single atomic add with no map access and no allocation.
//
// The engine's scalar counters are not registered by hand: counters.go
// declares each once, as a field of the counter schema, and derives its
// series (and everything else about it) from that declaration.
//
// Naming follows the Prometheus conventions: sac_<layer>_<what>_<unit>
// with a _total suffix on counters (sac_dataflow_shuffled_bytes_total,
// sac_cluster_wire_fetched_bytes_total, sac_memory_used_bytes).
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. Add is one atomic add;
// the zero value is usable but unregistered — use Registry.Counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d (negative deltas are ignored to keep
// counters monotone).
func (c *Counter) Add(d int64) {
	if c == nil || d <= 0 {
		return
	}
	c.v.Add(d)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value reports the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down (bytes in use, live
// workers).
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge's current value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by d (either sign).
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Value reports the gauge's current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-boundary distribution of observed values.
// Observe is a linear scan over ~16 boundaries plus two atomic adds —
// no allocation, safe from any number of goroutines.
type Histogram struct {
	bounds  []float64 // upper bounds, ascending; +Inf implied
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits of the running sum
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count reports the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reports the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// DefSecondsBuckets covers durations from 100µs to ~100s in roughly
// half-decade steps — wide enough for both tile kernels and whole
// distributed stages.
var DefSecondsBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100,
}

// instrument is one registered metric with its metadata.
type instrument struct {
	name string
	help string
	kind string // "counter", "gauge", "histogram"
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// Registry owns a namespace of instruments. The zero value is not
// usable; use NewRegistry or the package Default.
type Registry struct {
	mu sync.Mutex
	by map[string]*instrument
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{by: make(map[string]*instrument)}
}

// Default is the process-wide registry the engine layers register into
// and the debug endpoints export.
var Default = NewRegistry()

// lookup returns the named instrument, creating it with make when
// absent; it panics when the name is already registered as a different
// kind — that is an init-order bug, not a runtime condition.
func (r *Registry) lookup(name, help, kind string, make func() *instrument) *instrument {
	r.mu.Lock()
	defer r.mu.Unlock()
	if in, ok := r.by[name]; ok {
		if in.kind != kind {
			panic(fmt.Sprintf("obs: %s already registered as a %s, requested as %s", name, in.kind, kind))
		}
		return in
	}
	in := make()
	in.name, in.help, in.kind = name, help, kind
	r.by[name] = in
	return in
}

// Counter returns the named counter, registering it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	in := r.lookup(name, help, "counter", func() *instrument {
		return &instrument{c: &Counter{}}
	})
	return in.c
}

// Gauge returns the named gauge, registering it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	in := r.lookup(name, help, "gauge", func() *instrument {
		return &instrument{g: &Gauge{}}
	})
	return in.g
}

// Histogram returns the named histogram with the given upper bounds
// (ascending; a +Inf bucket is implicit), registering it on first use.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	in := r.lookup(name, help, "histogram", func() *instrument {
		h := &Histogram{bounds: append([]float64(nil), bounds...)}
		h.buckets = make([]atomic.Int64, len(bounds)+1)
		return &instrument{h: h}
	})
	return in.h
}

// WritePrometheus renders every registered instrument in the
// Prometheus text exposition format (version 0.0.4), sorted by name so
// output is stable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	ins := make([]*instrument, 0, len(r.by))
	for _, in := range r.by {
		ins = append(ins, in)
	}
	r.mu.Unlock()
	sort.Slice(ins, func(i, j int) bool { return ins[i].name < ins[j].name })
	var b strings.Builder
	for _, in := range ins {
		if in.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", in.name, strings.ReplaceAll(in.help, "\n", " "))
		}
		switch in.kind {
		case "counter":
			fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", in.name, in.name, in.c.Value())
		case "gauge":
			fmt.Fprintf(&b, "# TYPE %s gauge\n%s %d\n", in.name, in.name, in.g.Value())
		case "histogram":
			fmt.Fprintf(&b, "# TYPE %s histogram\n", in.name)
			var cum int64
			for i, bound := range in.h.bounds {
				cum += in.h.buckets[i].Load()
				fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", in.name, formatFloat(bound), cum)
			}
			cum += in.h.buckets[len(in.h.bounds)].Load()
			fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", in.name, cum)
			fmt.Fprintf(&b, "%s_sum %s\n", in.name, formatFloat(in.h.Sum()))
			fmt.Fprintf(&b, "%s_count %d\n", in.name, in.h.Count())
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// ServeHTTP answers a scrape with WritePrometheus: a process's
// /debug/metrics is its registry, mounted as the handler.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	// WritePrometheus fails only when w does: the scraper hung up, and
	// no status is left to send it.
	_ = r.WritePrometheus(w)
}

// formatFloat renders a float the way Prometheus clients expect:
// shortest representation that round-trips.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
