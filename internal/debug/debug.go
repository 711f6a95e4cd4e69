// Package debug provides an opt-in HTTP endpoint for long engine runs:
// the standard net/http/pprof profiles, a Prometheus scrape target
// backed by the process-wide metrics registry, and live JSON snapshots
// of the engine metrics and the per-stage execution table. Nothing
// listens unless a CLI is started with its -debug flag (or Serve is
// called directly), so the engine itself stays network-free.
package debug

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"

	"repro/internal/dataflow"
	"repro/internal/obs"
)

// Source supplies live engine metrics: the one method of core.Backend
// the endpoint calls, so sac hands it whichever backend it runs queries
// on; *dataflow.Context satisfies it too. A nil Source is legal
// (sacworker has no session of its own until a job arrives): the
// registry-backed endpoints still serve, and the snapshot-backed ones
// answer 503.
type Source interface {
	Metrics() dataflow.MetricsSnapshot
}

// memorySnapshot is the /debug/memory document: the budget manager's
// live gauges plus the cumulative spill counters, carved out of the
// full metrics snapshot so a watcher polling for memory pressure does
// not have to parse per-stage tables.
type memorySnapshot struct {
	Budget      int64         `json:"budget"`
	Used        int64         `json:"used"`
	Peak        int64         `json:"peak"`
	Waits       int64         `json:"waits"`
	Overcommits int64         `json:"overcommits"`
	CachedBytes int64         `json:"cached_bytes"`
	Spilled     spillSnapshot `json:"spilled"`
}

type spillSnapshot struct {
	Bytes       int64 `json:"bytes"`
	Records     int64 `json:"records"`
	Files       int64 `json:"files"`
	MergePasses int64 `json:"merge_passes"`
}

// distJSON is a dataflow.Dist with stable lowercase keys, so external
// tooling does not depend on the Go field names.
type distJSON struct {
	N      int   `json:"n"`
	Min    int64 `json:"min"`
	P50    int64 `json:"p50"`
	P99    int64 `json:"p99"`
	Max    int64 `json:"max"`
	ArgMax int   `json:"argmax"`
}

func toDistJSON(d dataflow.Dist) distJSON {
	return distJSON{N: d.N, Min: d.Min, P50: d.P50, P99: d.P99, Max: d.Max, ArgMax: d.ArgMax}
}

// stageJSON is one row of the /debug/stages.json document: the
// per-stage shuffle counters plus both skew histograms. Worker is set
// on cluster snapshots: the owning rank on per-worker rows, the rank
// with the slowest task on merged rows.
type stageJSON struct {
	ID            int64    `json:"id"`
	Name          string   `json:"name"`
	Worker        string   `json:"worker,omitempty"`
	WallNs        int64    `json:"wall_ns"`
	Tasks         int64    `json:"tasks"`
	RecordsIn     int64    `json:"records_in"`
	RecordsOut    int64    `json:"records_out"`
	ShuffledBytes int64    `json:"shuffled_bytes"`
	TaskDurNs     distJSON `json:"task_dur_ns"`
	PartRecords   distJSON `json:"part_records"`
	Skew          float64  `json:"skew"`
	SkewWarning   string   `json:"skew_warning,omitempty"`
}

// stagesDoc is the /debug/stages.json document. On cluster snapshots
// Stages carries the merged view and WorkerStages every rank's own
// rows; locally WorkerStages is absent.
type stagesDoc struct {
	Stages       []stageJSON `json:"stages"`
	WorkerStages []stageJSON `json:"worker_stages,omitempty"`
	Stragglers   []string    `json:"stragglers,omitempty"`
	Totals       struct {
		ShuffledBytes   int64 `json:"shuffled_bytes"`
		ShuffledRecords int64 `json:"shuffled_records"`
	} `json:"totals"`
}

func toStageJSON(st dataflow.StageMetric) stageJSON {
	row := stageJSON{
		ID: st.ID, Name: st.Name, Worker: st.Worker, WallNs: int64(st.Wall),
		Tasks: st.Tasks, RecordsIn: st.RecordsIn, RecordsOut: st.RecordsOut,
		ShuffledBytes: st.ShuffledBytes,
		TaskDurNs:     toDistJSON(st.TaskDur), PartRecords: toDistJSON(st.PartRecords),
		Skew: st.TaskDur.Skew(),
	}
	if w, ok := st.SkewWarning(0); ok {
		row.SkewWarning = w
	}
	return row
}

// StagesJSON builds the machine-readable per-stage document from a
// snapshot; exported so sacbench can embed the same shape in its
// benchmark artifacts.
func StagesJSON(m dataflow.MetricsSnapshot) any {
	var doc stagesDoc
	doc.Stages = make([]stageJSON, 0, len(m.PerStage))
	for _, st := range m.PerStage {
		doc.Stages = append(doc.Stages, toStageJSON(st))
	}
	for _, st := range m.WorkerStages {
		doc.WorkerStages = append(doc.WorkerStages, toStageJSON(st))
	}
	doc.Stragglers = m.StragglerWarnings(0)
	doc.Totals.ShuffledBytes = m.ShuffledBytes
	doc.Totals.ShuffledRecords = m.ShuffledRecords
	return doc
}

// Server is a running debug endpoint.
type Server struct {
	srv *http.Server
	ln  net.Listener
}

// Serve starts the endpoint on addr (for example "localhost:6060";
// ":0" picks a free port — read it back with Addr). src may be nil
// (see Source). Routes:
//
//	/debug/pprof/       the standard pprof index and profiles
//	/debug/metrics      the process-wide instrument registry in
//	                    Prometheus text exposition format
//	/debug/metrics.json the current MetricsSnapshot as JSON
//	/debug/stages       the per-stage execution table as text
//	/debug/stages.json  per-stage counters, Dist histograms and per-worker
//	                    rows (cluster) as JSON
//	/debug/memory       memory budget and spill gauges as JSON
func Serve(addr string, src Source) (*Server, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	// snapshot gates the Source-backed handlers; the Prometheus and
	// pprof routes work regardless.
	snapshot := func(w http.ResponseWriter) (dataflow.MetricsSnapshot, bool) {
		if src == nil {
			http.Error(w, "no metrics source attached", http.StatusServiceUnavailable)
			return dataflow.MetricsSnapshot{}, false
		}
		return src.Metrics(), true
	}
	mux.Handle("/debug/metrics", obs.Default)
	mux.HandleFunc("/debug/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		m, ok := snapshot(w)
		if !ok {
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		if err := enc.Encode(m); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/stages", func(w http.ResponseWriter, r *http.Request) {
		m, ok := snapshot(w)
		if !ok {
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, m.FormatStages())
	})
	mux.HandleFunc("/debug/stages.json", func(w http.ResponseWriter, r *http.Request) {
		m, ok := snapshot(w)
		if !ok {
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		if err := enc.Encode(StagesJSON(m)); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/memory", func(w http.ResponseWriter, r *http.Request) {
		m, ok := snapshot(w)
		if !ok {
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		if err := enc.Encode(memorySnapshot{
			Budget:      m.MemoryBudget,
			Used:        m.MemoryUsed,
			Peak:        m.MemoryPeak,
			Waits:       m.BudgetWaits,
			Overcommits: m.MemoryOvercommits,
			CachedBytes: m.CachedBytes,
			Spilled: spillSnapshot{
				Bytes:       m.SpilledBytes,
				Records:     m.SpilledRecords,
				Files:       m.SpillFiles,
				MergePasses: m.MergePasses,
			},
		}); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprint(w, `<html><body><h1>SAC engine debug</h1><ul>
<li><a href="/debug/metrics">/debug/metrics</a> — Prometheus scrape target (text exposition)</li>
<li><a href="/debug/metrics.json">/debug/metrics.json</a> — live metrics snapshot (JSON)</li>
<li><a href="/debug/stages">/debug/stages</a> — per-stage execution table</li>
<li><a href="/debug/stages.json">/debug/stages.json</a> — per-stage counters, skew histograms, per-worker rows (JSON)</li>
<li><a href="/debug/memory">/debug/memory</a> — memory budget and spill gauges (JSON)</li>
<li><a href="/debug/pprof/">/debug/pprof/</a> — Go profiles</li>
</ul></body></html>`)
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{srv: &http.Server{Handler: mux}, ln: ln}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr reports the listening address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the endpoint down.
func (s *Server) Close() error { return s.srv.Close() }
