// Telemetry pump: the worker-side half of distributed observability.
// While a query runs, the pump periodically ships the rank's newly
// completed stage rows, ended trace spans, and cumulative counters to
// the driver through JobEnv.Telemetry, then sends one Final batch
// right before the program returns. The driver-side half
// (snapshotFrom) folds every rank's rows back into one cluster-wide
// MetricsSnapshot and merged trace.

package jobs

import (
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/trace"
)

// telemetryInterval is the periodic flush cadence.
const telemetryInterval = 500 * time.Millisecond

// telemetryPump streams one rank's observability data to the driver.
type telemetryPump struct {
	sink   func(cluster.TelemetryBatch) error
	traced bool

	mu         sync.Mutex
	sess       *core.Session
	tr         *trace.Tracer
	root       *trace.Span
	sentStages int

	stop chan struct{}
	done chan struct{}
}

func newTelemetryPump(sink func(cluster.TelemetryBatch) error, traced bool) *telemetryPump {
	return &telemetryPump{sink: sink, traced: traced,
		stop: make(chan struct{}), done: make(chan struct{})}
}

// attach wires the pump to the running session and starts the flush
// ticker. When tracing was requested, the session's engine records
// spans into the pump's tracer under a per-rank "query" root; ended
// spans are drained out on each flush so worker memory stays bounded
// on long queries while the driver accumulates the full history.
func (p *telemetryPump) attach(s *core.Session, workerTag, src string) {
	p.sess = s
	if p.traced {
		p.tr = trace.New()
		if workerTag != "" {
			p.tr.SetAutoAttr("worker", workerTag)
		}
		p.root = p.tr.Start(nil, "query")
		p.root.SetAttr("src", src)
		s.Engine().SetTracer(p.tr)
		s.Engine().SetTraceRoot(p.root)
	}
	go p.loop()
}

func (p *telemetryPump) loop() {
	defer close(p.done)
	t := time.NewTicker(telemetryInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			p.flush(false)
		case <-p.stop:
			return
		}
	}
}

// flush ships one batch: the stage rows completed and spans ended
// since the previous flush. Empty periodic batches are skipped; the
// Final batch always goes out so the driver learns the rank finished
// cleanly.
func (p *telemetryPump) flush(final bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	snap := p.sess.Metrics()
	b := cluster.TelemetryBatch{Final: final}
	if rows := snap.PerStage; p.sentStages < len(rows) {
		b.Stages = rows[p.sentStages:]
		p.sentStages = len(rows)
	}
	if p.tr != nil {
		if final && p.root != nil {
			p.sess.Engine().SetTracer(nil)
			p.root.End()
			p.root = nil
		}
		b.Spans = p.tr.DrainEnded()
		if final {
			// Anything still unfinished (a span leaked by a failed
			// query) ships as-is so the driver sees where the rank was.
			rem, _ := p.tr.Export()
			b.Spans = append(b.Spans, rem...)
		}
		b.Dropped = p.tr.Dropped()
	}
	if !final && len(b.Spans) == 0 && len(b.Stages) == 0 {
		return
	}
	// A failed send means the driver hung up; the job itself is about
	// to fail on the same connection, so telemetry loss is the least of
	// the problems.
	_ = p.sink(b)
}

// finish stops the ticker and sends the Final batch. Called (deferred)
// before the program returns, so the batch precedes the job reply on
// the worker's ordered driver connection.
func (p *telemetryPump) finish() {
	close(p.stop)
	<-p.done
	p.flush(true)
}
