// Telemetry frames: the observability side-channel of the control
// plane. While a job runs, each rank batches its ended trace spans and
// newly completed stage rows and streams them to the driver as
// msgTelemetry frames — periodically from a ticker, and once more with
// Final set immediately before msgJobDone on the same ordered
// connection, so by the time the driver sees the job reply it has the
// rank's complete telemetry. The driver merges the per-rank batches
// into one span tree / Chrome trace and a cluster-wide stage table;
// a rank that dies mid-job leaves its periodic flushes behind, so the
// merged trace still shows what it was doing when it was lost.

package cluster

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// TelemetryBatch is one flush of observability data from a running
// program: the spans that ended since the previous flush, the stage
// rows completed since the previous flush, and the cumulative
// dropped-span count. A rank's counters cross once, in msgJobDone.
type TelemetryBatch struct {
	Final   bool
	Dropped int64
	Spans   []trace.SpanRec
	Stages  []obs.StageMetric
}

type telemetryMsg struct {
	JobID int64
	Seq   int64
	TelemetryBatch
}

func (w *wireBuf) dist(d obs.Dist) {
	w.i64(int64(d.N))
	w.i64(d.Min)
	w.i64(d.P50)
	w.i64(d.P99)
	w.i64(d.Max)
	w.i64(int64(d.ArgMax))
}

func (c *wireCur) dist() obs.Dist {
	return obs.Dist{N: int(c.i64()), Min: c.i64(), P50: c.i64(), P99: c.i64(), Max: c.i64(), ArgMax: int(c.i64())}
}

func (m *telemetryMsg) encode() []byte {
	var w wireBuf
	w.i64(m.JobID)
	w.i64(m.Seq)
	final := int64(0)
	if m.Final {
		final = 1
	}
	w.i64(final)
	w.i64(m.Dropped)
	w.u64(uint64(len(m.Spans)))
	for _, s := range m.Spans {
		w.i64(s.ID)
		w.i64(s.ParentID)
		w.str(s.Name)
		w.i64(s.StartNs)
		w.i64(s.EndNs)
		w.u64(uint64(len(s.Keys)))
		for i := range s.Keys {
			w.str(s.Keys[i])
			w.str(s.Vals[i])
		}
	}
	w.u64(uint64(len(m.Stages)))
	for _, st := range m.Stages {
		var startNs int64
		if !st.Start.IsZero() {
			startNs = st.Start.UnixNano()
		}
		w.i64(st.ID)
		w.str(st.Name)
		w.i64(startNs)
		w.i64(int64(st.Wall))
		w.i64(st.Tasks)
		w.i64(st.RecordsIn)
		w.i64(st.RecordsOut)
		w.i64(st.ShuffledBytes)
		w.str(st.Worker)
		w.dist(st.TaskDur)
		w.dist(st.PartRecords)
	}
	return w.b
}

func decodeTelemetry(p []byte) (telemetryMsg, error) {
	c := wireCur{b: p}
	var m telemetryMsg
	m.JobID = c.i64()
	m.Seq = c.i64()
	m.Final = c.i64() != 0
	m.Dropped = c.i64()
	nspans := c.u64()
	if nspans > maxFrame {
		return m, fmt.Errorf("cluster: telemetry span count %d exceeds limit", nspans)
	}
	m.Spans = make([]trace.SpanRec, 0, min(int(nspans), 1024))
	for i := uint64(0); i < nspans && c.err == nil; i++ {
		s := trace.SpanRec{ID: c.i64(), ParentID: c.i64(), Name: c.str(),
			StartNs: c.i64(), EndNs: c.i64()}
		nattrs := c.u64()
		if nattrs > maxFrame {
			c.fail("telemetry attr count")
			break
		}
		for j := uint64(0); j < nattrs && c.err == nil; j++ {
			s.Keys = append(s.Keys, c.str())
			s.Vals = append(s.Vals, c.str())
		}
		m.Spans = append(m.Spans, s)
	}
	nstages := c.u64()
	if c.err == nil && nstages > maxFrame {
		return m, fmt.Errorf("cluster: telemetry stage count %d exceeds limit", nstages)
	}
	m.Stages = make([]obs.StageMetric, 0, min(int(nstages), 1024))
	for i := uint64(0); i < nstages && c.err == nil; i++ {
		st := obs.StageMetric{ID: c.i64(), Name: c.str()}
		if startNs := c.i64(); startNs != 0 {
			st.Start = time.Unix(0, startNs)
		}
		st.Wall = time.Duration(c.i64())
		st.Tasks, st.RecordsIn, st.RecordsOut, st.ShuffledBytes = c.i64(), c.i64(), c.i64(), c.i64()
		st.Worker, st.TaskDur, st.PartRecords = c.str(), c.dist(), c.dist()
		m.Stages = append(m.Stages, st)
	}
	return m, c.end("telemetry")
}
