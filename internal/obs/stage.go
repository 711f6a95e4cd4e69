// The per-stage record: the one row type behind the engine's stage
// table, the stage rows a rank's job reply carries and the cluster-merged
// view.

package obs

import (
	"fmt"
	"time"
)

// Dist is a compact distribution summary of one per-task quantity
// within a stage (nearest-rank percentiles over all samples).
type Dist struct {
	N                  int
	Min, P50, P99, Max int64
	// ArgMax is the task/partition index that produced Max — the
	// suspect to look at when the distribution is lopsided.
	ArgMax int
}

// Skew is the p99/p50 ratio, the stage's headline skew statistic
// (0 when p50 is 0).
func (d Dist) Skew() float64 {
	if d.P50 == 0 {
		return 0
	}
	return float64(d.P99) / float64(d.P50)
}

// StageMetric is the execution record of one completed stage.
// RecordsIn counts the records that reached the stage's sink (after the
// fused narrow-operator chain); RecordsOut counts the records the stage
// emitted across its boundary (shuffle rows written, or results handed
// to the driver).
type StageMetric struct {
	ID            int64
	Name          string
	Start         time.Time
	Wall          time.Duration
	Tasks         int64
	RecordsIn     int64
	RecordsOut    int64
	ShuffledBytes int64
	// Worker names the rank behind this row on distributed snapshots:
	// the owning rank on per-worker rows (WorkerStages), the rank that
	// contributed the slowest task on cluster-merged rows
	// (MergeStageRows). Empty on local runs.
	Worker string
	// TaskDur summarizes per-task wall time in nanoseconds; a p99 far
	// above p50 means one straggler task dominated the stage.
	TaskDur Dist
	// PartRecords summarizes input records per partition, exposing
	// data skew independently of compute skew.
	PartRecords Dist
}

// DefaultSkewThreshold is the task-duration p99/p50 ratio above which a
// stage is flagged as skewed.
const DefaultSkewThreshold = 4.0

// SkewWarning reports a human-readable skew diagnosis when the stage's
// task-duration p99/p50 exceeds threshold (<= 0 uses
// DefaultSkewThreshold). Stages with fewer than two timed tasks cannot
// be skewed and never warn.
func (st StageMetric) SkewWarning(threshold float64) (string, bool) {
	if threshold <= 0 {
		threshold = DefaultSkewThreshold
	}
	if st.TaskDur.N < 2 {
		return "", false
	}
	r := st.TaskDur.Skew()
	if r <= threshold {
		return "", false
	}
	w := fmt.Sprintf("skew: stage %d %s task-duration p99/p50=%.1f (p50=%s p99=%s); suspect partition %d (slowest task, %s)",
		st.ID, st.Name, r,
		time.Duration(st.TaskDur.P50).Round(time.Microsecond),
		time.Duration(st.TaskDur.P99).Round(time.Microsecond),
		st.TaskDur.ArgMax,
		time.Duration(st.TaskDur.Max).Round(time.Microsecond))
	if st.Worker != "" {
		w += fmt.Sprintf(" on worker %s", st.Worker)
	}
	if st.PartRecords.N > 0 && st.PartRecords.Skew() > threshold {
		w += fmt.Sprintf("; hottest partition %d holds %d records (p50=%d)",
			st.PartRecords.ArgMax, st.PartRecords.Max, st.PartRecords.P50)
	}
	return w, true
}
