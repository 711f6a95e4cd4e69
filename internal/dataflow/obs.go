// Engine-level instruments in the process-wide metrics registry.
// Everything here is recorded at stage granularity (one histogram
// observation per stage or task, a handful of atomic adds at stage
// end), so the per-record hot paths stay untouched and NarrowChain
// allocs/op is identical with the registry enabled or disabled.

package dataflow

import (
	"repro/internal/obs"
)

var (
	obsStages = obs.Default.Counter("sac_dataflow_stages_total",
		"stages executed (shuffle map-sides and actions)")
	obsTasks = obs.Default.Counter("sac_dataflow_tasks_total",
		"tasks completed across all stages")
	obsRecordsIn = obs.Default.Counter("sac_dataflow_records_in_total",
		"records that reached a stage sink after narrow-chain fusion")
	obsShuffledBytes = obs.Default.Counter("sac_dataflow_shuffled_bytes_total",
		"estimated payload bytes written across shuffle boundaries")
	obsStageSeconds = obs.Default.Histogram("sac_dataflow_stage_seconds",
		"stage wall time", obs.DefSecondsBuckets)
	obsTaskSeconds = obs.Default.Histogram("sac_dataflow_task_seconds",
		"per-task wall time", obs.DefSecondsBuckets)
	obsSpilledBytes = obs.Default.Counter("sac_dataflow_spilled_bytes_total",
		"bytes written to spill run files under memory pressure")
	obsSpillFiles = obs.Default.Counter("sac_dataflow_spill_files_total",
		"spill run files created")
	obsMergePasses = obs.Default.Counter("sac_dataflow_merge_passes_total",
		"read-back passes over spilled shuffle partitions")
	obsAdaptiveRebalances = obs.Default.Counter("sac_dataflow_adaptive_rebalances_total",
		"shuffle boundaries rebalanced by the adaptive planner")
	obsAdaptiveMovedRecords = obs.Default.Counter("sac_dataflow_adaptive_moved_records_total",
		"records moved out of hot buckets by adaptive rebalances")
)

// obsRecordStage folds one finished stage into the registry. durs is
// the stage's per-task nanosecond samples (already summarized; order
// is irrelevant here).
func obsRecordStage(sm StageMetric, durs []int64) {
	if !obs.Default.Enabled() {
		return
	}
	obsStages.Inc()
	obsTasks.Add(sm.Tasks)
	obsRecordsIn.Add(sm.RecordsIn)
	obsShuffledBytes.Add(sm.ShuffledBytes)
	obsStageSeconds.Observe(sm.Wall.Seconds())
	for _, ns := range durs {
		obsTaskSeconds.Observe(float64(ns) / 1e9)
	}
}
