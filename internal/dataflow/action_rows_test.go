package dataflow

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/trace"
)

// rowSizes are the record counts of the partitions the row tests read:
// uneven, one empty, 18 records in 6 partitions.
var rowSizes = []int{0, 1, 2, 3, 5, 7}

// sizedInput generates rowSizes[p] records into partition p.
func sizedInput(ctx *Context) *Dataset[int64] {
	return Generate(ctx, len(rowSizes), func(p int) []int64 {
		rows := make([]int64, rowSizes[p])
		for i := range rows {
			rows[i] = int64(10*p + i)
		}
		return rows
	})
}

// actionRowCases runs each action over sizedInput; the action's stage is
// the last row its context records.
var actionRowCases = []struct {
	name string
	run  func(*Context)
}{
	{"count", func(c *Context) { Count(sizedInput(c)) }},
	{"reduce", func(c *Context) { Reduce(sizedInput(c), func(a, b int64) int64 { return a + b }) }},
	{"aggregate", func(c *Context) {
		Aggregate(sizedInput(c), int64(0), func(a, v int64) int64 { return a + v }, func(a, b int64) int64 { return a + b })
	}},
	{"collect", func(c *Context) { Collect(sizedInput(c)) }},
	{"collectOwned", func(c *Context) { CollectOwned(sizedInput(c)) }},
}

// rowCounts is what a stage row says about the work, as opposed to its
// timing.
type rowCounts struct {
	Tasks, RecordsIn, RecordsOut int64
	TaskDurN, PartRecordsN       int
}

func countsOf(s StageMetric) rowCounts {
	return rowCounts{s.Tasks, s.RecordsIn, s.RecordsOut, s.TaskDur.N, s.PartRecords.N}
}

func lastRow(ctx *Context) StageMetric {
	rows := ctx.Metrics().PerStage
	return rows[len(rows)-1]
}

// TestActionRowsMatchAcrossWorlds holds every action to one rule: a row
// counts what its process computed, in the task that computed it. So the
// ranks' rows of an action, merged, read what the local row reads, at
// every world — and each local task span carries its partition's input
// count.
func TestActionRowsMatchAcrossWorlds(t *testing.T) {
	for _, tc := range actionRowCases {
		local := NewContext(Config{Parallelism: 2})
		tr := trace.New()
		root := tr.Start(nil, "query")
		local.SetTracer(tr)
		local.SetTraceRoot(root)
		tc.run(local)
		root.End()
		want := lastRow(local)
		local.Close()

		var tasks int
		for _, s := range tr.Spans() {
			if s.Name != "task" {
				continue
			}
			tasks++
			var part, recs any
			for _, a := range s.Attrs() {
				switch a.Key {
				case "partition":
					part = a.Value
				case "records":
					recs = a.Value
				}
			}
			p, _ := part.(int)
			if recs != int64(rowSizes[p]) {
				t.Errorf("%s: task span of partition %v records %v, want %d", tc.name, part, recs, rowSizes[p])
			}
		}
		if int64(tasks) != want.Tasks || want.TaskDur.N != tasks {
			t.Errorf("%s: %d task spans, row %+v", tc.name, tasks, countsOf(want))
		}

		for _, world := range []int{1, 3, 8} {
			rows := RunOnRanks(t, world, func(ctx *Context) StageMetric {
				tc.run(ctx)
				return lastRow(ctx)
			})
			merged := MergeStageRows(rows)
			if len(merged) != 1 {
				t.Fatalf("%s world %d: %d merged rows", tc.name, world, len(merged))
			}
			if got := countsOf(merged[0]); got != countsOf(want) {
				t.Errorf("%s world %d: merged row %+v, local %+v", tc.name, world, got, countsOf(want))
			}
		}
	}
}

// TestRankRowCoversItsTasks checks that a rank's stage row summarizes the
// tasks that rank ran and no others: its task-duration and
// records-per-partition distributions have one sample per task it ran,
// and the latter is exactly the distribution of its partitions' input
// counts — for a shuffle's map side and for an action.
func TestRankRowCoversItsTasks(t *testing.T) {
	for _, world := range []int{3, 8} {
		rows := RunOnRanks(t, world, func(ctx *Context) []StageMetric {
			keyed := Map(sizedInput(ctx), func(v int64) Pair[int64, int64] { return KV(v%4, v) })
			Count(ReduceByKey(keyed, func(a, b int64) int64 { return a + b }, 5))
			return ctx.Metrics().PerStage
		})
		for r, rankRows := range rows {
			for _, s := range rankRows {
				if int64(s.TaskDur.N) != s.Tasks || int64(s.PartRecords.N) != s.Tasks {
					t.Errorf("world %d rank %d %s: Tasks %d, TaskDur.N %d, PartRecords.N %d",
						world, r, s.Name, s.Tasks, s.TaskDur.N, s.PartRecords.N)
				}
				if !strings.HasPrefix(s.Name, "shuffle(") {
					continue
				}
				var parts []int // the map tasks rank r ran: its input partitions
				var recs []int64
				for p := r; p < len(rowSizes); p += world {
					parts = append(parts, p)
					recs = append(recs, int64(rowSizes[p]))
				}
				ran := make([]int64, len(recs))
				for i := range ran {
					ran[i] = 1
				}
				want := summarizeDist(append([]int64(nil), recs...), ran)
				if want.N > 0 {
					want.ArgMax = parts[want.ArgMax] // a row names the partition
				}
				if !reflect.DeepEqual(s.PartRecords, want) {
					t.Errorf("world %d rank %d %s: PartRecords %+v, want %+v (records %v)",
						world, r, s.Name, s.PartRecords, want, recs)
				}
			}
		}
	}
}
