// Package stats is the estimation layer under cost-based planning: it
// turns input metadata (dimensions, tile size, partition count) into
// the cardinality and shuffle-volume estimates the optimizer ranks
// strategies with, and it picks the physical knobs — reduce-side
// partition counts and the SUMMA processor grid — that the planner
// previously hard-coded. Measured, read off a run's MetricsSnapshot, is
// one plan's observed run profile, which Explain reports and admission
// control reads; it does not feed back into strategy choice.
package stats

import (
	"fmt"
	"time"

	"repro/internal/dataflow"
	"repro/internal/memory"
	"repro/internal/spill"
)

// TableStats is the size metadata of one input array.
type TableStats struct {
	Rows, Cols int64
	Tile       int // tile side N (vectors: block length)
	// Parts is the partition count of the array's tile dataset. It is
	// the cogroup partition count a static group-by-join plan runs with,
	// and therefore what the SUMMA processor grid is derived from.
	Parts int
}

// BlockRows is the number of tile rows.
func (t TableStats) BlockRows() int64 { return ceilDiv(t.Rows, int64(t.Tile)) }

// BlockCols is the number of tile columns.
func (t TableStats) BlockCols() int64 { return ceilDiv(t.Cols, int64(t.Tile)) }

// NumTiles is the tile cardinality of the array.
func (t TableStats) NumTiles() int64 { return t.BlockRows() * t.BlockCols() }

// TileBytes is one tile as the tile codec writes it. Edge tiles are
// padded to full size, so every tile of the array takes this many.
func (t TableStats) TileBytes() int64 { return dataflow.TileSize(t.Tile, t.Tile, t.Tile*t.Tile) }

// keyBytes is one block index written as a key varint: the width of the
// largest. That is exact while every index has the same width — a block
// grid under 64 a side, where each is one byte — and a bound past it.
func (t TableStats) keyBytes() int64 {
	return spill.VarintSize(max(t.BlockRows(), t.BlockCols(), 1) - 1)
}

// TotalBytes is the encoded size of the array's tile rows, each a tile
// keyed by its block coordinate.
func (t TableStats) TotalBytes() int64 { return t.NumTiles() * (t.TileBytes() + 2*t.keyBytes()) }

// PartialBytes is one grouped tile-aggregation partial as its codecs
// write it: a block-index key, a flag, the accumulator count, aggs
// accumulators of elems values each, and an elems-wide touched mask.
func (t TableStats) PartialBytes(elems int64, aggs int) int64 {
	acc := 1 + spill.F64sSize(int(elems))
	return t.keyBytes() + 1 + spill.UvarintSize(uint64(aggs)) + int64(aggs)*acc + spill.BoolsSize(int(elems))
}

func ceilDiv(a, b int64) int64 {
	if b <= 0 {
		return 0
	}
	return (a + b - 1) / b
}

// MatmulEst holds the per-strategy cost estimates for one group-by-join
// shaped query (A[m,k] x B[k,n]): predicted shuffle bytes and bytes of
// intermediate tiles materialized outside the inputs/outputs.
//
// Every byte count is what the codecs write for the rows: a tile
// (TileBytes) plus its key varints (keyBytes each). A group-by-join
// replica carries four — its grid cell, join key and group — a join input
// three — its join key and block coordinate — and a partial-product tile
// two, its output coordinate.
type MatmulEst struct {
	// GBJShuffleBytes is the SUMMA group-by-join volume on a p x q
	// processor grid: every A tile is replicated to q grid columns and
	// every B tile to p grid rows, and nothing else crosses the wire.
	GBJShuffleBytes int64
	// JoinShuffleBytes is the Section 5.3 join+reduceByKey volume: both
	// inputs cross the join shuffle once, then the partial-product
	// tiles cross the reduce shuffle — map-side combining caps them at
	// one tile per (map partition, output coordinate).
	JoinShuffleBytes int64
	// GroupByShuffleBytes is the Rule 13 ablation (groupByKey): every
	// partial-product tile crosses the shuffle uncombined.
	GroupByShuffleBytes int64
	// JoinTempBytes is the partial-product tiles the join strategies
	// materialize before reducing; the GBJ accumulates in place and
	// materializes nothing extra.
	JoinTempBytes int64
}

// EstimateMatmul prices the strategies for A x B given the inputs,
// a p x q SUMMA grid (0 means the full output-tile grid), and the
// map-side parallelism (input partition count) that bounds the
// combiner's effectiveness.
func EstimateMatmul(a, b TableStats, gridP, gridQ int64, mapParts int) MatmulEst {
	brA, bcB := a.BlockRows(), b.BlockCols()
	bk := a.BlockCols() // contracted block count
	if gridP <= 0 || gridP > brA {
		gridP = brA
	}
	if gridQ <= 0 || gridQ > bcB {
		gridQ = bcB
	}
	partials := brA * bcB * bk
	// Map-side combine folds partials per (map partition, out coord):
	// at most min(partials, mapParts * brA * bcB) tiles survive.
	combined := int64(mapParts) * brA * bcB
	if combined > partials || mapParts <= 0 {
		combined = partials
	}
	tb, kb := max(a.TileBytes(), b.TileBytes()), max(a.keyBytes(), b.keyBytes())
	inputs := (a.NumTiles() + b.NumTiles()) * (tb + 3*kb)
	return MatmulEst{
		GBJShuffleBytes:     (a.NumTiles()*gridQ + b.NumTiles()*gridP) * (tb + 4*kb),
		JoinShuffleBytes:    inputs + combined*(tb+2*kb),
		GroupByShuffleBytes: inputs + partials*(tb+2*kb),
		JoinTempBytes:       partials * (tb + 2*kb),
	}
}

// EstimateAggregate prices a grouped single-input aggregation
// (Section 5.3, row/col sums): reduceByKey shuffles one partial block
// per (map partition, group block), groupByKey one per input tile.
func EstimateAggregate(m TableStats, groups int64, mapParts int, blockBytes int64) (rbkBytes, gbkBytes int64) {
	partials := m.NumTiles() // one partial block per tile
	combined := int64(mapParts) * groups
	if combined > partials || mapParts <= 0 {
		combined = partials
	}
	return combined * blockBytes, partials * blockBytes
}

// PickGrid chooses the SUMMA processor grid for a group-by-join whose
// output has groupsY x groupsX tile groups: the p x q grid (p over
// output tile rows, q over output tile columns) minimizing the
// replication volume tilesA*q + tilesB*p subject to p*q >= cells (every
// cell target gets a cell), p <= groupsY, q <= groupsX; ties go to the
// grid with fewer cells. When the output grid has no more tiles than
// there are cell targets the full grid is returned — one output tile per
// cell, the most parallelism the operator has.
//
// The cell targets are the cogroup's parts partitions, or on a cluster
// of world ranks (world > 0) min(parts, world) of them: the paper's
// SUMMA runs one cell per processor (§5.4), so cell c lands on partition
// c, which is rank c, and each rank owns one contiguous block of the
// output. A local session passes world 0 and gets one cell per
// partition.
//
// The grid is a pure function of block counts, the partition count and
// the world: it never reads core counts or load, so every rank of an
// SPMD job derives the identical grid, and so does a driver that plans
// for them.
func PickGrid(groupsY, groupsX, tilesA, tilesB int64, parts, world int) (p, q int64) {
	cells := int64(max(parts, 1))
	if world > 0 {
		cells = min(cells, int64(world))
	}
	if groupsY < 1 {
		groupsY = 1
	}
	if groupsX < 1 {
		groupsX = 1
	}
	if groupsY*groupsX <= cells {
		return groupsY, groupsX
	}
	bestP, bestQ := groupsY, groupsX
	bestCost := tilesA*groupsX + tilesB*groupsY
	for cp := int64(1); cp <= groupsY; cp++ {
		cq := ceilDiv(cells, cp)
		if cq > groupsX {
			continue
		}
		cost := tilesA*cq + tilesB*cp
		if cost < bestCost || (cost == bestCost && cp*cq < bestP*bestQ) {
			bestP, bestQ, bestCost = cp, cq, cost
		}
	}
	return bestP, bestQ
}

// Measured is the observed execution profile of one compiled plan,
// accumulated over its runs (plan.Compiled.NoteObserved).
type Measured struct {
	Runs          int64
	WallNs        int64 // most recent run
	ShuffledBytes int64 // most recent run
	// MaxSkew is the worst per-stage task-duration p99/p50 observed.
	MaxSkew float64
}

// String renders the profile compactly for Explain annotations.
func (m Measured) String() string {
	s := fmt.Sprintf("observed %d run(s), %v wall, %s shuffled",
		m.Runs, time.Duration(m.WallNs).Round(time.Millisecond), memory.FormatBytes(m.ShuffledBytes))
	if m.MaxSkew > 0 {
		s += fmt.Sprintf(", task skew %.1fx", m.MaxSkew)
	}
	return s
}

// FromSnapshot extracts one run's profile from a metrics diff
// (typically MetricsSnapshot.Sub around one query execution).
func FromSnapshot(s dataflow.MetricsSnapshot, wallNs int64) Measured {
	m := Measured{WallNs: wallNs, ShuffledBytes: s.ShuffledBytes}
	for _, st := range s.PerStage {
		m.MaxSkew = max(m.MaxSkew, st.TaskDur.Skew())
	}
	return m
}
