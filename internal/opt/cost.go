package opt

import (
	"fmt"
	"strings"

	"repro/internal/memory"
	"repro/internal/stats"
)

// This file adds the cost model on top of the structural strategy
// selection in strategy.go: Choose decides which translations are
// *applicable* (the paper's Rules 12-19), ChooseWithStats prices the
// applicable candidates with the internal/stats estimates and records
// the outcome — chosen estimate, rejected alternatives and the SUMMA
// processor grid the group-by-join will run on — in a Decision attached
// to the strategy, which Explain and sac -analyze render. A Decision is
// a pure function of the query, the input statistics and the world: it
// reads no core count or load, so every rank of an SPMD job and the
// driver that plans for them derive the same one.

// StatsProvider supplies the estimation inputs at selection time;
// internal/plan's Catalog implements it over the registered arrays.
type StatsProvider interface {
	// ArrayStats returns size metadata for a registered array name.
	ArrayStats(name string) (stats.TableStats, bool)
	// World is the rank count of the cluster the plan runs on, 0 for a
	// local session. It sizes the group-by-join's processor grid
	// (stats.PickGrid).
	World() int
}

// CostEstimate prices one candidate physical translation.
type CostEstimate struct {
	// Strategy names the candidate: "summa-gbj", "join+reduceByKey",
	// "join+groupByKey", "reduceByKey", "groupByKey".
	Strategy string
	// ShuffleBytes is the estimated volume crossing shuffle boundaries.
	ShuffleBytes int64
	// TempBytes is the estimated intermediate state materialized beyond
	// the inputs and output (the join strategies' partial-product tiles).
	TempBytes int64
	// Reason is empty for the chosen candidate; otherwise why it lost.
	Reason string
}

func (c CostEstimate) render() string {
	s := fmt.Sprintf("%s %s", c.Strategy, memory.FormatBytes(c.ShuffleBytes))
	if c.TempBytes > 0 {
		s += fmt.Sprintf("+%s temp", memory.FormatBytes(c.TempBytes))
	}
	if c.Reason != "" {
		s += " (" + c.Reason + ")"
	}
	return s
}

// Decision records why the optimizer picked the plan it did and the
// processor grid it priced. Attached to cost-ranked strategies; nil when
// no statistics were available.
type Decision struct {
	Chosen   CostEstimate
	Rejected []CostEstimate
	// GridP x GridQ is the SUMMA processor grid a chosen group-by-join
	// runs on — the one tiled.GroupByJoin derives from the same block
	// counts, partition count and world, and the one Chosen.ShuffleBytes
	// prices.
	GridP, GridQ int64
}

// Summary renders the decision as a single bracketed clause appended
// to Explain lines.
func (d *Decision) Summary() string {
	if d == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "cost: %s est %s shuffle", d.Chosen.Strategy, memory.FormatBytes(d.Chosen.ShuffleBytes))
	if d.Chosen.TempBytes > 0 {
		fmt.Fprintf(&b, " +%s temp", memory.FormatBytes(d.Chosen.TempBytes))
	}
	if len(d.Rejected) > 0 {
		parts := make([]string, len(d.Rejected))
		for i, r := range d.Rejected {
			parts[i] = r.render()
		}
		fmt.Fprintf(&b, "; rejected: %s", strings.Join(parts, ", "))
	}
	if d.GridP > 0 && d.GridQ > 0 {
		fmt.Fprintf(&b, "; grid %dx%d", d.GridP, d.GridQ)
	}
	return b.String()
}

// ChooseWithStats selects the physical strategy like Choose, then —
// when a provider supplies input statistics — prices the applicable
// candidates, re-ranks the cost-sensitive choices within the ablation
// flags, and attaches the Decision. Ranking is by Pareto dominance
// over (shuffle bytes, temp bytes) with the paper's structural
// preference order as the tie-break, so a candidate is only displaced
// by one that is at least as good on both axes.
func ChooseWithStats(info *QueryInfo, opts Options, prov StatsProvider) (Strategy, error) {
	s, err := Choose(info, opts)
	if err != nil || prov == nil {
		return s, err
	}
	switch st := s.(type) {
	case *GroupByJoinStrategy:
		st.Decision = decideGroupByJoin(st, opts, prov)
	case *TileAggStrategy:
		st.Decision = decideTileAgg(st, opts, prov)
	}
	return s, nil
}

// oriented is s as the operand op(X) of a product: transposed when
// trans.
func oriented(s stats.TableStats, trans bool) stats.TableStats {
	if trans {
		s.Rows, s.Cols = s.Cols, s.Rows
	}
	return s
}

func decideGroupByJoin(st *GroupByJoinStrategy, opts Options, prov StatsProvider) *Decision {
	sa, okA := prov.ArrayStats(st.GenA.Name)
	sb, okB := prov.ArrayStats(st.GenB.Name)
	if !okA || !okB || sa.Tile <= 0 || sb.Tile <= 0 || sa.Parts <= 0 {
		return nil
	}
	// The estimator prices op(A) (output rows x contracted) times op(B)
	// (contracted x output cols).
	aEff, bEff := oriented(sa, st.TransA), oriented(sb, st.TransB)
	// The cogroup runs at the A input's partition count; the grid
	// follows from it and, on a cluster, from the world.
	gridP, gridQ := stats.PickGrid(aEff.BlockRows(), bEff.BlockCols(), aEff.NumTiles(), bEff.NumTiles(), sa.Parts, prov.World())
	est := stats.EstimateMatmul(aEff, bEff, gridP, gridQ, sa.Parts)
	cands := []CostEstimate{
		{Strategy: "summa-gbj", ShuffleBytes: est.GBJShuffleBytes},
		{Strategy: "join+reduceByKey", ShuffleBytes: est.JoinShuffleBytes, TempBytes: est.JoinTempBytes},
		{Strategy: "join+groupByKey", ShuffleBytes: est.GroupByShuffleBytes, TempBytes: est.JoinTempBytes},
	}
	allowed := []bool{!opts.DisableGBJ, !opts.DisableReduceByKey, true}

	// Preference order is the candidate order; a candidate loses only
	// to an allowed one that dominates it (no worse on both axes).
	best := -1
	for i := range cands {
		if !allowed[i] {
			continue
		}
		dominated := false
		for j := range cands {
			if j != i && allowed[j] && dominates(cands[j], cands[i]) {
				dominated = true
				break
			}
		}
		if !dominated {
			best = i
			break
		}
	}
	if best < 0 {
		best = len(cands) - 1
	}
	st.UseGBJ = best == 0
	if !st.UseGBJ {
		st.UseReduceBy = best == 1
	}

	d := &Decision{Chosen: cands[best]}
	if st.UseGBJ {
		d.GridP, d.GridQ = gridP, gridQ
	}
	for i := range cands {
		if i == best {
			continue
		}
		r := cands[i]
		switch {
		case !allowed[i]:
			r.Reason = "disabled"
		case cands[best].ShuffleBytes > 0:
			r.Reason = fmt.Sprintf("%.1fx shuffle", float64(r.ShuffleBytes)/float64(cands[best].ShuffleBytes))
		}
		d.Rejected = append(d.Rejected, r)
	}
	return d
}

// dominates reports whether a is at least as cheap as b on both cost
// axes and strictly cheaper on one.
func dominates(a, b CostEstimate) bool {
	if a.ShuffleBytes > b.ShuffleBytes || a.TempBytes > b.TempBytes {
		return false
	}
	return a.ShuffleBytes < b.ShuffleBytes || a.TempBytes < b.TempBytes
}

func decideTileAgg(st *TileAggStrategy, opts Options, prov StatsProvider) *Decision {
	sm, ok := prov.ArrayStats(st.Gen.Name)
	if !ok || sm.Tile <= 0 {
		return nil
	}
	if len(st.KeyPos) == 0 {
		// A total: one partial per partition, merged by the action.
		return &Decision{Chosen: CostEstimate{Strategy: "aggregate"}}
	}
	// Grouped output cardinality in blocks: the product of the kept
	// axes' block counts. Partial blocks carry Tile elements per kept
	// axis (a vector block for 1-D group keys) in each accumulator.
	groups := int64(1)
	blockElems := int64(1)
	for _, pos := range st.KeyPos {
		if pos == 0 {
			groups *= sm.BlockRows()
		} else {
			groups *= sm.BlockCols()
		}
		blockElems *= int64(sm.Tile)
	}
	rbk, gbk := stats.EstimateAggregate(sm, groups, sm.Parts, sm.PartialBytes(blockElems, len(st.Aggs)))
	cands := []CostEstimate{
		{Strategy: "reduceByKey", ShuffleBytes: rbk},
		{Strategy: "groupByKey", ShuffleBytes: gbk},
	}
	best := 0
	if opts.DisableReduceByKey || !st.UseReduceBy {
		best = 1
	}
	d := &Decision{Chosen: cands[best]}
	r := cands[1-best]
	if best == 1 {
		r.Reason = "disabled"
	} else if rbk > 0 {
		r.Reason = fmt.Sprintf("%.1fx shuffle", float64(gbk)/float64(rbk))
	}
	d.Rejected = append(d.Rejected, r)
	return d
}
