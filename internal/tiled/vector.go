package tiled

import (
	"repro/internal/dataflow"
	"repro/internal/linalg"
)

// VBlock is one vector block: a block coordinate and N values.
type VBlock = dataflow.Pair[int64, *linalg.Vector]

// Vector is a distributed block vector
// RDD[(Long, Array[T])] with blocks of size N.
type Vector struct {
	Size   int64
	N      int
	Blocks *dataflow.Dataset[VBlock]
}

// NumBlocks returns the number of blocks.
func (v *Vector) NumBlocks() int64 { return ceilDiv(v.Size, int64(v.N)) }

// VectorFromDense partitions a driver-side vector into blocks.
func VectorFromDense(ctx *dataflow.Context, d *linalg.Vector, n int, numPartitions int) *Vector {
	size := int64(d.Len())
	nb := ceilDiv(size, int64(n))
	blocks := make([]VBlock, 0, nb)
	for b := int64(0); b < nb; b++ {
		blk := linalg.NewVector(n)
		for i := 0; i < n; i++ {
			gi := b*int64(n) + int64(i)
			if gi >= size {
				break
			}
			blk.Set(i, d.At(int(gi)))
		}
		blocks = append(blocks, dataflow.KV(b, blk))
	}
	return &Vector{Size: size, N: n, Blocks: dataflow.Parallelize(ctx, blocks, numPartitions)}
}

// BuildVector is Build's one-dimensional sibling: it groups
// (index, value) elements by block index i/N and assembles dense blocks,
// zero-filling the blocks no element reached.
func BuildVector(size int64, n int, elems *dataflow.Dataset[dataflow.Pair[int64, float64]], numPartitions int) *Vector {
	keyed := dataflow.Map(elems, func(e dataflow.Pair[int64, float64]) dataflow.Pair[int64, dataflow.Pair[int64, float64]] {
		return dataflow.KV(e.Key/int64(n), e)
	})
	grouped := dataflow.GroupByKey(keyed, numPartitions)
	blocks := dataflow.Map(grouped, func(g dataflow.Pair[int64, []dataflow.Pair[int64, float64]]) VBlock {
		blk := linalg.NewVector(n)
		for _, e := range g.Value {
			blk.Set(int(e.Key-g.Key*int64(n)), e.Value)
		}
		return dataflow.KV(g.Key, blk)
	})
	return (&Vector{Size: size, N: n, Blocks: blocks}).fillMissingBlocks()
}

// ToDense collects the blocks into one driver-side vector.
func (v *Vector) ToDense() *linalg.Vector {
	out := linalg.NewVector(int(v.Size))
	for _, b := range dataflow.Collect(v.Blocks) {
		off := b.Key * int64(v.N)
		for i := 0; i < v.N; i++ {
			gi := off + int64(i)
			if gi >= v.Size {
				break
			}
			out.Set(int(gi), b.Value.At(i))
		}
	}
	return out
}

// Scale returns s * v (narrow).
func (v *Vector) Scale(s float64) *Vector {
	blocks := dataflow.Map(v.Blocks, func(b VBlock) VBlock {
		return dataflow.KV(b.Key, b.Value.Clone().ScaleInPlace(s))
	})
	return &Vector{Size: v.Size, N: v.N, Blocks: blocks}
}

// AddScalar adds c to every in-bounds element (padding cells of the
// last block stay zero).
func (v *Vector) AddScalar(c float64) *Vector {
	size, n := v.Size, v.N
	blocks := dataflow.Map(v.Blocks, func(b VBlock) VBlock {
		out := b.Value.Clone()
		off := b.Key * int64(n)
		for i := 0; i < n; i++ {
			if off+int64(i) >= size {
				break
			}
			out.Data[i] += c
		}
		return dataflow.KV(b.Key, out)
	})
	return &Vector{Size: size, N: n, Blocks: blocks}
}

// MaxAbsDiff returns the largest element-wise |v - w|, used for
// convergence checks.
func (v *Vector) MaxAbsDiff(w *Vector) float64 {
	if v.Size != w.Size || v.N != w.N {
		panic("tiled: MaxAbsDiff shape mismatch")
	}
	j := dataflow.Join(v.Blocks, w.Blocks, v.Blocks.NumPartitions())
	diffs := dataflow.Map(j, func(p dataflow.Pair[int64, dataflow.JoinedPair[*linalg.Vector, *linalg.Vector]]) float64 {
		var d float64
		for i, a := range p.Value.Left.Data {
			x := a - p.Value.Right.Data[i]
			if x < 0 {
				x = -x
			}
			if x > d {
				d = x
			}
		}
		return d
	})
	return dataflow.Aggregate(diffs, 0.0,
		func(a, x float64) float64 { return maxF2(a, x) },
		func(a, b float64) float64 { return maxF2(a, b) })
}

func maxF2(a, b float64) float64 {
	if a >= b {
		return a
	}
	return b
}
