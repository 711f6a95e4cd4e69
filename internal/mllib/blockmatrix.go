// Package mllib re-implements the Spark MLlib linalg.distributed
// BlockMatrix baseline the paper evaluates against (Section 6):
// grid-partitioned dense blocks with add via cogroup and multiply via
// partition-granular block replication (simulateMultiply) followed by
// local products and reduceByKey.
//
// Substitution note: the paper ran MLlib on the pure-JVM Breeze
// implementation (no native BLAS). Breeze's local gemm is a competent
// single-threaded kernel, so the baseline uses the same blocked local
// kernel as the SAC side but pinned to a budget of 1 goroutine
// (linalg.GemmBudget(..., 1)): the comparison in Figure 4.B measures
// the dataflow plans (replication shuffle vs group-by-join), not an
// artificial kernel gap. Partial-product tiles are drawn from the
// context tile pool and the dead reduce operand is returned, mirroring
// the SAC executor.
package mllib

import (
	"fmt"

	"repro/internal/dataflow"
	"repro/internal/linalg"
)

// Coord aliases the engine's block coordinate.
type Coord = dataflow.Coord

// Block is one dense sub-matrix block with its coordinate.
type Block = dataflow.Pair[Coord, *linalg.Dense]

// BlockMatrix mirrors org.apache.spark.mllib.linalg.distributed.BlockMatrix
// with square blocks of size PerBlock.
type BlockMatrix struct {
	Rows, Cols int64
	PerBlock   int
	Blocks     *dataflow.Dataset[Block]
}

// GridPartitioner mirrors MLlib's GridPartitioner: a roughly square
// grid of partitions over the block coordinates.
type GridPartitioner struct {
	RowBlocks, ColBlocks     int64
	RowsPerPart, ColsPerPart int64
	numParts                 int
}

// NewGridPartitioner sizes a grid for the given block grid and a
// suggested number of partitions, like GridPartitioner.apply.
func NewGridPartitioner(rowBlocks, colBlocks int64, suggestedParts int) GridPartitioner {
	if suggestedParts <= 0 {
		suggestedParts = 1
	}
	// Match MLlib: scale the grid so that each dimension gets about
	// sqrt(parts) cells.
	target := int64(1)
	for target*target < int64(suggestedParts) {
		target++
	}
	rpp := ceilDiv(rowBlocks, target)
	cpp := ceilDiv(colBlocks, target)
	g := GridPartitioner{
		RowBlocks: rowBlocks, ColBlocks: colBlocks,
		RowsPerPart: rpp, ColsPerPart: cpp,
	}
	g.numParts = int(ceilDiv(rowBlocks, rpp) * ceilDiv(colBlocks, cpp))
	return g
}

// NumPartitions returns the number of grid cells.
func (g GridPartitioner) NumPartitions() int { return g.numParts }

// Partition maps a block coordinate to its grid cell.
func (g GridPartitioner) Partition(c Coord) int {
	r := c.I / g.RowsPerPart
	cc := c.J / g.ColsPerPart
	nc := ceilDiv(g.ColBlocks, g.ColsPerPart)
	return int(r*nc + cc)
}

func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }

// FromDense partitions a driver-side dense matrix into blocks.
func FromDense(ctx *dataflow.Context, d *linalg.Dense, perBlock int, numPartitions int) *BlockMatrix {
	rows, cols := int64(d.Rows), int64(d.Cols)
	brows := ceilDiv(rows, int64(perBlock))
	bcols := ceilDiv(cols, int64(perBlock))
	var blocks []Block
	for bi := int64(0); bi < brows; bi++ {
		for bj := int64(0); bj < bcols; bj++ {
			blk := linalg.NewDense(perBlock, perBlock)
			for i := 0; i < perBlock; i++ {
				gi := bi*int64(perBlock) + int64(i)
				if gi >= rows {
					break
				}
				for j := 0; j < perBlock; j++ {
					gj := bj*int64(perBlock) + int64(j)
					if gj >= cols {
						break
					}
					blk.Set(i, j, d.At(int(gi), int(gj)))
				}
			}
			blocks = append(blocks, dataflow.KV(Coord{I: bi, J: bj}, blk))
		}
	}
	return &BlockMatrix{Rows: rows, Cols: cols, PerBlock: perBlock,
		Blocks: dataflow.Parallelize(ctx, blocks, numPartitions)}
}

// RandBlockMatrix generates a random block matrix without a driver
// dense copy, mirroring tiled.RandMatrix for benchmark parity.
func RandBlockMatrix(ctx *dataflow.Context, rows, cols int64, perBlock int, numPartitions int, lo, hi float64, seed int64) *BlockMatrix {
	brows := ceilDiv(rows, int64(perBlock))
	bcols := ceilDiv(cols, int64(perBlock))
	coords := make([]Coord, 0, brows*bcols)
	for bi := int64(0); bi < brows; bi++ {
		for bj := int64(0); bj < bcols; bj++ {
			coords = append(coords, Coord{I: bi, J: bj})
		}
	}
	base := dataflow.Parallelize(ctx, coords, numPartitions)
	blocks := dataflow.Map(base, func(c Coord) Block {
		blk := linalg.RandDense(perBlock, perBlock, lo, hi, seed^(c.I*1_000_003+c.J*7_919+1))
		// Zero padding outside logical bounds.
		for i := 0; i < perBlock; i++ {
			for j := 0; j < perBlock; j++ {
				if c.I*int64(perBlock)+int64(i) >= rows || c.J*int64(perBlock)+int64(j) >= cols {
					blk.Set(i, j, 0)
				}
			}
		}
		return dataflow.KV(c, blk)
	})
	return &BlockMatrix{Rows: rows, Cols: cols, PerBlock: perBlock, Blocks: blocks}
}

// BlockRows returns the number of block rows.
func (m *BlockMatrix) BlockRows() int64 { return ceilDiv(m.Rows, int64(m.PerBlock)) }

// BlockCols returns the number of block columns.
func (m *BlockMatrix) BlockCols() int64 { return ceilDiv(m.Cols, int64(m.PerBlock)) }

// ToDense collects the matrix on the driver.
func (m *BlockMatrix) ToDense() *linalg.Dense {
	out := linalg.NewDense(int(m.Rows), int(m.Cols))
	for _, b := range dataflow.Collect(m.Blocks) {
		rowOff := b.Key.I * int64(m.PerBlock)
		colOff := b.Key.J * int64(m.PerBlock)
		for i := 0; i < m.PerBlock; i++ {
			gi := rowOff + int64(i)
			if gi >= m.Rows {
				break
			}
			for j := 0; j < m.PerBlock; j++ {
				gj := colOff + int64(j)
				if gj >= m.Cols {
					break
				}
				out.Set(int(gi), int(gj), b.Value.At(i, j))
			}
		}
	}
	return out
}

// Add mirrors BlockMatrix.add: cogroup the two block sets by
// coordinate and add blocks element-wise (serial kernel).
func (m *BlockMatrix) Add(o *BlockMatrix) *BlockMatrix {
	if m.Rows != o.Rows || m.Cols != o.Cols || m.PerBlock != o.PerBlock {
		panic(fmt.Sprintf("mllib: add shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, o.Rows, o.Cols))
	}
	cg := dataflow.CoGroup(m.Blocks, o.Blocks, m.Blocks.NumPartitions())
	blocks := dataflow.Map(cg, func(g dataflow.Pair[Coord, dataflow.CoGrouped[*linalg.Dense, *linalg.Dense]]) Block {
		var acc *linalg.Dense
		for _, b := range g.Value.Left {
			if acc == nil {
				acc = b.Clone()
			} else {
				linalg.AddInPlace(acc, b)
			}
		}
		for _, b := range g.Value.Right {
			if acc == nil {
				acc = b.Clone()
			} else {
				linalg.AddInPlace(acc, b)
			}
		}
		return dataflow.KV(g.Key, acc)
	})
	return &BlockMatrix{Rows: m.Rows, Cols: m.Cols, PerBlock: m.PerBlock, Blocks: blocks}
}

// Subtract mirrors BlockMatrix.subtract.
func (m *BlockMatrix) Subtract(o *BlockMatrix) *BlockMatrix {
	return m.Add(o.Scale(-1))
}

// Scale multiplies every element by s (narrow map).
func (m *BlockMatrix) Scale(s float64) *BlockMatrix {
	blocks := dataflow.Map(m.Blocks, func(b Block) Block {
		return dataflow.KV(b.Key, linalg.Scale(b.Value, s))
	})
	return &BlockMatrix{Rows: m.Rows, Cols: m.Cols, PerBlock: m.PerBlock, Blocks: blocks}
}

// Transpose mirrors BlockMatrix.transpose.
func (m *BlockMatrix) Transpose() *BlockMatrix {
	blocks := dataflow.Map(m.Blocks, func(b Block) Block {
		return dataflow.KV(Coord{I: b.Key.J, J: b.Key.I}, b.Value.Transpose())
	})
	return &BlockMatrix{Rows: m.Cols, Cols: m.Rows, PerBlock: m.PerBlock, Blocks: blocks}
}

// destinationGrid reproduces BlockMatrix.simulateMultiply: for each
// left block (i,k), the set of result partitions it must reach is the
// grid cells of the output coordinates (i, j) for all j with a right
// block (k,j); symmetrically for right blocks.
//
// Multiply mirrors BlockMatrix.multiply: replicate each block to the
// result partitions that need it (partition-granular, not
// block-granular), cogroup by partition, compute the local products,
// and reduce partial products by output coordinate. A replica is its
// block keyed by the grid partition it is bound for, so it crosses the
// shuffle through the tile codec.
func (m *BlockMatrix) Multiply(o *BlockMatrix) *BlockMatrix {
	if m.Cols != o.Rows || m.PerBlock != o.PerBlock {
		panic("mllib: multiply shape mismatch")
	}
	parts := m.Blocks.NumPartitions()
	grid := NewGridPartitioner(m.BlockRows(), o.BlockCols(), parts)

	// replicate sends block b to every grid partition hosting one of the
	// n output coordinates at(b, x).
	replicate := func(n int64, at func(b Block, x int64) Coord) func(Block) []dataflow.Pair[int64, Block] {
		return func(b Block) []dataflow.Pair[int64, Block] {
			dests := map[int64]bool{}
			for x := int64(0); x < n; x++ {
				dests[int64(grid.Partition(at(b, x)))] = true
			}
			out := make([]dataflow.Pair[int64, Block], 0, len(dests))
			for d := range dests {
				out = append(out, dataflow.KV(d, b))
			}
			return out
		}
	}
	// Left block (i,k) goes to every grid cell hosting outputs (i, *),
	// right block (k,j) to every one hosting outputs (*, j).
	left := dataflow.FlatMap(m.Blocks, replicate(o.BlockCols(), func(b Block, j int64) Coord { return Coord{I: b.Key.I, J: j} }))
	right := dataflow.FlatMap(o.Blocks, replicate(m.BlockRows(), func(b Block, i int64) Coord { return Coord{I: i, J: b.Key.J} }))

	pool := m.Blocks.Context().TilePool()
	cg := dataflow.CoGroup(left, right, grid.NumPartitions())
	products := dataflow.FlatMap(cg, func(g dataflow.Pair[int64, dataflow.CoGrouped[Block, Block]]) []Block {
		// Index right blocks by their row coordinate k.
		byK := map[int64][]Block{}
		for _, r := range g.Value.Right {
			byK[r.Key.I] = append(byK[r.Key.I], r)
		}
		var out []Block
		for _, l := range g.Value.Left {
			for _, r := range byK[l.Key.J] {
				dest := Coord{I: l.Key.I, J: r.Key.J}
				if int64(grid.Partition(dest)) != g.Key {
					continue // this copy is not responsible for dest
				}
				c := pool.Get(m.PerBlock, m.PerBlock)
				// Single-threaded Breeze stand-in: blocked kernel, budget 1.
				linalg.GemmBudget(c, l.Value, r.Value, 1)
				out = append(out, dataflow.KV(dest, c))
			}
		}
		return out
	})
	reduced := dataflow.ReduceByKey(products, func(a, b *linalg.Dense) *linalg.Dense {
		linalg.AddInPlace(a, b)
		pool.Put(b)
		return a
	}, grid.NumPartitions())
	return &BlockMatrix{Rows: m.Rows, Cols: o.Cols, PerBlock: m.PerBlock, Blocks: reduced}
}
