// Package tiled implements distributed block arrays (Section 5 of the
// paper): matrices and vectors partitioned into fixed-size dense tiles
// held in a dataflow Dataset. A tiled matrix is the Scala class
//
//	case class Tiled[T](rows: Long, cols: Long,
//	                    tiles: RDD[((Long,Long), Array[T])])
//
// with square N x N tiles. The package provides the tile sparsifier and
// builder, the tiling-preserving operators (Rule 17), the reduceByKey
// translation for group-by queries (Section 5.3), and the SUMMA-style
// group-by-join (Section 5.4) — the last two as the two plans of one
// Product, oriented by two flags. The planner (internal/plan) compiles
// every other shape from SAC, including Rule 19 replication.
package tiled

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/dataflow"
	"repro/internal/linalg"
	"repro/internal/obs"
)

// Coord is a tile coordinate.
type Coord = dataflow.Coord

// Block is one tile: coordinates plus an N x N dense chunk. Edge tiles
// are zero-padded to the full tile size, as the paper fixes all tiles
// to N*N.
type Block = dataflow.Pair[Coord, *linalg.Dense]

// Entry is one coordinate-format element ((i,j), v) of the abstract
// (sparsified) view of a matrix.
type Entry struct {
	I, J int64
	V    float64
}

// Matrix is a distributed tiled matrix.
type Matrix struct {
	Rows, Cols int64
	N          int // tile size
	Tiles      *dataflow.Dataset[Block]
}

// BlockRows returns the number of tile rows.
func (m *Matrix) BlockRows() int64 { return ceilDiv(m.Rows, int64(m.N)) }

// BlockCols returns the number of tile columns.
func (m *Matrix) BlockCols() int64 { return ceilDiv(m.Cols, int64(m.N)) }

func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }

// checkCompatible panics unless both operands share shape and tiling.
func (m *Matrix) checkCompatible(o *Matrix) {
	if m.Rows != o.Rows || m.Cols != o.Cols || m.N != o.N {
		panic(fmt.Sprintf("tiled: incompatible matrices %dx%d/%d vs %dx%d/%d",
			m.Rows, m.Cols, m.N, o.Rows, o.Cols, o.N))
	}
}

// FromDense partitions a driver-side dense matrix into tiles
// distributed over numPartitions partitions.
func FromDense(ctx *dataflow.Context, d *linalg.Dense, n int, numPartitions int) *Matrix {
	rows, cols := int64(d.Rows), int64(d.Cols)
	brows, bcols := ceilDiv(rows, int64(n)), ceilDiv(cols, int64(n))
	var blocks []Block
	for bi := int64(0); bi < brows; bi++ {
		for bj := int64(0); bj < bcols; bj++ {
			tile := linalg.NewDense(n, n)
			for i := 0; i < n; i++ {
				gi := bi*int64(n) + int64(i)
				if gi >= rows {
					break
				}
				for j := 0; j < n; j++ {
					gj := bj*int64(n) + int64(j)
					if gj >= cols {
						break
					}
					tile.Set(i, j, d.At(int(gi), int(gj)))
				}
			}
			blocks = append(blocks, dataflow.KV(Coord{I: bi, J: bj}, tile))
		}
	}
	return &Matrix{
		Rows: rows, Cols: cols, N: n,
		Tiles: dataflow.Parallelize(ctx, blocks, numPartitions),
	}
}

// Generate builds a tiled matrix without materializing it on the
// driver: gen is called per tile with the tile's coordinates and the
// global offsets of its top-left element and must fill the tile in
// place. Tiles are distributed round-robin over partitions.
func Generate(ctx *dataflow.Context, rows, cols int64, n int, numPartitions int,
	gen func(c Coord, rowOff, colOff int64, tile *linalg.Dense)) *Matrix {
	brows, bcols := ceilDiv(rows, int64(n)), ceilDiv(cols, int64(n))
	coords := make([]Coord, 0, brows*bcols)
	for bi := int64(0); bi < brows; bi++ {
		for bj := int64(0); bj < bcols; bj++ {
			coords = append(coords, Coord{I: bi, J: bj})
		}
	}
	base := dataflow.Parallelize(ctx, coords, numPartitions)
	tiles := dataflow.Map(base, func(c Coord) Block {
		tile := linalg.NewDense(n, n)
		gen(c, c.I*int64(n), c.J*int64(n), tile)
		clampTile(tile, rows, cols, c, n)
		return dataflow.KV(c, tile)
	})
	return &Matrix{Rows: rows, Cols: cols, N: n, Tiles: tiles}
}

// clampTile zeroes padding cells of edge tiles so generators cannot
// leak values outside the logical bounds.
func clampTile(tile *linalg.Dense, rows, cols int64, c Coord, n int) {
	maxI := rows - c.I*int64(n)
	maxJ := cols - c.J*int64(n)
	if maxI >= int64(n) && maxJ >= int64(n) {
		return
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if int64(i) >= maxI || int64(j) >= maxJ {
				tile.Set(i, j, 0)
			}
		}
	}
}

// ToDense collects the matrix onto the driver as a dense matrix.
func (m *Matrix) ToDense() *linalg.Dense {
	out := linalg.NewDense(int(m.Rows), int(m.Cols))
	for _, b := range dataflow.Collect(m.Tiles) {
		rowOff := b.Key.I * int64(m.N)
		colOff := b.Key.J * int64(m.N)
		for i := 0; i < m.N; i++ {
			gi := rowOff + int64(i)
			if gi >= m.Rows {
				break
			}
			for j := 0; j < m.N; j++ {
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

// Sparsify is the distributed tile sparsifier of Section 5: it
// presents the tiled matrix as a dataset of coordinate entries
// [ ((ii*N+i, jj*N+j), a(i*N+j)) | ((ii,jj),a) <- tiles, i, j ],
// restricted to in-bounds elements.
func (m *Matrix) Sparsify() *dataflow.Dataset[Entry] {
	n, rows, cols := m.N, m.Rows, m.Cols
	// Push-native expansion: entries stream straight into the consuming
	// sink with no per-tile entry slice.
	return dataflow.FlatMapEmit(m.Tiles, func(b Block, emit func(Entry)) {
		rowOff := b.Key.I * int64(n)
		colOff := b.Key.J * int64(n)
		for i := 0; i < n; i++ {
			gi := rowOff + int64(i)
			if gi >= rows {
				break
			}
			for j := 0; j < n; j++ {
				gj := colOff + int64(j)
				if gj >= cols {
					break
				}
				emit(Entry{I: gi, J: gj, V: b.Value.At(i, j)})
			}
		}
	})
}

// Build is the tiled builder of Section 5: it groups coordinate
// entries by tile coordinate (i/N, j/N) and assembles dense tiles.
// Entries mapping to the same cell overwrite nondeterministically, as
// with the paper's builder; callers aggregate beforehand if needed.
// Missing tiles are zero-filled so the result is a dense tiled matrix.
func Build(ctx *dataflow.Context, rows, cols int64, n int,
	entries *dataflow.Dataset[Entry], numPartitions int) *Matrix {
	keyed := dataflow.Map(entries, func(e Entry) dataflow.Pair[Coord, Entry] {
		return dataflow.KV(Coord{I: e.I / int64(n), J: e.J / int64(n)}, e)
	})
	grouped := dataflow.GroupByKey(keyed, numPartitions)
	built := dataflow.Map(grouped, func(g dataflow.Pair[Coord, []Entry]) Block {
		tile := linalg.NewDense(n, n)
		rowOff := g.Key.I * int64(n)
		colOff := g.Key.J * int64(n)
		for _, e := range g.Value {
			tile.Set(int(e.I-rowOff), int(e.J-colOff), e.V)
		}
		return dataflow.KV(g.Key, tile)
	})
	return (&Matrix{Rows: rows, Cols: cols, N: n, Tiles: built}).fillMissing(ctx)
}

// fillMissing adds zero tiles for coordinates absent from Tiles.
func (m *Matrix) fillMissing(ctx *dataflow.Context) *Matrix {
	present := map[Coord]bool{}
	blocks := dataflow.Collect(m.Tiles)
	for _, b := range blocks {
		present[b.Key] = true
	}
	var missing []Block
	for bi := int64(0); bi < m.BlockRows(); bi++ {
		for bj := int64(0); bj < m.BlockCols(); bj++ {
			c := Coord{I: bi, J: bj}
			if !present[c] {
				missing = append(missing, dataflow.KV(c, linalg.NewDense(m.N, m.N)))
			}
		}
	}
	if len(missing) == 0 {
		return m
	}
	all := append(blocks, missing...)
	return &Matrix{Rows: m.Rows, Cols: m.Cols, N: m.N,
		Tiles: dataflow.Parallelize(ctx, all, m.Tiles.NumPartitions())}
}

// Persist caches the tile dataset.
func (m *Matrix) Persist() *Matrix {
	m.Tiles.Persist()
	return m
}

// Unpersist drops the tile cache, releasing its bytes from the engine's
// cached-bytes gauge; the matrix stays computable from lineage.
// Iterative workloads unpersist superseded iterates so old tiles do not
// pin memory.
func (m *Matrix) Unpersist() *Matrix {
	m.Tiles.Unpersist()
	return m
}

// Recycle hands a persisted matrix's tiles back to the context's tile
// pool and drops the cache: the cached blocks are collected (a cache
// hit, no recompute), the cache is released, and each tile is returned
// for reuse. Iterative workloads call it on superseded iterates so the
// next iteration's kernels allocate nothing.
//
// Ownership: the caller must be done with the matrix — after Recycle
// its tiles may be zeroed and rewritten by any kernel on the same
// context. Only call it when this matrix exclusively owns its tiles
// (results of multiply/GBJ kernels do; views sharing tiles with
// another live matrix do not). Unpersisted matrices just drop through
// to Unpersist, since their tiles were never materialized here.
func (m *Matrix) Recycle() {
	pool := m.Tiles.Context().TilePool()
	if !m.Tiles.IsPersisted() {
		m.Tiles.Unpersist()
		return
	}
	blocks := dataflow.Collect(m.Tiles) // served from the cache
	m.Tiles.Unpersist()
	for _, b := range blocks {
		pool.Put(b.Value)
	}
}

// Drain forces the matrix (one action over its tiles) and immediately
// recycles the result tiles into the context's tile pool. Benchmarks
// and iterative drivers use it to evaluate a throwaway result without
// leaking one tile allocation per output coordinate. The same
// ownership caveat as Recycle applies; persisted matrices only count
// their tiles, since the cache keeps them live.
func (m *Matrix) Drain() int64 {
	if m.Tiles.IsPersisted() {
		return dataflow.Count(m.Tiles)
	}
	pool := m.Tiles.Context().TilePool()
	blocks := dataflow.Collect(m.Tiles)
	for _, b := range blocks {
		pool.Put(b.Value)
	}
	return int64(len(blocks))
}

// RandMatrix generates a tiled matrix with uniform random values in
// [lo, hi), deterministically from seed, without materializing the
// matrix on the driver (each tile derives its own PRNG stream).
func RandMatrix(ctx *dataflow.Context, rows, cols int64, n int, numPartitions int, lo, hi float64, seed int64) *Matrix {
	return Generate(ctx, rows, cols, n, numPartitions, func(c Coord, _, _ int64, tile *linalg.Dense) {
		copy(tile.Data, randTile(c, n, lo, hi, seed).Data)
	})
}

// randTile is tile c of a RandMatrix before clamping: its own PRNG stream.
func randTile(c Coord, n int, lo, hi float64, seed int64) *linalg.Dense {
	return linalg.RandDense(n, n, lo, hi, seed^(c.I*1_000_003+c.J*7_919+1))
}

// RandSpec names the matrix RandMatrix(ctx, Rows, Cols, N, Parts, Lo, Hi,
// Seed) builds on a context whose default partition count is not needed
// (Parts > 0): everything its tiles are a function of. Two equal specs
// are the same data, partition for partition, which is what lets a
// process keep a partition and hand it to a later context.
type RandSpec struct {
	Rows, Cols int64
	N, Parts   int
	Lo, Hi     float64
	Seed       int64
}

// NumPartitions is the partition count RandMatrix ends up with: Parts,
// or one partition per tile when there are fewer tiles than that.
func (s RandSpec) NumPartitions() int {
	return max(1, min(s.Parts, int(ceilDiv(s.Rows, int64(s.N))*ceilDiv(s.Cols, int64(s.N)))))
}

// Partition materialises partition p: the tiles RandMatrix's partition p
// streams, in its order (dataflow.Parallelize's contiguous split of the
// row-major tile coordinates).
func (s RandSpec) Partition(p int) []Block {
	bcols := ceilDiv(s.Cols, int64(s.N))
	tiles, parts := int(ceilDiv(s.Rows, int64(s.N))*bcols), s.NumPartitions()
	lo, hi := p*tiles/parts, (p+1)*tiles/parts
	out := make([]Block, 0, hi-lo)
	for t := int64(lo); t < int64(hi); t++ {
		c := Coord{I: t / bcols, J: t % bcols}
		tile := randTile(c, s.N, s.Lo, s.Hi, s.Seed)
		clampTile(tile, s.Rows, s.Cols, c, s.N)
		out = append(out, dataflow.KV(c, tile))
	}
	return out
}

// FromPartitions is a matrix over tiles that already exist: part(p) is
// partition p, read by the tasks that run it and never written (it may be
// shared with other contexts).
func FromPartitions(ctx *dataflow.Context, rows, cols int64, n, parts int, part func(p int) []Block) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, N: n, Tiles: dataflow.Generate(ctx, parts, part)}
}

// ResidentMatrix is a seeded matrix held in memory: spec's partitions,
// each generated by the first task that reads it and kept for every later
// read, in this context or any other. A cluster worker keeps one between
// jobs and the query server one per registered name; a partition nobody
// reads is never generated. The tiles are shared and never written: every
// kernel writes only a tile it allocated.
type ResidentMatrix struct {
	Spec  RandSpec
	parts []residentPart
	bytes atomic.Int64 // of the partitions generated so far
}

// residentPart fills under its own Once, so concurrent readers neither
// generate a partition twice nor wait for one another's other partitions.
type residentPart struct {
	once   sync.Once
	blocks []Block
}

// NewResident returns spec's matrix with no partition generated yet.
func NewResident(spec RandSpec) *ResidentMatrix {
	return &ResidentMatrix{Spec: spec, parts: make([]residentPart, spec.NumPartitions())}
}

// Bytes is the size of the partitions generated so far.
func (r *ResidentMatrix) Bytes() int64 { return r.bytes.Load() }

// Partition returns partition p, generating it if this is its first read,
// and counts the read into c.
func (r *ResidentMatrix) Partition(p int, c *obs.LiveCounters) []Block {
	part := &r.parts[p]
	hit := true
	part.once.Do(func() {
		hit = false
		part.blocks = r.Spec.Partition(p)
		for _, b := range part.blocks {
			r.bytes.Add(b.Value.NumBytes())
		}
	})
	if hit {
		c.ResidentHits.Add(1)
	} else {
		c.ResidentMisses.Add(1)
	}
	return part.blocks
}

// Bind is the matrix on ctx whose tasks read the resident partitions,
// counting each read into c.
func (r *ResidentMatrix) Bind(ctx *dataflow.Context, c *obs.LiveCounters) *Matrix {
	s := r.Spec
	return FromPartitions(ctx, s.Rows, s.Cols, s.N, len(r.parts), func(p int) []Block { return r.Partition(p, c) })
}

// ToDenseRows collects rows [lo, hi) onto the driver as a dense
// matrix (e.g. k-means initial centroids).
func (m *Matrix) ToDenseRows(lo, hi int64) *linalg.Dense {
	if lo < 0 || hi > m.Rows || lo > hi {
		panic(fmt.Sprintf("tiled: row slice [%d,%d) out of %d", lo, hi, m.Rows))
	}
	out := linalg.NewDense(int(hi-lo), int(m.Cols))
	n64 := int64(m.N)
	wanted := dataflow.Filter(m.Tiles, func(b Block) bool {
		top := b.Key.I * n64
		return top < hi && top+n64 > lo
	})
	for _, b := range dataflow.Collect(wanted) {
		rowOff := b.Key.I * n64
		colOff := b.Key.J * n64
		for i := 0; i < m.N; i++ {
			gi := rowOff + int64(i)
			if gi < lo || gi >= hi {
				continue
			}
			for j := 0; j < m.N; j++ {
				gj := colOff + int64(j)
				if gj >= m.Cols {
					break
				}
				out.Set(int(gi-lo), int(gj), b.Value.At(i, j))
			}
		}
	}
	return out
}
