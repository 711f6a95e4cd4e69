package linalg

import (
	"sync"
	"sync/atomic"

	"repro/internal/memory"
)

// Pool recycles Dense tiles across kernel invocations. Tiled operators
// allocate one output or accumulator tile per cogroup key; without
// reuse a single distributed multiply churns through thousands of
// identically-shaped N×N tiles. The pool hands those back out,
// size-classed by element count, and keeps hit/miss/return gauges so
// the engine can report reuse rates (see dataflow.MetricsSnapshot).
//
// Ownership contract: Put a tile only when the caller is its sole
// owner and no live structure references it — partial-product tiles
// consumed by a reduce combiner, or tiles drained from an unpersisted
// matrix. Tiles that escape into result datasets must not be Put until
// the dataset itself is recycled (see tiled.Matrix.Recycle).
//
// A nil *Pool is valid: Get allocates, Put and the gauges are no-ops,
// so kernel code threads the pool through unconditionally.
//
// A pool that draws from a lease (DrawFrom) — a cluster job's, on a
// worker — keeps nothing itself: Get borrows the tile's cells from the
// lease, Put hands them back to it, and what is still out when the job
// ends the lease takes back then.
type Pool struct {
	classes sync.Map // len(Data) -> *sync.Pool of *Dense
	lease   *memory.Lease

	hits    atomic.Int64
	misses  atomic.Int64
	returns atomic.Int64
}

// PoolStats is a snapshot of a pool's reuse gauges.
type PoolStats struct {
	Hits    int64 // Get calls satisfied from the pool
	Misses  int64 // Get calls that had to allocate
	Returns int64 // tiles handed back via Put
}

// Get returns a zeroed rows×cols tile, reusing a pooled one of the
// same element count when available.
func (p *Pool) Get(rows, cols int) *Dense {
	d, _ := p.TryGet(rows, cols)
	return d
}

// TryGet is Get plus a flag reporting whether the tile came from the
// pool (true) or was freshly allocated (false) — kernel spans record
// it per tile.
func (p *Pool) TryGet(rows, cols int) (*Dense, bool) {
	if p == nil {
		return NewDense(rows, cols), false
	}
	n := rows * cols
	if p.lease != nil {
		data, hit := p.lease.Floats(n)
		if hit {
			clear(data)
			p.hits.Add(1)
		} else {
			p.misses.Add(1)
		}
		return &Dense{Rows: rows, Cols: cols, Data: data}, hit
	}
	if cp, ok := p.classes.Load(n); ok {
		if v := cp.(*sync.Pool).Get(); v != nil {
			d := v.(*Dense)
			d.Rows, d.Cols = rows, cols
			for i := range d.Data {
				d.Data[i] = 0
			}
			p.hits.Add(1)
			return d, true
		}
	}
	p.misses.Add(1)
	return NewDense(rows, cols), false
}

// Put returns a tile to the pool for reuse. The caller must own d
// exclusively; the pool may hand it to any later Get of the same
// element count. nil tiles and zero-sized tiles are ignored.
func (p *Pool) Put(d *Dense) {
	if p == nil || d == nil || len(d.Data) == 0 {
		return
	}
	if p.lease != nil {
		p.lease.ReleaseFloats(d.Data)
		p.returns.Add(1)
		return
	}
	n := len(d.Data)
	cp, ok := p.classes.Load(n)
	if !ok {
		cp, _ = p.classes.LoadOrStore(n, &sync.Pool{})
	}
	cp.(*sync.Pool).Put(d)
	p.returns.Add(1)
}

// DrawFrom makes the pool lend the cells of its tiles from l. It must be
// called before the pool's first Get.
func (p *Pool) DrawFrom(l *memory.Lease) { p.lease = l }

// Stats snapshots the reuse gauges. A nil pool reports zeros.
func (p *Pool) Stats() PoolStats {
	if p == nil {
		return PoolStats{}
	}
	return PoolStats{
		Hits:    p.hits.Load(),
		Misses:  p.misses.Load(),
		Returns: p.returns.Load(),
	}
}

// ResetStats zeroes the gauges (pooled tiles stay pooled); benchmarks
// call it between measured runs.
func (p *Pool) ResetStats() {
	if p == nil {
		return
	}
	p.hits.Store(0)
	p.misses.Store(0)
	p.returns.Store(0)
}
