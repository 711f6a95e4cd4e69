package jobs

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/tiled"
)

// input is one canonical seeded matrix of a query: the name it is bound
// under and everything its tiles are a function of.
type input struct {
	name string
	spec tiled.RandSpec
}

// inputs lists the seeded matrices of p as s tiles and partitions them.
// Every rank, the local reference and the driver-side planner derive
// them from the params, so they are the same data everywhere with nothing
// shipped — and the same data in the next job with the same params, which
// is what a worker keeps resident.
func (p QueryParams) inputs(s *core.Session) []input {
	spec := tiled.RandSpec{Rows: p.N, Cols: p.N, N: s.TileSize(), Parts: s.Engine().DefaultPartitions(), Lo: 0, Hi: 10}
	a, b := spec, spec
	a.Seed, b.Seed = p.SeedA, p.SeedB
	return []input{{"A", a}, {"B", b}}
}

// registerInputs binds the inputs as lazily generated matrices: each task
// that reads a partition regenerates it from the seed. The local reference
// and the driver-side planner always do; a rank does when its worker keeps
// nothing resident.
func registerInputs(s *core.Session, p QueryParams) {
	for _, in := range p.inputs(s) {
		s.RegisterRandMatrix(in.name, in.spec.Rows, in.spec.Cols, in.spec.Lo, in.spec.Hi, in.spec.Seed)
	}
	s.RegisterScalar("n", p.N)
}

// residentInputs is one input set's partitions as far as this rank has
// read them. The worker keeps it between jobs (cluster.Resident, keyed by
// the set), so a partition is generated once, by the first task of any job
// that reads it, and every later job's fresh session reads the same tiles.
// Ownership stays the engine's p % world: a partition nobody here ran a
// task over is never generated, and a rank that takes a lost peer's
// partitions over fills them on first touch like any other. The tiles are
// shared and never written: every kernel writes a tile it allocated.
type residentInputs struct {
	mats  []residentMatrix
	bytes atomic.Int64 // of the partitions generated so far
}

type residentMatrix struct {
	input
	parts []residentPart
}

// residentPart fills under its own Once, so concurrent jobs neither
// generate a partition twice nor wait for one another's other partitions.
type residentPart struct {
	once   sync.Once
	blocks []tiled.Block
}

// residentFor returns the worker's resident set for p's inputs in s,
// making it the one the worker keeps if it was keeping another.
func residentFor(store *cluster.Resident, p QueryParams, s *core.Session) *residentInputs {
	ins := p.inputs(s)
	return store.Get(fmt.Sprintf("%+v", ins), func() any {
		r := &residentInputs{mats: make([]residentMatrix, len(ins))}
		for i, in := range ins {
			r.mats[i] = residentMatrix{input: in, parts: make([]residentPart, in.spec.NumPartitions())}
		}
		return r
	}).(*residentInputs)
}

// partition returns partition p of matrix m, generating it if this is its
// first read on this rank, and counts the read into c.
func (r *residentInputs) partition(m, p int, c *obs.LiveCounters) []tiled.Block {
	part := &r.mats[m].parts[p]
	hit := true
	part.once.Do(func() {
		hit = false
		part.blocks = r.mats[m].spec.Partition(p)
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

// bind registers the set's matrices in s as sources over the resident
// partitions; c is the job's count of their reads.
func (r *residentInputs) bind(s *core.Session, p QueryParams, c *obs.LiveCounters) {
	for m := range r.mats {
		m, spec := m, r.mats[m].spec
		s.RegisterMatrix(r.mats[m].name, tiled.FromPartitions(s.Engine(), spec.Rows, spec.Cols, spec.N,
			spec.NumPartitions(), func(p int) []tiled.Block { return r.partition(m, p, c) }))
	}
	s.RegisterScalar("n", p.N)
}
