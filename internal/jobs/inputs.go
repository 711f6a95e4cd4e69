package jobs

import (
	"fmt"

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
// that reads a partition regenerates it from the seed. The driver-side
// planner always does, since it plans and never reads a tile; so does the
// local reference, which must not share the tiles it is compared with. A
// rank does when its worker keeps nothing resident (a -mem worker).
func registerInputs(s *core.Session, p QueryParams) {
	for _, in := range p.inputs(s) {
		s.RegisterRandMatrix(in.name, in.spec.Rows, in.spec.Cols, in.spec.Lo, in.spec.Hi, in.spec.Seed)
	}
	s.RegisterScalar("n", p.N)
}

// residentInputs is one input set as far as this rank has read it: each
// input a tiled.ResidentMatrix, the type the query server keeps its
// registered matrices in. The worker keeps the set between jobs
// (cluster.Resident, keyed by the set), so a partition is generated once,
// by the first task of any job that reads it, and every later job's fresh
// session reads the same tiles. Ownership stays the engine's p % world: a
// partition nobody here ran a task over is never generated, and a rank
// that takes a lost peer's partitions over fills them on first touch like
// any other.
type residentInputs []residentInput

type residentInput struct {
	name string
	m    *tiled.ResidentMatrix
}

// residentFor returns the worker's resident set for p's inputs in s,
// making it the one the worker keeps if it was keeping another.
func residentFor(store *cluster.Resident, p QueryParams, s *core.Session) residentInputs {
	ins := p.inputs(s)
	return store.Get(fmt.Sprintf("%+v", ins), func() any {
		r := make(residentInputs, len(ins))
		for i, in := range ins {
			r[i] = residentInput{in.name, tiled.NewResident(in.spec)}
		}
		return r
	}).(residentInputs)
}

// bind registers the set's matrices in s as sources over the resident
// partitions; c is the job's count of their reads.
func (r residentInputs) bind(s *core.Session, p QueryParams, c *obs.LiveCounters) {
	for _, in := range r {
		s.RegisterMatrix(in.name, in.m.Bind(s.Engine(), c))
	}
	s.RegisterScalar("n", p.N)
}

// bytes is the size of the partitions generated so far.
func (r residentInputs) bytes() (n int64) {
	for _, in := range r {
		n += in.m.Bytes()
	}
	return n
}
