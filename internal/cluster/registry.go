package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/obs"
	"repro/internal/trace"
)

// JobEnv is everything a job program gets from the runtime: its rank
// and world size, the opaque driver-supplied parameters, the shuffle
// exchange to hand to the dataflow engine, and this worker's local
// capacity settings.
type JobEnv struct {
	Rank         int
	World        int
	Params       []byte
	Exchange     *Exchange
	Parallelism  int
	MemoryBudget int64
	WorkerTag    string
	// Resident is where the program keeps what the next job should find
	// again; nil when this worker keeps nothing (it has a memory budget)
	// or there is no worker (local tests).
	Resident *Resident

	replySize int64                 // set by Reply
	reply     func(io.Writer) error // set by Reply
	observed  RankTelemetry         // set by Observe
}

// Reply makes the job's result the size bytes write writes, in place of
// the bytes the program returns (which it then leaves nil). Once the
// program has returned, the worker calls write once with the driver's
// connection, buffered: a large result the program holds — a rank's
// result tiles — goes out through a small buffer instead of being encoded
// into one of its size first.
func (e *JobEnv) Reply(size int64, write func(io.Writer) error) {
	e.replySize, e.reply = size, write
}

// Observe hands over what the rank observed of its run: the stage rows
// it recorded, the spans it recorded and how many of them its tracer
// dropped. The worker sends them in the job reply after the report,
// whether or not the program succeeds; a program that never calls it
// sends none.
func (e *JobEnv) Observe(stages []obs.StageMetric, spans []trace.SpanRec, dropped int64) {
	e.observed = RankTelemetry{DroppedSpans: dropped, Spans: spans, Stages: stages}
}

// Program is a deterministic SPMD job: every rank runs the same
// program with the same Params. What the ranks return is the job's result
// replicated — byte-identical on every rank, which the driver checks —
// unless the program registered a Merge, which says how the driver makes
// the result of them. The returned Report feeds the per-worker metrics
// rows.
type Program func(env *JobEnv) (result []byte, rep Report, err error)

// RankResult is what one rank that finished its program replied with.
type RankResult struct {
	Rank   int
	Result []byte
}

// A Merger makes one attempt at a job's result of the replies of the ranks
// that sent one, as they arrive: in any order, each read off its worker's
// connection straight into the merge, so no reply is held in a buffer of
// the driver's first. It checks that the ranks ran the same program to the
// same end, so it trusts nothing in a reply; an error names
// the rank and the cause. When the replies are sound but do not add up to
// a whole result — a rank that held part of it never replied — the error
// wraps ErrIncomplete, and Driver.Run runs the job again on the ranks that
// are left. A Merger is safe for concurrent use.
type Merger interface {
	// Add reads rank's reply, size bytes, from r. A read from r that fails
	// is the connection's failure, not the reply's: Add returns it and
	// leaves the merge as if the rank had not replied. An Add after
	// Result leaves the result as it was.
	Add(rank int, r io.Reader, size int64) error
	// Result makes the result of the replies added so far, and ends the
	// merge.
	Result() ([]byte, error)
}

// Merge starts the Merger of one attempt at a job.
type Merge func() Merger

// ErrIncomplete is the Merger error for a result with a part missing.
var ErrIncomplete = errors.New("result incomplete")

// Replicated is the Merge of a program without one of its own: every rank
// computed the whole result, so the first reply to arrive is the result
// and every other must equal it byte for byte.
func Replicated() Merger { return &replicated{} }

type replicated struct {
	mu    sync.Mutex
	first []byte // the first reply, and the rank it came from
	rank  int
	err   error // the first reply that differs
	done  bool
}

func (m *replicated) Add(rank int, r io.Reader, size int64) error {
	reply := make([]byte, size)
	if _, err := io.ReadFull(r, reply); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	switch {
	case m.done || m.err != nil:
	case m.first == nil:
		m.first, m.rank = reply, rank
	case !bytes.Equal(reply, m.first):
		m.err = fmt.Errorf("rank %d result (%d bytes) differs from rank %d's (%d bytes) — SPMD determinism violated",
			rank, len(reply), m.rank, len(m.first))
	}
	return m.err
}

func (m *replicated) Result() ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.done = true
	switch {
	case m.err != nil:
		return nil, m.err
	case m.first == nil:
		return nil, fmt.Errorf("no rank replied: %w", ErrIncomplete)
	}
	return m.first, nil
}

var (
	progMu   sync.RWMutex
	programs = map[string]Program{}
	merges   = map[string]Merge{}
)

// RegisterProgram installs a named job program. Workers and drivers
// must agree on the registry contents (both link the same binary set);
// registering a duplicate name panics to catch init-order accidents.
func RegisterProgram(name string, p Program) {
	progMu.Lock()
	defer progMu.Unlock()
	if _, dup := programs[name]; dup {
		panic(fmt.Sprintf("cluster: program %q registered twice", name))
	}
	programs[name] = p
}

// RegisterMerge installs the Merge of a program whose ranks each return
// a part of the result.
func RegisterMerge(name string, m Merge) {
	progMu.Lock()
	defer progMu.Unlock()
	if _, dup := merges[name]; dup {
		panic(fmt.Sprintf("cluster: merge for %q registered twice", name))
	}
	merges[name] = m
}

// mergeFor returns the program's Merge, Replicated when it has none.
func mergeFor(name string) Merge {
	progMu.RLock()
	defer progMu.RUnlock()
	if m, ok := merges[name]; ok {
		return m
	}
	return Replicated
}

func lookupProgram(name string) (Program, error) {
	progMu.RLock()
	defer progMu.RUnlock()
	p, ok := programs[name]
	if !ok {
		names := make([]string, 0, len(programs))
		for n := range programs {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("cluster: unknown program %q (registered: %v)", name, names)
	}
	return p, nil
}
