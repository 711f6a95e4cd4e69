package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
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
	// Telemetry, when non-nil, ships one observability batch to the
	// driver. Programs call it from a periodic ticker with the spans /
	// stage rows completed since the previous flush, and once more with
	// Final=true right before returning — the worker sends that last
	// batch ahead of the job reply on the same ordered connection. Nil
	// when the runtime has no driver attached (local tests).
	Telemetry func(TelemetryBatch) error
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

// Merge makes a job's result of the replies of the ranks that sent one,
// in rank order. It is the driver's check that the ranks ran the same
// program to the same end, so it trusts nothing in a reply; an error
// names the rank and the cause. When the replies are sound but do not add
// up to a whole result — a rank that held part of it never replied — the
// error wraps ErrIncomplete, and Driver.Run runs the job again on the
// ranks that are left.
type Merge func(replies []RankResult) ([]byte, error)

// ErrIncomplete is the Merge error for a result with a part missing.
var ErrIncomplete = errors.New("result incomplete")

// Replicated is the Merge of a program without one: every rank computed
// the whole result, so any reply is the result and the others must be
// equal to it byte for byte.
func Replicated(replies []RankResult) ([]byte, error) {
	if len(replies) == 0 {
		return nil, fmt.Errorf("no rank replied: %w", ErrIncomplete)
	}
	first := replies[0]
	for _, r := range replies[1:] {
		if !bytes.Equal(first.Result, r.Result) {
			return nil, fmt.Errorf("rank %d result (%d bytes) differs from rank %d's (%d bytes) — SPMD determinism violated",
				r.Rank, len(r.Result), first.Rank, len(first.Result))
		}
	}
	return first.Result, nil
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
