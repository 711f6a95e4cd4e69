package cluster

import (
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
// program with the same Params and must return byte-identical results
// (the driver cross-checks). The returned Report feeds the per-worker
// metrics rows.
type Program func(env *JobEnv) (result []byte, rep Report, err error)

var (
	progMu   sync.RWMutex
	programs = map[string]Program{}
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
