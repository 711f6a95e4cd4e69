package cluster

import "sync"

// Resident is what a worker keeps between jobs for the programs it runs:
// one keyed value, the latest job's. A program asks for its key's value at
// the start of a job; a job with another key replaces what is kept, and
// the replaced value lives for as long as the jobs that got it earlier
// still hold it — the store never frees anything, it stops pointing at
// it, and so does the worker's shutdown. What the value is, how it fills
// and what it costs is the program's business; this package knows the key.
type Resident struct {
	mu       sync.Mutex
	key      string
	val      any
	released bool
}

// Get returns the value kept under key; when another key's (or nothing)
// is kept, it keeps and returns build()'s. build runs under the store's
// lock, so it must only set the value up: filling it belongs to the tasks
// that read it, with the value's own synchronisation (ranks admit
// concurrent jobs in different orders, and a fill that held this lock
// while it waited for a peer would deadlock them).
func (r *Resident) Get(key string, build func() any) any {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.val != nil && r.key == key {
		return r.val
	}
	v := build()
	if !r.released {
		r.key, r.val = key, v
	}
	return v
}

// release lets go of what is kept, for good. A nil store has nothing.
func (r *Resident) release() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.released, r.val = true, nil
	r.mu.Unlock()
}
