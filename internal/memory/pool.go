package memory

import (
	"math"
	"sync"
	"sync/atomic"
)

// Pool keeps the large transient buffers of a worker's jobs — shuffle
// blobs, fetch frames, decoded and output tiles, result pieces — for the
// jobs after them, so a steady stream of queries of one shape reallocates
// (and the runtime re-zeroes) none of them. It holds byte buffers and
// float64 slices in classes of one exact length each: a buffer comes back
// as long as it was lent, never rounded up to a class size. The bytes it
// retains are capped; a buffer returned to a full pool displaces buffers
// of other lengths, oldest class first, or is dropped when it alone is
// past the cap.
//
// A job draws through a Lease, which records what it lent: the job hands
// a buffer back as soon as its last reader is done with it, and the lease
// hands back the rest when the job ends. A nil *Pool lends nothing: its
// leases are nil, and a nil *Lease allocates every draw and takes nothing
// back, so code threads a lease through unconditionally.
type Pool struct {
	limit int64

	mu     sync.Mutex
	held   int64
	bytes  shelves[byte]
	floats shelves[float64]
	order  []classKey // classes in the order they were first shelved
}

// classKey names a class: an element kind and a length.
type classKey struct {
	floats bool
	n      int
}

type shelves[T any] map[int][][]T

// NewPool returns a pool that retains at most limit bytes.
func NewPool(limit int64) *Pool {
	return &Pool{limit: limit, bytes: shelves[byte]{}, floats: shelves[float64]{}}
}

// Held is the number of bytes the pool retains now.
func (p *Pool) Held() int64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.held
}

// poison, when set, overwrites every buffer handed back: a reader that
// held on past its release reads 0xA5 bytes or NaNs, not the next job's
// data or its own stale values.
var poison atomic.Bool

// PoisonReleased turns poisoning of released buffers on or off. It is a
// test hook: with it on, a use after release shows as a wrong answer.
func PoisonReleased(on bool) { poison.Store(on) }

// take pops a buffer of class key off s, or returns nil.
func take[T any](p *Pool, s shelves[T], key classKey) []T {
	p.mu.Lock()
	defer p.mu.Unlock()
	l := s[key.n]
	if len(l) == 0 {
		return nil
	}
	b := l[len(l)-1]
	if len(l) == 1 {
		delete(s, key.n)
		p.unorder(key)
	} else {
		l[len(l)-1] = nil
		s[key.n] = l[:len(l)-1]
	}
	p.held -= key.size()
	return b
}

// shelve keeps b, making room by dropping the classes of other lengths
// shelved before it. A class is in order exactly while it holds a buffer.
func shelve[T any](p *Pool, s shelves[T], b []T, key classKey) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if key.size() > p.limit {
		return
	}
	for i := 0; p.held+key.size() > p.limit && i < len(p.order); {
		if k := p.order[i]; k != key {
			p.evict(k)
			p.order = append(p.order[:i], p.order[i+1:]...)
			continue
		}
		i++
	}
	if p.held+key.size() > p.limit {
		return // its own class fills the pool
	}
	if len(s[key.n]) == 0 {
		p.order = append(p.order, key)
	}
	s[key.n] = append(s[key.n], b)
	p.held += key.size()
}

// size is the bytes one buffer of the class holds.
func (k classKey) size() int64 {
	if k.floats {
		return 8 * int64(k.n)
	}
	return int64(k.n)
}

// unorder takes key out of the class order.
func (p *Pool) unorder(key classKey) {
	for i, k := range p.order {
		if k == key {
			p.order = append(p.order[:i], p.order[i+1:]...)
			return
		}
	}
}

// evict drops every buffer of class k.
func (p *Pool) evict(k classKey) {
	if k.floats {
		p.held -= int64(len(p.floats[k.n])) * k.size()
		delete(p.floats, k.n)
		return
	}
	p.held -= int64(len(p.bytes[k.n])) * k.size()
	delete(p.bytes, k.n)
}

// Lease is one job's account with a pool: what it lent the job and has
// not had back, by the address of its first element. Its methods are safe
// for concurrent use.
type Lease struct {
	pool *Pool

	mu     sync.Mutex
	bytes  map[*byte][]byte
	floats map[*float64][]float64
	closed bool
}

// Lease opens an account for one job. A nil pool's lease is nil.
func (p *Pool) Lease() *Lease {
	if p == nil {
		return nil
	}
	return &Lease{pool: p, bytes: map[*byte][]byte{}, floats: map[*float64][]float64{}}
}

// Bytes lends a byte buffer of length and capacity n. Its contents are
// whatever its last user left: the caller overwrites all of it.
func (l *Lease) Bytes(n int) []byte {
	if l == nil || n == 0 {
		return make([]byte, n)
	}
	b := take(l.pool, l.pool.bytes, classKey{n: n})
	if b == nil {
		b = make([]byte, n)
	}
	l.mu.Lock()
	if !l.closed {
		l.bytes[&b[0]] = b
	}
	l.mu.Unlock()
	return b
}

// Floats lends a float64 slice of length and capacity n, and reports
// whether it was reused. A reused slice holds whatever its last user
// left: the caller overwrites or zeroes all of it.
func (l *Lease) Floats(n int) (f []float64, reused bool) {
	if l == nil || n == 0 {
		return make([]float64, n), false
	}
	f = take(l.pool, l.pool.floats, classKey{floats: true, n: n})
	if reused = f != nil; !reused {
		f = make([]float64, n)
	}
	l.mu.Lock()
	if !l.closed {
		l.floats[&f[0]] = f
	}
	l.mu.Unlock()
	return f, reused
}

// Release hands b back to the pool if this lease lent it and has not had
// it back; anything else it ignores. The caller must be b's last reader.
func (l *Lease) Release(b []byte) {
	if l == nil || cap(b) == 0 {
		return
	}
	l.mu.Lock()
	lent, ok := l.bytes[&b[:1][0]]
	delete(l.bytes, &b[:1][0])
	l.mu.Unlock()
	if ok {
		giveBytes(l.pool, lent)
	}
}

// ReleaseFloats is Release for a float64 slice: f's first element must
// be the first of a slice this lease lent.
func (l *Lease) ReleaseFloats(f []float64) {
	if l == nil || cap(f) == 0 {
		return
	}
	l.mu.Lock()
	lent, ok := l.floats[&f[:1][0]]
	delete(l.floats, &f[:1][0])
	l.mu.Unlock()
	if ok {
		giveFloats(l.pool, lent)
	}
}

// Close hands back everything the lease lent and still holds: the job
// has ended and nothing reads its buffers any more. Later draws allocate
// and are not recorded.
func (l *Lease) Close() {
	if l == nil {
		return
	}
	l.mu.Lock()
	bytes, floats := l.bytes, l.floats
	l.bytes, l.floats, l.closed = nil, nil, true
	l.mu.Unlock()
	for _, b := range bytes {
		giveBytes(l.pool, b)
	}
	for _, f := range floats {
		giveFloats(l.pool, f)
	}
}

func giveBytes(p *Pool, b []byte) {
	if poison.Load() {
		for i := range b {
			b[i] = 0xA5
		}
	}
	shelve(p, p.bytes, b, classKey{n: len(b)})
}

func giveFloats(p *Pool, f []float64) {
	if poison.Load() {
		nan := math.NaN()
		for i := range f {
			f[i] = nan
		}
	}
	shelve(p, p.floats, f, classKey{floats: true, n: len(f)})
}
