package memory

import (
	"math"
	"testing"
)

// TestBufferPoolExactAndCapped: a buffer comes back to a draw of exactly
// its length and no other; what a lease lent and was not handed back
// returns when it closes; a buffer the lease did not lend is ignored; and
// the pool never holds more than its cap, making room by dropping the
// classes shelved first.
func TestBufferPoolExactAndCapped(t *testing.T) {
	p := NewPool(10_000)
	l := p.Lease()
	a := l.Bytes(3000)
	f, reused := l.Floats(500) // 4000 bytes
	if reused || len(a) != 3000 || cap(a) != 3000 || len(f) != 500 || cap(f) != 500 {
		t.Fatalf("first draws: %d/%d bytes, %d/%d floats, reused %v", len(a), cap(a), len(f), cap(f), reused)
	}
	l.Release(make([]byte, 3000)) // not lent: ignored
	l.Release(a)
	l.Release(a) // handed back already: ignored
	if p.Held() != 3000 {
		t.Fatalf("held %d after one release, want 3000", p.Held())
	}
	l.Close() // hands f back
	if p.Held() != 7000 {
		t.Fatalf("held %d after close, want 7000", p.Held())
	}

	l2 := p.Lease()
	if b := l2.Bytes(2999); &b[0] == &a[0] {
		t.Fatal("a 3000-byte buffer was lent for 2999 bytes")
	}
	if b := l2.Bytes(3000); &b[0] != &a[0] {
		t.Fatal("the shelved 3000-byte buffer was not reused")
	}
	if g, reused := l2.Floats(500); !reused || &g[0] != &f[0] {
		t.Fatal("the shelved 500-float slice was not reused")
	}
	if p.Held() != 0 {
		t.Fatalf("held %d with everything lent out", p.Held())
	}
	l2.Bytes(6000)
	l2.Close() // 2999 + 3000 + 4000 + 6000 bytes back, past the cap
	if held := p.Held(); held > 10_000 || held == 0 {
		t.Fatalf("held %d, want some and at most the 10000-byte cap", held)
	}

	// Room is made by dropping the classes shelved first.
	p = NewPool(10_000)
	l3 := p.Lease()
	defer l3.Close()
	x, y, z := l3.Bytes(4000), l3.Bytes(5000), l3.Bytes(3000)
	l3.Release(x)
	l3.Release(y)
	l3.Release(z) // drops x
	if p.Held() != 8000 {
		t.Fatalf("held %d, want y's and z's 8000", p.Held())
	}
	if b := l3.Bytes(4000); &b[0] == &x[0] {
		t.Fatal("the first class shelved survived the overflow")
	}
	if b := l3.Bytes(5000); &b[0] != &y[0] {
		t.Fatal("y was dropped")
	}
	l3.Release(l3.Bytes(20_000)) // larger than the cap: dropped
	if p.Held() != 3000 {
		t.Fatalf("held %d, want z's 3000", p.Held())
	}

	var nilLease *Lease
	if b := nilLease.Bytes(8); len(b) != 8 {
		t.Fatal("a nil lease did not allocate")
	}
	nilLease.Release(a)
	nilLease.Close()
}

// TestBufferPoolPoison: with the test hook on, a released buffer reads
// 0xA5 bytes or NaNs.
func TestBufferPoolPoison(t *testing.T) {
	PoisonReleased(true)
	defer PoisonReleased(false)
	l := NewPool(1 << 20).Lease()
	b := l.Bytes(64)
	f, _ := l.Floats(8)
	l.Release(b)
	l.Close()
	for _, x := range b {
		if x != 0xA5 {
			t.Fatalf("released byte reads %#x", x)
		}
	}
	for _, x := range f {
		if !math.IsNaN(x) {
			t.Fatalf("released float reads %v", x)
		}
	}
}
