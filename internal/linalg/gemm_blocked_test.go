package linalg

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// randDense returns an m×n matrix with deterministic pseudo-random
// entries, including exact zeros to exercise any residual zero
// handling.
func randDense(rng *rand.Rand, m, n int) *Dense {
	d := NewDense(m, n)
	for i := range d.Data {
		if rng.Intn(8) == 0 {
			continue // leave a zero
		}
		d.Data[i] = rng.NormFloat64()
	}
	return d
}

// adversarialDims lists (m, n, k) shapes chosen to stress every fringe
// path: sizes not divisible by the micro-tile or any blocking
// parameter, degenerate vectors, empties, and sizes straddling
// Mc/Kc/Nc boundaries.
var adversarialDims = [][3]int{
	{1, 1, 1},
	{1, 1, 7},
	{1, 9, 1},
	{9, 1, 1},
	{1, 300, 5}, // 1×N row vector times panel
	{300, 1, 5}, // N×1 outcome column
	{2, 3, 4},
	{3, 5, 7}, // nothing divisible by any micro-tile
	{4, 4, 4}, // exactly one micro-tile
	{5, 5, 5},
	{7, 13, 11},
	{16, 32, 8},
	{33, 65, 31},
	{7, 9, 8}, // straddles the 8³ dispatch threshold
	{127, 129, 128},
	{128, 512, 256}, // exactly Mc × Nc × Kc
	{129, 513, 257}, // one past every blocking parameter
	{130, 41, 300},  // Kc fringe with odd m/n
	{0, 5, 3},       // empty result rows
	{5, 0, 3},       // empty result cols
	{5, 7, 0},       // empty shared dim: C unchanged
}

// wantGemm computes the expected C += op(A)·op(B) with GemmNaive,
// materializing transposes explicitly.
func wantGemm(c, a, b *Dense, transA, transB bool) *Dense {
	oa, ob := a, b
	if transA {
		oa = a.Transpose()
	}
	if transB {
		ob = b.Transpose()
	}
	want := c.Clone()
	GemmNaive(want, oa, ob)
	return want
}

// checkBlockedVariant runs GemmOp in one orientation over
// adversarialDims — the small-shape loop and the blocked kernel — against
// the naive oracle, and bit for bit against the untransposed product of
// the copies the orientation reads.
func checkBlockedVariant(t *testing.T, transA, transB bool, par int) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	for _, dims := range adversarialDims {
		m, n, k := dims[0], dims[1], dims[2]
		oa := randDense(rng, m, k)
		ob := randDense(rng, k, n)
		a, b := oa, ob
		if transA {
			a = oa.Transpose() // stored k×m, passed as Aᵀ operand
		}
		if transB {
			b = ob.Transpose() // stored n×k, passed as Bᵀ operand
		}
		c := randDense(rng, m, n) // nonzero C checks += semantics
		want := wantGemm(c, a, b, transA, transB)
		copied := c.Clone()
		GemmOp(copied, oa, ob, false, false, par)
		GemmOp(c, a, b, transA, transB, par)
		if d := c.MaxAbsDiff(want); d > 1e-9 {
			t.Fatalf("transA=%v transB=%v par=%d dims=%v: max |diff| = %g",
				transA, transB, par, dims, d)
		}
		if !sameBits(c.Data, copied.Data) {
			t.Fatalf("transA=%v transB=%v par=%d dims=%v: differs from the product of the transposed copies",
				transA, transB, par, dims)
		}
	}
}

func TestGemmBlockedMatchesNaive(t *testing.T) {
	for _, par := range []int{1, 2, 3, 4} {
		checkBlockedVariant(t, false, false, par)
	}
}

func TestGemmTransABlockedMatchesNaive(t *testing.T) {
	for _, par := range []int{1, 2, 4} {
		checkBlockedVariant(t, true, false, par)
	}
}

func TestGemmTransBBlockedMatchesNaive(t *testing.T) {
	for _, par := range []int{1, 2, 4} {
		checkBlockedVariant(t, false, true, par)
		checkBlockedVariant(t, true, true, par)
	}
}

// TestGemmBlockedDirect pins the blocked kernel itself (bypassing the
// small-shape dispatch) on shapes below the dispatch threshold, so
// fringe handling is covered even where Gemm would route to the simple
// loop.
func TestGemmBlockedDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dims := range adversarialDims {
		m, n, k := dims[0], dims[1], dims[2]
		a := randDense(rng, m, k)
		b := randDense(rng, k, n)
		c := randDense(rng, m, n)
		want := wantGemm(c, a, b, false, false)
		gemmBlocked(c, a, b, false, false, 1)
		if d := c.MaxAbsDiff(want); d > 1e-9 {
			t.Fatalf("dims=%v: max |diff| = %g", dims, d)
		}
	}
}

// TestGemmBlockedQuick fuzzes random shapes through all four
// orientations against the naive oracle.
func TestGemmBlockedQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	f := func(ms, ns, ks uint8, transA, transB bool, seed int64) bool {
		m, n, k := int(ms%70)+1, int(ns%70)+1, int(ks%70)+1
		lr := rand.New(rand.NewSource(seed))
		oa := randDense(lr, m, k)
		ob := randDense(lr, k, n)
		a, b := oa, ob
		if transA {
			a = oa.Transpose()
		}
		if transB {
			b = ob.Transpose()
		}
		c := randDense(lr, m, n)
		want := wantGemm(c, a, b, transA, transB)
		GemmOp(c, a, b, transA, transB, 1+int(ms%3))
		return c.MaxAbsDiff(want) <= 1e-9
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestPoolBasics covers the size-classing, zeroing, gauges, and nil
// tolerance of the tile pool.
func TestPoolBasics(t *testing.T) {
	var p Pool
	d, hit := p.TryGet(5, 7)
	if hit {
		t.Fatal("first TryGet reported a pool hit")
	}
	if d.Rows != 5 || d.Cols != 7 {
		t.Fatalf("got %dx%d", d.Rows, d.Cols)
	}
	d.Data[0] = 3.5
	p.Put(d)
	// Same element count, different shape: the class is len(Data).
	// sync.Pool may drop a Put at any time (it does so deliberately
	// under -race), so retry until a hit proves reshape + zeroing.
	hit = false
	var e *Dense
	for try := 0; try < 50 && !hit; try++ {
		e, hit = p.TryGet(7, 5)
		if !hit {
			e.Data[0] = 3.5
			p.Put(e)
		}
	}
	if hit {
		if e.Rows != 7 || e.Cols != 5 {
			t.Fatalf("reshaped tile is %dx%d", e.Rows, e.Cols)
		}
		if e.Data[0] != 0 {
			t.Fatal("pooled tile not zeroed")
		}
	} else {
		t.Log("pool never retained a tile (possible under -race); skipping reshape checks")
	}
	st := p.Stats()
	if gets := st.Hits + st.Misses; gets < 2 || st.Returns < 1 {
		t.Fatalf("stats = %+v", st)
	}
	p.ResetStats()
	if st = p.Stats(); st != (PoolStats{}) {
		t.Fatalf("after reset: %+v", st)
	}

	var nilPool *Pool
	if d := nilPool.Get(2, 2); d == nil || d.Rows != 2 {
		t.Fatal("nil pool Get failed")
	}
	nilPool.Put(d)
	if nilPool.Stats() != (PoolStats{}) {
		t.Fatal("nil pool stats nonzero")
	}
	p.Put(nil)
	p.Put(NewDense(0, 0))
}

// TestPooledGemmConcurrent hammers pooled tiles and the blocked kernel
// from many goroutines; run with -race to check the pool and the
// shared packed-B parallel path for races.
func TestPooledGemmConcurrent(t *testing.T) {
	var p Pool
	const n = 48
	rng := rand.New(rand.NewSource(13))
	a := randDense(rng, n, n)
	b := randDense(rng, n, n)
	want := NewDense(n, n)
	GemmNaive(want, a, b)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 20; it++ {
				c := p.Get(n, n)
				GemmBudget(c, a, b, 1+g%3)
				if d := c.MaxAbsDiff(want); d > 1e-9 {
					t.Errorf("goroutine %d iter %d: diff %g", g, it, d)
					return
				}
				p.Put(c)
			}
		}(g)
	}
	wg.Wait()
	st := p.Stats()
	if st.Hits+st.Misses != 8*20 {
		t.Fatalf("gets = %d, want 160", st.Hits+st.Misses)
	}
}
