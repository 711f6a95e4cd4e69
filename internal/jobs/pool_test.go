package jobs

import (
	"runtime"
	"testing"
	"time"
)

// TestClusterQuerySteadyStateBytes: once the workers' pools hold the
// buffers of a query's shape, a repeat of the query allocates little
// beyond its answer — the blob the driver returns, which the caller keeps.
// The shuffle blobs, fetch frames and decoded and output tiles are the
// pools', a rank writes its piece from its tiles through a small buffer,
// and the driver reads it straight into the answer. On the benchmark's
// cluster shape (the n = 1000 product on two one-slot workers) the whole
// process allocates at most the answer's size plus a quarter per query. It
// reads allocation counters, not a clock; under the race detector it has
// nothing to read.
func TestClusterQuerySteadyStateBytes(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector drops pooled GEMM packing buffers: allocation counts measure it, not the pools")
	}
	d := startTestClusterPar(t, []int{1, 1}, 0)
	cs := NewClusterSession(d, QueryParams{N: 1000, Tile: 100, SeedA: 1, SeedB: 2, Partitions: 8}, time.Minute)
	answer := 0
	query := func() {
		blob, _, err := cs.Query(fig4Queries[0].src)
		if err != nil {
			t.Fatal(err)
		}
		answer = len(blob)
	}
	query() // the resident inputs are generated, the peer connections dialed
	query() // the pools fill
	const queries = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < queries; i++ {
		query()
	}
	runtime.ReadMemStats(&after)
	perQuery := (after.TotalAlloc - before.TotalAlloc) / queries
	if limit := uint64(answer) * 5 / 4; perQuery > limit {
		t.Fatalf("%d bytes allocated per query, want at most %d (the %d-byte answer and a quarter)", perQuery, limit, answer)
	}
	t.Logf("%d bytes allocated per query for a %d-byte answer", perQuery, answer)
}
