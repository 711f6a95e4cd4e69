package jobs

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// TestClusterStreamingParity: a query whose buckets really compress
// returns the local backend's bytes through the chunked data plane, with
// and without a worker memory budget, and the wire counters hold the
// floor the data plane promises: chunks move, the bytes on the wire
// exceed the raw payload by at most the per-chunk frame header, and on
// the second query pooled connections outnumber fresh dials. (Within one
// cold query every rank's fetch window dials its peers at once; only the
// old result gather, one fetch at a time after the shuffle, made hits
// outnumber misses there.)
func TestClusterStreamingParity(t *testing.T) {
	// n = 72 at tile 16 leaves the last tile row and column half
	// padding: zeros the block codec really can shrink. (Full tiles of
	// random doubles ship raw after the probe chunk, and a group-by-join
	// bucket no longer holds the same tile twice for the codec to find.)
	p := baseParams()
	p.N = 72
	p.Src = fig4Queries[0].src
	for _, budget := range []int64{0, spillingBudget} {
		t.Run(fmt.Sprint("budget=", budget), func(t *testing.T) {
			d := startTestClusterPar(t, twoSlots(3), budget)
			want := localUnderBudget(t, p, budget, false)
			cs := NewClusterSession(d, p, time.Minute)
			got, _, err := cs.Query(p.Src)
			if err != nil {
				t.Fatalf("cluster: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("result differs from local: %s vs %s", SummarizeBlob(got), SummarizeBlob(want))
			}
			snap := cs.Metrics()
			if snap.ChunksFetched == 0 || snap.WireRawBytes == 0 {
				t.Fatalf("wire path not exercised: %d chunks, %d raw bytes", snap.ChunksFetched, snap.WireRawBytes)
			}
			// The flags byte and rawLen varint of each chunk frame.
			if slack := 16 * snap.ChunksFetched; snap.WireFetchedBytes > snap.WireRawBytes+slack {
				t.Fatalf("wire bytes (%d) exceed raw bytes (%d) + framing slack",
					snap.WireFetchedBytes, snap.WireRawBytes)
			}
			if snap.WireFetchedBytes >= snap.WireRawBytes {
				t.Fatalf("compression saved nothing: wire=%d raw=%d", snap.WireFetchedBytes, snap.WireRawBytes)
			}
			if again, _, err := cs.Query(p.Src); err != nil || !bytes.Equal(again, want) {
				t.Fatalf("second query: matches local %v, err %v", bytes.Equal(again, want), err)
			}
			if warm := cs.Metrics(); warm.ConnPoolHits <= warm.ConnPoolMisses {
				t.Fatalf("connection pool on the second query: %d hits, %d misses", warm.ConnPoolHits, warm.ConnPoolMisses)
			}
			if (snap.SpilledBytes > 0) != (budget > 0) {
				t.Fatalf("budget %d: %d bytes spilled", budget, snap.SpilledBytes)
			}
		})
	}
}
