package jobs

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// TestClusterStreamingParity: a query returns the local backend's bytes
// through the chunked data plane, with and without a worker memory
// budget, and the wire counters say exactly what crossed: chunks move,
// the wire bytes are the bytes the ranks read plus the chunk frames'
// heads, and on the second query pooled connections outnumber fresh
// dials. (Within one cold query every rank's fetch window dials its
// peers at once; only the old result gather, one fetch at a time after
// the shuffle, made hits outnumber misses there.)
func TestClusterStreamingParity(t *testing.T) {
	p := baseParams()
	p.Src = fig4Queries[0].src
	for _, budget := range []int64{0, spillingBudget} {
		t.Run(fmt.Sprint("budget=", budget), func(t *testing.T) {
			d := startTestClusterPar(t, twoSlots(3), budget)
			want := localUnderBudget(t, p, budget, false)
			for query := 1; query <= 2; query++ {
				resetExchangeSpy()
				run, err := d.Run(spyQueryName, p.Encode(), time.Minute)
				if err != nil {
					t.Fatalf("cluster: %v", err)
				}
				if !bytes.Equal(run.Result, want) {
					t.Fatalf("query %d: result differs from local: %s vs %s", query, SummarizeBlob(run.Result), SummarizeBlob(want))
				}
				snap := snapshotFrom(run, d.Workers())
				if snap.ChunksFetched == 0 || snap.WireRawBytes == 0 {
					t.Fatalf("wire path not exercised: %d chunks, %d raw bytes", snap.ChunksFetched, snap.WireRawBytes)
				}
				checkWireExact(t, snap.CounterSet)
				if (snap.SpilledBytes > 0) != (budget > 0) {
					t.Fatalf("budget %d: %d bytes spilled", budget, snap.SpilledBytes)
				}
				if query == 2 && snap.ConnPoolHits <= snap.ConnPoolMisses {
					t.Fatalf("connection pool on the second query: %d hits, %d misses", snap.ConnPoolHits, snap.ConnPoolMisses)
				}
			}
		})
	}
}
