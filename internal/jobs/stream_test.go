package jobs

import (
	"bytes"
	"testing"
	"time"
)

// TestClusterStreamingModesParity proves the A/B escape hatches really
// are escape hatches: the default chunk-streaming path, the PR 5
// whole-blob consumption path (LegacyBlob), and uncompressed publishes
// (NoCompress) must all return byte-identical results to the local
// backend — and the default mode must actually stream (chunk counters
// move).
func TestClusterStreamingModesParity(t *testing.T) {
	d := startTestCluster(t, 3)
	// n = 72 at tile 16 leaves the last tile row and column half
	// padding: zeros the block codec really can shrink. (Full tiles of
	// random doubles ship raw after the probe chunk, and a group-by-join
	// bucket no longer holds the same tile twice for the codec to find.)
	p := baseParams()
	p.N = 72
	p.Src = fig4Queries[0].src
	want, err := RunQueryLocal(p)
	if err != nil {
		t.Fatalf("local: %v", err)
	}
	modes := []struct {
		name               string
		legacy, noCompress bool
	}{
		{"streaming-compressed", false, false},
		{"streaming-raw", false, true},
		{"legacy-blob", true, false},
		{"legacy-blob-raw", true, true},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			base := p
			base.LegacyBlob = m.legacy
			base.NoCompress = m.noCompress
			cs := NewClusterSession(d, base, time.Minute)
			got, _, err := cs.Query(p.Src)
			if err != nil {
				t.Fatalf("cluster (%s): %v", m.name, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s result differs from local: %s vs %s",
					m.name, FormatResult(got), FormatResult(want))
			}
			snap := cs.Metrics()
			if snap.WireChunks == 0 {
				t.Fatalf("%s: no stream chunks counted — wire path not exercised", m.name)
			}
			if snap.WireRawBytes == 0 {
				t.Fatalf("%s: WireRawBytes not counted", m.name)
			}
			// On-wire bytes may exceed the raw payload only by the
			// per-chunk frame header (flags byte + rawLen varint).
			if slack := 16 * snap.WireChunks; snap.WireFetchedBytes > snap.WireRawBytes+slack {
				t.Fatalf("%s: wire bytes (%d) exceed raw bytes (%d) + framing slack",
					m.name, snap.WireFetchedBytes, snap.WireRawBytes)
			}
			if !m.noCompress && snap.WireFetchedBytes >= snap.WireRawBytes {
				t.Fatalf("%s: compression saved nothing: wire=%d raw=%d",
					m.name, snap.WireFetchedBytes, snap.WireRawBytes)
			}
		})
	}
}
