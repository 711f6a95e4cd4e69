package jobs

import "testing"

// TestDefaultPartitions pins the fallback partition schedule. The value
// must depend on the world size ONLY (see the invariant comment on
// DefaultPartitions): small worlds collapse to the historical local
// default of 8 so reference runs stay byte-identical, larger worlds get
// four partitions per rank.
func TestDefaultPartitions(t *testing.T) {
	cases := []struct{ world, want int }{
		{0, 8}, {1, 8}, {2, 8}, {3, 12}, {4, 16}, {8, 32},
	}
	for _, c := range cases {
		if got := DefaultPartitions(c.world); got != c.want {
			t.Errorf("DefaultPartitions(%d) = %d, want %d", c.world, got, c.want)
		}
	}
	// Determinism across calls (a rank computes this independently; any
	// drift would silently desynchronize the SPMD stage graphs).
	for w := 0; w < 16; w++ {
		if DefaultPartitions(w) != DefaultPartitions(w) {
			t.Fatalf("DefaultPartitions(%d) not deterministic", w)
		}
	}
}
