package harness

import (
	"math"
	"testing"
	"time"
)

func flatGap(ms float64) gap {
	g := make(gap, gapSamples)
	for i := range g {
		g[i] = ms
	}
	return g
}

// TestNominalTimes: an op in a block whose gaps read twice the nominal
// yardstick time counts for half its wall time, and the section's
// nominal length is the sum over its blocks.
func TestNominalTimes(t *testing.T) {
	n := yardstickNominalMs
	s := section{
		ops:     [][]sample{{{ms: 100, block: 0}, {ms: 100, block: 1}, {ms: 100, block: 1, failed: true}}},
		gaps:    []gap{flatGap(n), flatGap(n), flatGap(3 * n)},
		blockMs: []float64{100, 200},
	}
	if got := s.scale(0); got != 1 {
		t.Errorf("scale of a block between nominal gaps is %v, want 1", got)
	}
	// Block 1 sits between a gap at n and one at 3n: five samples of
	// each, so their median is 2n.
	attempted, failed, okMs, wallMs := s.counts()
	if attempted != 3 || failed != 1 {
		t.Errorf("attempted %d failed %d, want 3 and 1", attempted, failed)
	}
	if len(okMs) != 2 || okMs[0] != 100 || okMs[1] != 50 || wallMs[1] != 100 {
		t.Errorf("nominal times %v (wall %v), want [100 50] (wall [100 100])", okMs, wallMs)
	}
	if got := s.nominalSeconds(); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("nominal length %v s, want 0.2", got)
	}
	if got := s.yardstickMs(); got != n {
		t.Errorf("median yardstick %v, want %v", got, n)
	}
}

// TestTimedBlocks: the timed loop brackets every block with a gap and
// runs at least one op per client in each.
func TestTimedBlocks(t *testing.T) {
	s := timed(noopInst{}, 2, 0.2, nil)
	if len(s.blockMs) < 1 || len(s.gaps) != len(s.blockMs)+1 {
		t.Fatalf("%d blocks, %d gaps", len(s.blockMs), len(s.gaps))
	}
	for c, ops := range s.ops {
		seen := make([]bool, len(s.blockMs))
		for _, o := range ops {
			seen[o.block] = true
		}
		for b, ok := range seen {
			if !ok {
				t.Errorf("client %d ran no op in block %d", c, b)
			}
		}
	}
	for _, g := range s.gaps {
		for _, ms := range g {
			if ms <= 0 {
				t.Errorf("yardstick read %v ms", ms)
			}
		}
	}
}

type noopInst struct{}

func (noopInst) op(int, *Scope) error                          { time.Sleep(time.Millisecond); return nil }
func (noopInst) verify(bool) ([]opRef, error)                  { return nil, nil }
func (noopInst) layers(*Recorder, float64, map[string]float64) {}
func (noopInst) close()                                        {}
