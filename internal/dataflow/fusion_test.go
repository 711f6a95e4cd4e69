package dataflow

import (
	"fmt"
	"math/rand"
	"testing"
)

// The push-based pipeline must be observationally equivalent to the old
// materialize-a-slice-per-operator semantics. This property test builds
// random chains of narrow operators (map, filter, flatMap) and checks
// the fused execution element-for-element against a driver-side
// reference evaluation on plain slices, including the Count view.
func TestFusedChainMatchesSliceSemantics(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + trial)))
			ctx := NewContext(Config{Parallelism: 4, DefaultPartitions: 4})

			input := randInts(rng, 1+rng.Intn(200))
			ds := Parallelize(ctx, input, 1+rng.Intn(5))
			ref := append([]int(nil), input...)

			steps := 1 + rng.Intn(8)
			var shape []string
			for s := 0; s < steps; s++ {
				switch op := rng.Intn(3); op {
				case 0: // map
					a, b := 1+rng.Intn(5), rng.Intn(100)
					ds = Map(ds, func(v int) int { return a*v + b })
					ref = mapSlice(ref, func(v int) int { return a*v + b })
					shape = append(shape, "map")
				case 1: // filter
					m, r := 2+rng.Intn(4), rng.Intn(2)
					ds = Filter(ds, func(v int) bool { return v%m != r })
					ref = filterSlice(ref, func(v int) bool { return v%m != r })
					shape = append(shape, "filter")
				case 2: // flatMap: duplicate evens shifted, drop every 7th
					d := rng.Intn(50)
					f := func(v int) []int {
						if v%7 == 0 {
							return nil
						}
						if v%2 == 0 {
							return []int{v, v + d}
						}
						return []int{v}
					}
					ds = FlatMap(ds, f)
					ref = flatMapSlice(ref, f)
					shape = append(shape, "flatMap")
				}
			}

			if got := Count(ds); got != int64(len(ref)) {
				t.Fatalf("chain %v: Count = %d, want %d", shape, got, len(ref))
			}
			got := Collect(ds)
			if len(got) != len(ref) {
				t.Fatalf("chain %v: Collect returned %d elements, want %d", shape, len(got), len(ref))
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("chain %v: element %d = %d, want %d", shape, i, got[i], ref[i])
				}
			}
		})
	}
}

// A chain of narrow operators over in-memory sources must execute as a
// single stage: only the action materializes, no intermediate ones.
func TestNarrowChainRunsAsOneStage(t *testing.T) {
	ctx := NewContext(Config{Parallelism: 4, DefaultPartitions: 4})
	ds := Parallelize(ctx, intRange(1000), 4)
	chained := FlatMap(
		Filter(
			Map(ds, func(v int) int { return v * 2 }),
			func(v int) bool { return v%3 != 0 }),
		func(v int) []int { return []int{v, -v} })

	ctx.ResetMetrics()
	n := Count(chained)
	snap := ctx.Metrics()
	if want := int64(2 * len(filterSlice(mapSlice(intRange(1000), func(v int) int { return v * 2 }),
		func(v int) bool { return v%3 != 0 }))); n != want {
		t.Fatalf("Count = %d, want %d", n, want)
	}
	if snap.Stages != 1 {
		t.Fatalf("narrow chain ran %d stages, want 1 (the action); per-stage: %v", snap.Stages, snap.PerStage)
	}
}

func randInts(rng *rand.Rand, n int) []int {
	xs := make([]int, n)
	for i := range xs {
		xs[i] = rng.Intn(2000) - 1000
	}
	return xs
}

func mapSlice(xs []int, f func(int) int) []int {
	out := make([]int, 0, len(xs))
	for _, v := range xs {
		out = append(out, f(v))
	}
	return out
}

func filterSlice(xs []int, pred func(int) bool) []int {
	out := make([]int, 0, len(xs))
	for _, v := range xs {
		if pred(v) {
			out = append(out, v)
		}
	}
	return out
}

func flatMapSlice(xs []int, f func(int) []int) []int {
	var out []int
	for _, v := range xs {
		out = append(out, f(v)...)
	}
	return out
}
