package linalg

import "testing"

// withKernel runs the rest of the test or benchmark on kernel k for
// every product shape instead of the one kernelFor chooses, restoring
// the chooser afterwards. It is how the suite covers every kernel the
// host supports on every shape; nothing outside tests can choose a
// kernel.
func withKernel(tb testing.TB, k *kernel) {
	tb.Helper()
	prev := forced
	forced = k
	tb.Cleanup(func() { forced = prev })
}

// ForEachKernel runs f as one subtest or sub-benchmark per kernel this
// host supports, that kernel forced — the hook for this directory's
// external tests, which drive the engine above linalg (package
// linalg_test may import tiled; package linalg may not).
func ForEachKernel[T interface {
	testing.TB
	Run(string, func(T)) bool
}](t T, f func(T)) {
	for _, k := range kernels {
		t.Run(k.name, func(t T) {
			withKernel(t, k)
			f(t)
		})
	}
}
