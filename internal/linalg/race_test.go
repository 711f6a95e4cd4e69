//go:build race

package linalg

// raceDetector is set when the race detector is built in: it runs the
// shape sweep's single-goroutine products many times slower, so the
// sweep takes a smaller shape set under it (sweepShapes).
const raceDetector = true
