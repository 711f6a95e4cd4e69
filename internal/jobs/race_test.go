//go:build race

package jobs

// raceDetector is set when the race detector is built in. Under it
// sync.Pool drops a share of what is put back, so allocation counts read
// the detector, not the code.
const raceDetector = true
