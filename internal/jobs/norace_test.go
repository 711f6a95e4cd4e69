//go:build !race

package jobs

const raceDetector = false
