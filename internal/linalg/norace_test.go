//go:build !race

package linalg

const raceDetector = false
