//go:build !race

package embed

// raceDetector reports a -race build (race_enabled_test.go).
const raceDetector = false
