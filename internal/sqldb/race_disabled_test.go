//go:build !race

package sqldb

// raceDetector reports a -race build (race_enabled_test.go).
const raceDetector = false
