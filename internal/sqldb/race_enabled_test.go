//go:build race

package sqldb

// raceDetector reports a -race build, whose sync.Pool drops a share of what
// it is handed: an allocation count that relies on a pool reads higher.
const raceDetector = true
