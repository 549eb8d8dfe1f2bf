//go:build race

package embed

// raceDetector reports a -race build, whose sync.Pool drops some of the
// values put into it, so a pooled allocation can recur.
const raceDetector = true
