//go:build race

package sqldb

// raceDetector reports a -race build, whose runtime allocates and schedules
// differently: an allocation count that depends on either reads higher.
const raceDetector = true
