//go:build !race

package vm

// raceEnabled is set when the tests run under the race detector.
const raceEnabled = false
