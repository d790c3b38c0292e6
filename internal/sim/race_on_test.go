//go:build race

package sim

// raceEnabled reports a -race build, where wall-clock ratios say more
// about the detector's instrumentation than about the code.
const raceEnabled = true
