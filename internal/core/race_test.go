//go:build race

package core

// raceEnabled reports that the race detector is on; its instrumentation
// allocates, so the AllocsPerRun guards skip themselves under -race.
const raceEnabled = true
