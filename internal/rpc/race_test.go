//go:build race

package rpc

// raceEnabled reports that the race detector is on; its instrumentation
// allocates, so the AllocsPerRun guard skips itself under -race.
const raceEnabled = true
