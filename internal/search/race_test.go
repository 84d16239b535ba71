//go:build race

package search

// raceEnabled reports that this test binary runs under the race
// detector, whose instrumentation adds allocations of its own.
const raceEnabled = true
