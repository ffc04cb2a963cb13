//go:build race

package engine

// raceEnabled reports whether the race detector instruments this test
// binary; stress loops run shorter under it.
const raceEnabled = true
