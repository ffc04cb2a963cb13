//go:build race

package sim_test

// raceEnabled reports whether the race detector instruments this test
// binary; allocation budgets are skipped under it, since its
// instrumentation moves values to the heap.
const raceEnabled = true
