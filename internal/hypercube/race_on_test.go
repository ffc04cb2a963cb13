//go:build race

package hypercube

// raceEnabled reports whether the race detector instruments this test
// binary; wall-clock and allocation budgets are skipped under it.
const raceEnabled = true
