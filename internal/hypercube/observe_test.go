package hypercube

import (
	"sync/atomic"
	"testing"

	"repro/internal/engine"
)

// TestObserveHookCoverage pins the engine.Config.Observe contract on
// the Jacobi client's own engine configuration: on a fault-free
// fixed-length solve every sweep reports exactly one dispatch and one
// combine sample, every sweep but the last reports exactly one
// exchange sample (the final sweep has no successor to feed), and
// nothing else fires. The hook is documented to run on the engine's
// coordinating goroutine only, so the callback mutates its tallies
// without locks and the test runs at several worker counts — under
// -race this doubles as proof that the worker pool never calls the
// hook concurrently.
func TestObserveHookCoverage(t *testing.T) {
	const sweeps = 6
	for _, workers := range []int{1, 4, 8} {
		m, err := New(smallCfg(), 3) // 8 nodes
		if err != nil {
			t.Fatal(err)
		}
		m.Workers = workers
		m.StopAfter = sweeps

		type key struct {
			phase string
			sweep int
		}
		counts := map[key]int{}
		var calls int64 // atomic: guards against concurrent invocation
		g := parallelProblem(m.P())
		part, err := engine.NewPartition(m.P(), g.N, g.Nz)
		if err != nil {
			t.Fatal(err)
		}
		js := newJacobiSolve(m, g)
		if err := js.build(part); err != nil {
			t.Fatal(err)
		}
		cfg := js.engineConfig(nil)
		cfg.Observe = func(phase string, sweep int, cycles int64) {
			if atomic.AddInt64(&calls, 1) != atomic.LoadInt64(&calls) {
				t.Errorf("workers=%d: Observe invoked concurrently", workers)
			}
			if cycles < 0 {
				t.Errorf("workers=%d: negative cycles %d for %s@%d", workers, cycles, phase, sweep)
			}
			counts[key{phase, sweep}]++
		}
		if _, err := engine.Run(cfg); err != nil {
			t.Fatal(err)
		}

		for s := 0; s < sweeps; s++ {
			for _, phase := range []string{"dispatch", "combine"} {
				if got := counts[key{phase, s}]; got != 1 {
					t.Errorf("workers=%d: %s@%d fired %d times, want 1", workers, phase, s, got)
				}
			}
			want := 1
			if s == sweeps-1 {
				want = 0 // no successor sweep to feed
			}
			if got := counts[key{"exchange", s}]; got != want {
				t.Errorf("workers=%d: exchange@%d fired %d times, want %d", workers, s, got, want)
			}
		}
		if len(counts) != 2*sweeps+(sweeps-1) {
			t.Errorf("workers=%d: %d distinct (phase,sweep) samples, want %d: %v",
				workers, len(counts), 2*sweeps+(sweeps-1), counts)
		}
	}
}
