package engine

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/microcode"
	"repro/internal/sim"
)

func TestParallelForVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64, -1} {
		const n = 200
		visits := make([]int32, n)
		err := ParallelFor(workers, n, func(i int) error {
			atomic.AddInt32(&visits[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range visits {
			if v != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, v)
			}
		}
	}
}

func TestParallelForEmpty(t *testing.T) {
	called := false
	if err := ParallelFor(4, 0, func(int) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Error("body called for n=0")
	}
}

// TestParallelForReturnsLowestIndexError: when several items fail, the
// reported error must be deterministic — the one with the smallest
// index — regardless of worker scheduling.
func TestParallelForReturnsLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		for trial := 0; trial < 20; trial++ {
			err := ParallelFor(workers, 50, func(i int) error {
				if i >= 7 && i%3 == 1 {
					return fmt.Errorf("item %d failed", i)
				}
				return nil
			})
			if err == nil {
				t.Fatalf("workers=%d: error swallowed", workers)
			}
			if got := err.Error(); got != "item 7 failed" {
				t.Fatalf("workers=%d: got %q, want the lowest-index error", workers, got)
			}
		}
	}

	// Two adjacent failures, two million times: a worker that claims
	// item 1 and then sees item 2's failure must still run item 1. A
	// pool that stops every worker at the first failure skips it and
	// reports item 2, about ten times in a million calls on a 2-CPU
	// host. Under the race detector, which makes each call some twenty
	// times slower, the loop looks for data races rather than this one
	// and makes a twentieth of the calls.
	t.Run("stress", func(t *testing.T) {
		if testing.Short() {
			t.Skip("two million calls")
		}
		calls := 2_000_000
		if raceEnabled {
			calls /= 20
		}
		first, second := errors.New("item 1 failed"), errors.New("item 2 failed")
		fn := func(i int) error {
			switch i {
			case 1:
				return first
			case 2:
				return second
			}
			return nil
		}
		for call := 0; call < calls; call++ {
			if err := ParallelFor(2, 12, fn); err != first {
				t.Fatalf("call %d: got %v, want %v", call, err, first)
			}
		}
	})
}

// TestParallelForStopsIssuingAfterError: after a failure, the pool must
// not start work on items it has not yet claimed (fail-fast), though
// items already in flight may finish.
func TestParallelForStopsIssuingAfterError(t *testing.T) {
	const n = 10000
	var started int32
	boom := errors.New("boom")
	err := ParallelFor(2, n, func(i int) error {
		atomic.AddInt32(&started, 1)
		if i == 0 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if s := atomic.LoadInt32(&started); int(s) == n {
		t.Error("pool ran every item despite an early failure")
	}
}

// poolFabric is a p-rank nodeFabric of fresh nodes.
func poolFabric(t *testing.T, p int) (*nodeFabric, *Partition) {
	t.Helper()
	f := &nodeFabric{scatterFabric: scatterFabric{p: p}}
	for r := 0; r < p; r++ {
		nd, err := sim.NewNode(arch.Default())
		if err != nil {
			t.Fatal(err)
		}
		f.nodes = append(f.nodes, nd)
	}
	part, err := NewPartition(p, 2, p+2)
	if err != nil {
		t.Fatal(err)
	}
	return f, part
}

// TestLoopPoolPhases runs 1,000 back-to-back barriers on one loop and
// checks that every rank runs exactly once in each, at every worker
// count: once with the next phase arriving while the helpers spin, and
// once with a pause longer than the spin window before every phase,
// so the helpers exit and start again.
func TestLoopPoolPhases(t *testing.T) {
	blank := microcode.MustFormat(arch.Default()).NewInstr()
	for _, pause := range []time.Duration{0, spinWindow + 50*time.Microsecond} {
		for _, workers := range []int{0, 1, 2, 7, 64, -1} {
			t.Run(fmt.Sprintf("pause=%v/workers=%d", pause, workers), func(t *testing.T) {
				t.Parallel()
				const p, phases = 8, 1000
				f, part := poolFabric(t, p)
				lp, err := NewLoop(&Config{Fabric: f, Part: part, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				visits := make([]int32, p)
				instr := func(r int) *microcode.Instr {
					atomic.AddInt32(&visits[r], 1)
					return blank
				}
				for ph := 0; ph < phases; ph++ {
					time.Sleep(pause)
					if ph%2 == 0 {
						_, err = lp.Dispatch(ph, instr, 0)
					} else {
						_, err = lp.Exchange(ph, 0)
					}
					if err != nil {
						t.Fatalf("phase %d: %v", ph, err)
					}
				}
				for r, v := range visits {
					if v != phases/2 {
						t.Errorf("rank %d dispatched %d times in %d dispatches", r, v, phases/2)
					}
				}
			})
		}
	}
}

// TestPoolHelpersExit checks that no helper outlives its loop: the
// goroutine count returns to where it started within the spin window
// (plus time for the scheduler to run the exiting goroutines on a
// loaded host) after Run returns, after Run ends on a dead rank or a
// failing dispatch, and after a loop used without Run has run its
// last phase.
func TestPoolHelpersExit(t *testing.T) {
	blank := microcode.MustFormat(arch.Default()).NewInstr()
	dispatch := func(lp *Loop, it, plane int) (int, *BudgetError, error) {
		be, err := lp.Dispatch(it, func(int) *microcode.Instr { return blank }, plane)
		return 0, be, err
	}
	for _, tc := range []struct {
		name string
		run  func(f Fabric, part *Partition) error
	}{
		{"run", func(f Fabric, part *Partition) error {
			_, err := Run(&Config{Fabric: f, Part: part, Workers: -1, MaxSweeps: 20, StopAfter: 20,
				Step: func(lp *Loop, it int) (int, *BudgetError, error) { return dispatch(lp, it, 0) }})
			return err
		}},
		{"dead rank", func(f Fabric, part *Partition) error {
			_, err := Run(&Config{Fabric: f, Part: part, Workers: -1, MaxSweeps: 20, StopAfter: 20,
				Faults: MustFaultPlan(FaultEvent{Sweep: 5, Phase: PhaseDispatch, Rank: 2, Kind: FaultKillForever}),
				Step:   func(lp *Loop, it int) (int, *BudgetError, error) { return dispatch(lp, it, 0) }})
			var dre *DeadRankError
			if !errors.As(err, &dre) {
				return fmt.Errorf("got %v, want a dead rank", err)
			}
			return nil
		}},
		{"failing dispatch", func(f Fabric, part *Partition) error {
			_, err := Run(&Config{Fabric: f, Part: part, Workers: -1, MaxSweeps: 20, StopAfter: 20,
				Step: func(lp *Loop, it int) (int, *BudgetError, error) {
					plane := 0
					if it == 5 {
						plane = 99 // no such plane: the gather fails
					}
					return dispatch(lp, it, plane)
				}})
			if err == nil {
				return errors.New("a gather from a missing plane succeeded")
			}
			return nil
		}},
		{"loop without run", func(f Fabric, part *Partition) error {
			lp, err := NewLoop(&Config{Fabric: f, Part: part, Workers: -1})
			for it := 0; err == nil && it < 20; it++ {
				if _, _, err = dispatch(lp, it, 0); err == nil {
					_, err = lp.Exchange(it, 0)
				}
			}
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, part := poolFabric(t, 8)
			base := runtime.NumGoroutine()
			if err := tc.run(f, part); err != nil {
				t.Fatal(err)
			}
			end := time.Now()
			deadline := end.Add(spinWindow + 100*time.Millisecond)
			for runtime.NumGoroutine() > base {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines %v after the last phase, %d before the loop",
						runtime.NumGoroutine(), time.Since(end), base)
				}
				time.Sleep(10 * time.Microsecond)
			}
		})
	}
}
