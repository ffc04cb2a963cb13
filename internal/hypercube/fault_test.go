package hypercube

import (
	"errors"
	"testing"

	"repro/internal/engine"
)

// solveWith runs the 4-node model problem with the given fault setup.
func solveWith(t *testing.T, workers int, plan *engine.FaultPlan, every int) (*JacobiResult, *Machine, error) {
	t.Helper()
	m, err := New(smallCfg(), 2) // 4 nodes
	if err != nil {
		t.Fatal(err)
	}
	m.Workers = workers
	m.Faults = plan
	m.CheckpointEvery = every
	res, err := m.SolveJacobi(parallelProblem(m.P()))
	return res, m, err
}

// assertSameSolve checks the observables recovery must preserve: the
// solution grid, the residual history and the iteration trajectory,
// all bit for bit.
func assertSameSolve(t *testing.T, got, want *JacobiResult) {
	t.Helper()
	if got.Iterations != want.Iterations || got.Converged != want.Converged {
		t.Fatalf("trajectory: %d/%v vs clean %d/%v",
			got.Iterations, got.Converged, want.Iterations, want.Converged)
	}
	if len(got.ResidualSeries) != len(want.ResidualSeries) {
		t.Fatalf("residual series %d vs %d entries", len(got.ResidualSeries), len(want.ResidualSeries))
	}
	for i := range want.ResidualSeries {
		if got.ResidualSeries[i] != want.ResidualSeries[i] {
			t.Fatalf("residual[%d] = %g vs %g", i, got.ResidualSeries[i], want.ResidualSeries[i])
		}
	}
	for i := range want.U {
		if got.U[i] != want.U[i] {
			t.Fatalf("u[%d] = %g vs %g", i, got.U[i], want.U[i])
		}
	}
}

type faultOutcome int

const (
	// retriedOK: the fault clears within the attempt budget (stalls are
	// absorbed outright) and the solve completes without a restore.
	retriedOK faultOutcome = iota
	// restoredOK: the attempt budget exhausts, the solve rolls back to a
	// checkpoint and completes on re-execution.
	restoredOK
	// exhausted: the budget exhausts with no checkpoint to restore;
	// SolveJacobi surfaces a BudgetError.
	exhausted
)

// TestFaultMatrix exercises every fault kind × phase × recovery
// outcome. Recovered runs must be bit-identical to the clean run, and
// every outcome — including the counters — must be identical at every
// worker count.
func TestFaultMatrix(t *testing.T) {
	cleanRes, cleanM, err := solveWith(t, 1, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !cleanRes.Converged {
		t.Fatalf("clean run did not converge (residual %g)", cleanRes.Residual)
	}
	if cleanRes.Faults != (engine.FaultStats{}) {
		t.Fatalf("clean run has fault counters: %+v", cleanRes.Faults)
	}

	// Repeat counts are chosen against the engine's 3-attempt budget:
	// Repeat<3 clears within the budget, Repeat≥3 exhausts it (then the
	// leftover firings clear within the post-restore budget).
	cases := []struct {
		name  string
		ev    engine.FaultEvent
		every int
		want  faultOutcome
	}{
		{"dispatch-kill-retried", engine.FaultEvent{Sweep: 2, Phase: engine.PhaseDispatch, Rank: 1, Kind: engine.FaultKill, Repeat: 2}, 0, retriedOK},
		{"dispatch-kill-restored", engine.FaultEvent{Sweep: 3, Phase: engine.PhaseDispatch, Rank: 2, Kind: engine.FaultKill, Repeat: 4}, 2, restoredOK},
		{"dispatch-kill-exhausted", engine.FaultEvent{Sweep: 3, Phase: engine.PhaseDispatch, Rank: 2, Kind: engine.FaultKill, Repeat: 4}, 0, exhausted},
		{"dispatch-stall-absorbed", engine.FaultEvent{Sweep: 2, Phase: engine.PhaseDispatch, Rank: 0, Kind: engine.FaultStall, Stall: 5000}, 0, retriedOK},
		{"exchange-kill-retried", engine.FaultEvent{Sweep: 2, Phase: engine.PhaseExchange, Rank: 0, Kind: engine.FaultKill, Repeat: 2}, 0, retriedOK},
		{"exchange-kill-restored", engine.FaultEvent{Sweep: 3, Phase: engine.PhaseExchange, Rank: 1, Kind: engine.FaultKill, Repeat: 5}, 2, restoredOK},
		{"exchange-kill-exhausted", engine.FaultEvent{Sweep: 3, Phase: engine.PhaseExchange, Rank: 1, Kind: engine.FaultKill, Repeat: 5}, 0, exhausted},
		{"exchange-corrupt-retried", engine.FaultEvent{Sweep: 2, Phase: engine.PhaseExchange, Rank: 2, Kind: engine.FaultCorrupt, Repeat: 1}, 0, retriedOK},
		{"exchange-corrupt-restored", engine.FaultEvent{Sweep: 3, Phase: engine.PhaseExchange, Rank: 0, Kind: engine.FaultCorrupt, Repeat: 4}, 2, restoredOK},
		{"exchange-corrupt-exhausted", engine.FaultEvent{Sweep: 3, Phase: engine.PhaseExchange, Rank: 0, Kind: engine.FaultCorrupt, Repeat: 4}, 0, exhausted},
		{"exchange-stall-absorbed", engine.FaultEvent{Sweep: 2, Phase: engine.PhaseExchange, Rank: 1, Kind: engine.FaultStall, Stall: 2500}, 0, retriedOK},
		{"merge-kill-retried", engine.FaultEvent{Sweep: 2, Phase: engine.PhaseMerge, Rank: 1, Kind: engine.FaultKill, Repeat: 2}, 0, retriedOK},
		{"merge-kill-restored", engine.FaultEvent{Sweep: 3, Phase: engine.PhaseMerge, Rank: 0, Kind: engine.FaultKill, Repeat: 4}, 2, restoredOK},
		{"merge-kill-exhausted", engine.FaultEvent{Sweep: 3, Phase: engine.PhaseMerge, Rank: 0, Kind: engine.FaultKill, Repeat: 4}, 0, exhausted},
		{"merge-corrupt-retried", engine.FaultEvent{Sweep: 2, Phase: engine.PhaseMerge, Rank: 0, Kind: engine.FaultCorrupt, Repeat: 2}, 0, retriedOK},
		{"merge-corrupt-restored", engine.FaultEvent{Sweep: 3, Phase: engine.PhaseMerge, Rank: 1, Kind: engine.FaultCorrupt, Repeat: 4}, 2, restoredOK},
		{"merge-corrupt-exhausted", engine.FaultEvent{Sweep: 3, Phase: engine.PhaseMerge, Rank: 1, Kind: engine.FaultCorrupt, Repeat: 4}, 0, exhausted},
		{"merge-stall-absorbed", engine.FaultEvent{Sweep: 2, Phase: engine.PhaseMerge, Rank: 0, Kind: engine.FaultStall, Stall: 1234}, 0, retriedOK},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			type run struct {
				res *JacobiResult
				m   *Machine
				err error
			}
			runs := map[int]run{}
			for _, workers := range []int{1, -1} {
				plan := engine.MustFaultPlan(tc.ev)
				res, m, err := solveWith(t, workers, plan, tc.every)
				runs[workers] = run{res, m, err}

				switch tc.want {
				case exhausted:
					var be *engine.BudgetError
					if !errors.As(err, &be) {
						t.Fatalf("workers=%d: err = %v, want BudgetError", workers, err)
					}
					if be.Phase != tc.ev.Phase || be.Sweep != tc.ev.Sweep {
						t.Fatalf("workers=%d: budget error %+v does not match fault %+v", workers, be, tc.ev)
					}
					continue
				case retriedOK, restoredOK:
					if err != nil {
						t.Fatalf("workers=%d: solve failed: %v", workers, err)
					}
				}
				assertSameSolve(t, res, cleanRes)

				f := res.Faults
				wantFires := int64(tc.ev.Repeat)
				if wantFires == 0 {
					wantFires = 1 // NewFaultPlan normalizes Repeat 0 to 1
				}
				if f.Injected != wantFires {
					t.Errorf("workers=%d: injected %d faults, plan repeat %d", workers, f.Injected, wantFires)
				}
				switch tc.ev.Kind {
				case engine.FaultKill:
					if f.Kills != f.Injected || f.Retries == 0 || f.BackoffCycles == 0 {
						t.Errorf("workers=%d: kill counters %+v", workers, f)
					}
				case engine.FaultCorrupt:
					if f.Corruptions != f.Injected || f.Retries == 0 {
						t.Errorf("workers=%d: corrupt counters %+v", workers, f)
					}
				case engine.FaultStall:
					if f.Stalls != 1 || f.StallCycles != tc.ev.Stall || f.Retries != 0 {
						t.Errorf("workers=%d: stall counters %+v", workers, f)
					}
				}
				if tc.want == restoredOK {
					if f.Restores == 0 || f.Exhausted == 0 || f.Checkpoints == 0 {
						t.Errorf("workers=%d: restore counters %+v", workers, f)
					}
				} else if f.Restores != 0 {
					t.Errorf("workers=%d: unexpected restore: %+v", workers, f)
				}
				// Fault recovery costs simulated time; only the fault-free
				// path is free.
				if m.MachineCycles <= cleanM.MachineCycles {
					t.Errorf("workers=%d: faulted run cycles %d not above clean %d",
						workers, m.MachineCycles, cleanM.MachineCycles)
				}
			}

			// Determinism across worker counts: identical counters,
			// clocks and (when recovered) identical solves.
			seq, par := runs[1], runs[-1]
			if (seq.err == nil) != (par.err == nil) {
				t.Fatalf("outcome differs by worker count: %v vs %v", seq.err, par.err)
			}
			if seq.m.MachineCycles != par.m.MachineCycles || seq.m.CommCycles != par.m.CommCycles {
				t.Errorf("clocks differ by worker count: machine %d/%d comm %d/%d",
					seq.m.MachineCycles, par.m.MachineCycles, seq.m.CommCycles, par.m.CommCycles)
			}
			if seq.m.FaultCounters != par.m.FaultCounters {
				t.Errorf("fault counters differ by worker count:\n  seq %+v\n  par %+v",
					seq.m.FaultCounters, par.m.FaultCounters)
			}
			if seq.err == nil {
				assertSameSolve(t, par.res, seq.res)
			}
		})
	}
}

// TestSeededKillPlanRecoversBitIdentical is the headline acceptance
// property: a seeded plan that kills nodes mid-sweep is recovered via
// retry (and checkpoint restore stands by), and the final grid is
// bit-identical to the fault-free run.
func TestSeededKillPlanRecoversBitIdentical(t *testing.T) {
	cleanRes, _, err := solveWith(t, 1, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 42, 7777} {
		for _, workers := range []int{1, -1} {
			plan := engine.RandomFaultPlan(seed, 6, 4, 5)
			res, _, err := solveWith(t, workers, plan, 3)
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			assertSameSolve(t, res, cleanRes)
			if res.Faults.Injected == 0 {
				t.Fatalf("seed %d: plan never fired", seed)
			}
		}
	}
}

// TestPermanentFaultExhaustsRestores: a fault that never heals burns
// through MaxRestores checkpoint rollbacks and then surfaces.
func TestPermanentFaultExhaustsRestores(t *testing.T) {
	plan := engine.MustFaultPlan(engine.FaultEvent{Sweep: 3, Phase: engine.PhaseDispatch, Rank: 1, Kind: engine.FaultKill, Repeat: 1 << 20})
	m, err := New(smallCfg(), 2)
	if err != nil {
		t.Fatal(err)
	}
	m.Faults = plan
	m.CheckpointEvery = 2
	_, err = m.SolveJacobi(parallelProblem(m.P()))
	var be *engine.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want BudgetError", err)
	}
	// The machine's cumulative counters only account completed solves.
	if m.FaultCounters.Restores != 0 {
		t.Errorf("failed solve leaked counters into the machine: %+v", m.FaultCounters)
	}
}

// TestEmptyPlanZeroOverhead: arming an empty plan (and no plan at all)
// charges not a single extra simulated cycle.
func TestEmptyPlanZeroOverhead(t *testing.T) {
	bare, bareM, err := solveWith(t, 1, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	empty, emptyM, err := solveWith(t, 1, engine.MustFaultPlan(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if empty.Cycles != bare.Cycles || emptyM.MachineCycles != bareM.MachineCycles ||
		emptyM.CommCycles != bareM.CommCycles {
		t.Errorf("empty plan changed the clock: %d/%d vs %d/%d",
			emptyM.MachineCycles, emptyM.CommCycles, bareM.MachineCycles, bareM.CommCycles)
	}
	if empty.Faults != (engine.FaultStats{}) {
		t.Errorf("empty plan produced counters: %+v", empty.Faults)
	}
	assertSameSolve(t, empty, bare)
}

func TestFaultPlanValidation(t *testing.T) {
	if _, err := engine.NewFaultPlan(engine.FaultEvent{Phase: engine.PhaseDispatch, Kind: engine.FaultCorrupt}); err == nil {
		t.Error("corrupt dispatch accepted: a dispatch moves no payload")
	}
	if _, err := engine.NewFaultPlan(engine.FaultEvent{Phase: engine.PhaseExchange, Kind: engine.FaultStall, Stall: 0}); err == nil {
		t.Error("stall without cycles accepted")
	}
	if _, err := engine.NewFaultPlan(engine.FaultEvent{Sweep: -1, Kind: engine.FaultKill}); err == nil {
		t.Error("negative sweep accepted")
	}
	if _, err := engine.NewFaultPlan(engine.FaultEvent{Kind: engine.FaultKind(99)}); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := engine.NewFaultPlan(engine.FaultEvent{Phase: engine.Phase(99), Kind: engine.FaultKill}); err == nil {
		t.Error("unknown phase accepted")
	}
}

// TestCustomRetryPolicy: the retry budget is three attempts, so a
// dispatch kill that fires three times, with no checkpoint to roll back
// to, surfaces as a budget error after exactly three attempts.
func TestCustomRetryPolicy(t *testing.T) {
	m, err := New(smallCfg(), 2)
	if err != nil {
		t.Fatal(err)
	}
	m.Faults = engine.MustFaultPlan(engine.FaultEvent{Sweep: 1, Phase: engine.PhaseDispatch, Rank: 0, Kind: engine.FaultKill, Repeat: 3})
	_, err = m.SolveJacobi(parallelProblem(m.P()))
	var be *engine.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want BudgetError", err)
	}
	if be.Attempts != 3 || be.Phase != engine.PhaseDispatch || be.Sweep != 1 || be.Rank != 0 {
		t.Errorf("budget error %+v, want 3 dispatch attempts at sweep 1 on rank 0", *be)
	}
}

func TestFaultStringForms(t *testing.T) {
	for _, tc := range []struct {
		got, want string
	}{
		{engine.FaultKill.String(), "kill"},
		{engine.FaultCorrupt.String(), "corrupt"},
		{engine.FaultStall.String(), "stall"},
		{engine.PhaseDispatch.String(), "dispatch"},
		{engine.PhaseExchange.String(), "exchange"},
		{engine.PhaseMerge.String(), "merge"},
		{engine.FaultEvent{Sweep: 2, Phase: engine.PhaseExchange, Rank: 1, Kind: engine.FaultStall, Repeat: 3, Stall: 9}.String(),
			"exchange:stall@2:1:repeat=3:stall=9"},
	} {
		if tc.got != tc.want {
			t.Errorf("%q != %q", tc.got, tc.want)
		}
	}
	s := engine.FaultStats{Injected: 2, Kills: 1, Stalls: 1, Retries: 1, BackoffCycles: 64, StallCycles: 9}
	if s.String() != "injected=2 (kill=1 corrupt=0 stall=1) retries=1 backoff=64 stallcycles=9 exhausted=0 checkpoints=0 restores=0" {
		t.Errorf("stats string = %q", s.String())
	}
	var e error = &engine.BudgetError{Sweep: 3, Phase: engine.PhaseMerge, Rank: 1, Attempts: 3}
	if e.Error() == "" {
		t.Error("empty budget error")
	}
}
