package hypercube

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/diag"
	"repro/internal/engine"
	"repro/internal/topo"
)

// killPlan builds a plan with one permanent kill per (sweep, rank).
func killPlan(t *testing.T, kills ...[2]int) *engine.FaultPlan {
	t.Helper()
	var evs []engine.FaultEvent
	for _, k := range kills {
		evs = append(evs, engine.FaultEvent{Sweep: k[0], Phase: engine.PhaseDispatch, Rank: k[1], Kind: engine.FaultKillForever})
	}
	plan, err := engine.NewFaultPlan(evs...)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// mirrorPlan arms the buddy mirror on a fault-free solve: its one
// kill-forever is scheduled past the last sweep of any test solve.
func mirrorPlan() *engine.FaultPlan {
	return engine.MustFaultPlan(engine.FaultEvent{
		Sweep: 1 << 20, Phase: engine.PhaseDispatch, Rank: 0, Kind: engine.FaultKillForever,
	})
}

// recoverySolve runs the parallel model problem on a 2^dim machine
// with the given plan and spare pool.
func recoverySolve(t *testing.T, dim, workers, spares, every int, plan *engine.FaultPlan) (*JacobiResult, *Machine) {
	t.Helper()
	m, err := New(smallCfg(), dim)
	if err != nil {
		t.Fatal(err)
	}
	m.Workers = workers
	m.Faults = plan
	m.CheckpointEvery = every
	if spares > 0 {
		if err := m.AddSpares(spares); err != nil {
			t.Fatal(err)
		}
	}
	res, err := m.SolveJacobi(parallelProblem(m.P()))
	if err != nil {
		t.Fatalf("recovered solve failed: %v", err)
	}
	return res, m
}

// TestPermanentKillMatrix is the acceptance matrix of the degraded-mode
// recovery protocol: a permanent node death at any rank position (first,
// middle, last), at different sweeps, on machines of 2, 4 and 8 nodes,
// recovered either by a hot spare or by a shrinking re-partition, must
// be mathematically invisible — grids, residual series and iteration
// trajectory bit-identical to the fault-free run — and deterministic
// across worker counts, clocks included.
func TestPermanentKillMatrix(t *testing.T) {
	for _, dim := range []int{1, 2, 3} {
		p := 1 << dim
		clean, cm := recoverySolve(t, dim, 0, 0, 0, nil)
		_ = cm
		ranks := []int{0, p / 2, p - 1}
		if p == 2 {
			ranks = []int{0, 1}
		}
		for _, rank := range ranks {
			for _, sweep := range []int{1, 3} {
				for _, spares := range []int{0, 1} {
					mode := "shrink"
					if spares > 0 {
						mode = "spare"
					}
					t.Run(fmt.Sprintf("p%d/rank%d/sweep%d/%s", p, rank, sweep, mode), func(t *testing.T) {
						res, m := recoverySolve(t, dim, 4, spares, 0, killPlan(t, [2]int{sweep, rank}))
						assertSameSolve(t, res, clean)
						if res.Recovery.Recoveries != 1 || res.Recovery.DeadRanks != 1 {
							t.Fatalf("recovery stats: %s", res.Recovery)
						}
						if res.Recovery.BuddyRestores != 1 {
							t.Fatalf("expected a buddy restore: %s", res.Recovery)
						}
						lv := m.Liveness()
						if spares > 0 {
							if res.Recovery.SpareActivations != 1 || lv.Live != p || lv.SparesUsed != 1 || lv.SparesFree != 0 {
								t.Fatalf("spare accounting: %s, liveness %+v", res.Recovery, lv)
							}
						} else {
							if res.Recovery.Shrinks != 1 || lv.Live != p-1 {
								t.Fatalf("shrink accounting: %s, liveness %+v", res.Recovery, lv)
							}
						}
						if len(lv.DeadAddrs) != 1 || lv.DeadAddrs[0] != topo.Gray(rank) {
							t.Fatalf("dead addresses %v, want [%d]", lv.DeadAddrs, topo.Gray(rank))
						}
						// Recovery clocks are seeded-plan functions: a second
						// run at a different worker count must reproduce them
						// bit for bit.
						again, _ := recoverySolve(t, dim, 1, spares, 0, killPlan(t, [2]int{sweep, rank}))
						if again.Cycles != res.Cycles {
							t.Fatalf("recovered clocks differ across workers: %d vs %d", again.Cycles, res.Cycles)
						}
					})
				}
			}
		}
	}
}

// TestAddSparesBounds: a negative count, or one that would take the
// pool past maxBoards (math.MaxInt included, which must not wrap the
// check), is an R040 diagnostic that builds no board; a count that
// fits provisions exactly that many. The first miss is fatal, so an
// unchecked pool never gets to the counts that would build thousands
// of boards.
func TestAddSparesBounds(t *testing.T) {
	m, err := New(smallCfg(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddSpares(2); err != nil || len(m.Spares) != 2 {
		t.Fatalf("2 spares: %d provisioned, err %v", len(m.Spares), err)
	}
	for _, n := range []int{-1, maxBoards - 1, maxBoards + 1, math.MaxInt} {
		err := m.AddSpares(n)
		var de *diag.DiagError
		if !errors.As(err, &de) || de.Rule() != diag.RuleFaultPlan || !strings.Contains(err.Error(), fmt.Sprintf("add %d spares", n)) {
			t.Fatalf("AddSpares(%d): %v, want an R040 diagnostic naming the count", n, err)
		}
		if len(m.Spares) != 2 {
			t.Fatalf("AddSpares(%d) left %d spares, want 2", n, len(m.Spares))
		}
	}
	if err := m.AddSpares(0); err != nil || len(m.Spares) != 2 {
		t.Errorf("0 spares: pool %d, err %v", len(m.Spares), err)
	}
}

// TestSpareExhaustionFallsBackToShrink loses two ranks at one barrier
// with a single spare: the lowest dead slot takes the spare, the other
// is retired, and the run stays bit-identical.
func TestSpareExhaustionFallsBackToShrink(t *testing.T) {
	clean, _ := recoverySolve(t, 2, 0, 0, 0, nil)
	res, m := recoverySolve(t, 2, 4, 1, 0, killPlan(t, [2]int{2, 0}, [2]int{2, 2}))
	assertSameSolve(t, res, clean)
	r := res.Recovery
	if r.Recoveries != 1 || r.DeadRanks != 2 || r.SpareActivations != 1 || r.Shrinks != 1 {
		t.Fatalf("spare+shrink stats: %s", r)
	}
	if lv := m.Liveness(); lv.Live != 3 || lv.SparesUsed != 1 {
		t.Fatalf("liveness %+v", lv)
	}
	if m.RecoveryCounters.Recoveries != 1 {
		t.Fatalf("machine recovery counters not accumulated: %s", m.RecoveryCounters)
	}
}

// TestSequentialKillsRecoverTwice loses two ranks at different sweeps:
// the first takes the spare, the second shrinks the already-recovered
// ring, and the result still matches the clean run bit for bit.
func TestSequentialKillsRecoverTwice(t *testing.T) {
	clean, _ := recoverySolve(t, 2, 0, 0, 0, nil)
	res, m := recoverySolve(t, 2, 4, 1, 0, killPlan(t, [2]int{2, 1}, [2]int{4, 2}))
	assertSameSolve(t, res, clean)
	r := res.Recovery
	if r.Recoveries != 2 || r.DeadRanks != 2 || r.SpareActivations != 1 || r.Shrinks != 1 {
		t.Fatalf("two-round stats: %s", r)
	}
	if lv := m.Liveness(); lv.Live != 3 || len(lv.DeadAddrs) != 2 {
		t.Fatalf("liveness %+v", lv)
	}
}

// TestRecoveryCheckpointFallback kills a rank and its buddy partner at
// one barrier: the mirror is gone with them, so recovery restores from
// the last checkpoint and re-executes the sweeps since — still
// bit-identical, with the resweeps counted.
func TestRecoveryCheckpointFallback(t *testing.T) {
	clean, _ := recoverySolve(t, 2, 0, 0, 0, nil)
	res, _ := recoverySolve(t, 2, 4, 0, 2, killPlan(t, [2]int{5, 1}, [2]int{5, 2}))
	assertSameSolve(t, res, clean)
	r := res.Recovery
	if r.CheckpointRestores != 1 || r.BuddyRestores != 0 {
		t.Fatalf("restore source: %s", r)
	}
	if r.ResweptSweeps != 1 { // checkpoint at sweep 4, death at sweep 5
		t.Fatalf("resweeps = %d, want 1 (%s)", r.ResweptSweeps, r)
	}
}

// TestRollbackAfterShrink: a rollback after a shrinking recovery
// restores a checkpoint taken on the old ring onto the new one. The
// kill-forever at sweep 4 shrinks the 4-node ring to three, and the
// transient kill at sweep 5 exhausts its budget before the next
// checkpoint boundary, so the solve rolls back to the sweep-4
// checkpoint taken on the four-rank ring and must still match the
// clean run bit for bit. The resumed boundary takes no new checkpoint:
// exactly one sweep-4 snapshot, the four-rank ring's, reaches the
// sink, and the sink sees exactly the checkpoints counted.
func TestRollbackAfterShrink(t *testing.T) {
	clean, _ := recoverySolve(t, 2, 0, 0, 0, nil)
	m, err := New(smallCfg(), 2)
	if err != nil {
		t.Fatal(err)
	}
	m.Workers = 4
	m.CheckpointEvery = 2
	m.Faults = engine.MustFaultPlan(
		engine.FaultEvent{Sweep: 4, Phase: engine.PhaseDispatch, Rank: 1, Kind: engine.FaultKillForever},
		engine.FaultEvent{Sweep: 5, Phase: engine.PhaseDispatch, Rank: 0, Kind: engine.FaultKill, Repeat: 4},
	)
	var sunk []*Checkpoint
	m.CheckpointSink = func(ck *Checkpoint) error {
		sunk = append(sunk, ck)
		return nil
	}
	res, err := m.SolveJacobi(parallelProblem(m.P()))
	if err != nil {
		t.Fatal(err)
	}
	assertSameSolve(t, res, clean)
	if res.Recovery.Shrinks != 1 || res.Faults.Restores != 1 {
		t.Fatalf("want one shrink and one rollback: %s / %s", res.Recovery, res.Faults)
	}
	if int64(len(sunk)) != res.Faults.Checkpoints {
		t.Errorf("%d snapshots reached the sink, %d counted", len(sunk), res.Faults.Checkpoints)
	}
	at4 := 0
	for _, ck := range sunk {
		if ck.Sweep == 4 {
			at4++
		}
	}
	if at4 != 1 {
		t.Errorf("%d sweep-4 snapshots reached the sink, want 1: the resumed boundary takes none", at4)
	}
}

// TestCheckpointDoesNotOutliveItsSolve: a standing machine runs many
// solves, but a solve may restore only its own snapshots. The first solve (F = 3, checkpoints every two sweeps)
// leaves one behind; the second solves the model problem without
// checkpoints under a plan that needs one — a transient kill that
// exhausts its budget, or adjacent deaths that take the buddy mirror
// with them — and must fail instead of resuming the first solve's
// iterate.
func TestCheckpointDoesNotOutliveItsSolve(t *testing.T) {
	for _, tc := range []struct {
		name string
		plan func() *engine.FaultPlan
	}{
		{"rollback", func() *engine.FaultPlan {
			return engine.MustFaultPlan(engine.FaultEvent{
				Sweep: 3, Phase: engine.PhaseDispatch, Rank: 2, Kind: engine.FaultKill, Repeat: 4})
		}},
		{"recovery", func() *engine.FaultPlan { return killPlan(t, [2]int{5, 1}, [2]int{5, 2}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := New(smallCfg(), 2)
			if err != nil {
				t.Fatal(err)
			}
			first := parallelProblem(m.P())
			for i := range first.F {
				first.F[i] = 3
			}
			m.CheckpointEvery = 2
			if _, err := m.SolveJacobi(first); err != nil {
				t.Fatal(err)
			}
			m.CheckpointEvery = 0
			m.Faults = tc.plan()
			res, err := m.SolveJacobi(parallelProblem(m.P()))
			var be *engine.BudgetError
			if err == nil {
				t.Fatalf("restored another solve's checkpoint: converged after %d iterations", res.Iterations)
			}
			if !errors.As(err, &be) && !errors.Is(err, engine.ErrNoRestorePoint) {
				t.Fatalf("err = %v, want a BudgetError or ErrNoRestorePoint", err)
			}
		})
	}
}

// TestUnrecoverableDeathSurfaces: two adjacent ranks die at one
// barrier, so the buddy mirror died with them, and with no checkpoint
// there is nothing to restore from — the solve must fail with a clear
// error, not a wrong answer.
func TestUnrecoverableDeathSurfaces(t *testing.T) {
	m, err := New(smallCfg(), 2)
	if err != nil {
		t.Fatal(err)
	}
	m.Faults = killPlan(t, [2]int{3, 1}, [2]int{3, 2})
	if _, err := m.SolveJacobi(parallelProblem(m.P())); !errors.Is(err, engine.ErrNoRestorePoint) ||
		!strings.Contains(err.Error(), "no buddy mirror") {
		t.Fatalf("unrecoverable death: %v", err)
	}
}

// TestBuddyMirrorIsFreeInSimulatedTime: arming the buddy mirror on a
// fault-free run must not move any simulated observable — the mirror
// is host-side bookkeeping, like checkpoints.
func TestBuddyMirrorIsFreeInSimulatedTime(t *testing.T) {
	clean, cm := recoverySolve(t, 2, 0, 0, 0, nil)
	m, err := New(smallCfg(), 2)
	if err != nil {
		t.Fatal(err)
	}
	m.Faults = mirrorPlan()
	res, err := m.SolveJacobi(parallelProblem(m.P()))
	if err != nil {
		t.Fatal(err)
	}
	assertSameSolve(t, res, clean)
	if res.Cycles != clean.Cycles || m.CommCycles != cm.CommCycles {
		t.Fatalf("buddy mirror moved the clocks: %d/%d vs %d/%d",
			res.Cycles, m.CommCycles, clean.Cycles, cm.CommCycles)
	}
}

// TestRecoverRanksValidation covers the ring-repair edge cases the
// solve path cannot reach.
func TestRecoverRanksValidation(t *testing.T) {
	m, err := New(smallCfg(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.RecoverRanks([]int{5}); err == nil {
		t.Error("out-of-range dead rank accepted")
	}
	if _, _, err := m.RecoverRanks([]int{1, 1}); err == nil {
		t.Error("duplicate dead rank accepted")
	}
	if _, _, err := m.RecoverRanks([]int{0, 1}); err == nil {
		t.Error("losing every rank accepted")
	}
}
