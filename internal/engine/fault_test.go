package engine

import (
	"testing"

	"repro/internal/arch"
)

// These tests exercise the plan/retry internals (trigger, backoff, the
// event parser) and moved here with the fault machinery; the hypercube
// package keeps the end-to-end fault tests that run whole solves
// through the exported aliases.

func TestFaultPlanTriggerSemantics(t *testing.T) {
	plan := MustFaultPlan(
		FaultEvent{Sweep: 1, Phase: PhaseDispatch, Rank: 0, Kind: FaultKill, Repeat: 2},
		FaultEvent{Sweep: 1, Phase: PhaseExchange, Rank: 0, Kind: FaultStall, Stall: 10},
	)
	if plan.trigger(0, PhaseDispatch, 0) != nil {
		t.Error("fired on wrong sweep")
	}
	if plan.trigger(1, PhaseDispatch, 1) != nil {
		t.Error("fired on wrong rank")
	}
	if plan.trigger(1, PhaseDispatch, 0) == nil || plan.trigger(1, PhaseDispatch, 0) == nil {
		t.Error("repeat=2 event did not fire twice")
	}
	if plan.trigger(1, PhaseDispatch, 0) != nil {
		t.Error("expired event fired")
	}
	// Counters snapshot and restore.
	snap := plan.FiredSnapshot()
	if len(snap) != 2 || snap[0] != 2 || snap[1] != 0 {
		t.Fatalf("fired snapshot = %v", snap)
	}
	plan.SetFired([]int64{0, 0})
	if plan.trigger(1, PhaseDispatch, 0) == nil {
		t.Error("reset counters did not re-arm the event")
	}
	// Nil plan is inert.
	var nilPlan *FaultPlan
	if nilPlan.trigger(0, PhaseDispatch, 0) != nil || nilPlan.FiredSnapshot() != nil {
		t.Error("nil plan not inert")
	}
	nilPlan.SetFired(nil)
}

func TestParseFaultPlan(t *testing.T) {
	plan, err := ParseFaultPlan("dispatch:kill@2:1:repeat=2, exchange:corrupt@3:0, merge:stall@1:1:stall=500")
	if err != nil {
		t.Fatal(err)
	}
	want := []FaultEvent{
		{Sweep: 2, Phase: PhaseDispatch, Rank: 1, Kind: FaultKill, Repeat: 2},
		{Sweep: 3, Phase: PhaseExchange, Rank: 0, Kind: FaultCorrupt, Repeat: 1},
		{Sweep: 1, Phase: PhaseMerge, Rank: 1, Kind: FaultStall, Repeat: 1, Stall: 500},
	}
	if len(plan.Events) != len(want) {
		t.Fatalf("parsed %d events, want %d", len(plan.Events), len(want))
	}
	for i, ev := range want {
		if plan.Events[i] != ev {
			t.Errorf("event %d = %+v, want %+v", i, plan.Events[i], ev)
		}
		// String renders back to parseable syntax (Repeat 1 is implied,
		// so it parses as 0 and NewFaultPlan would normalize it).
		round, err := parseFaultEvent(ev.String())
		if err != nil {
			t.Fatalf("event %d round trip: %v", i, err)
		}
		if round.Repeat == 0 {
			round.Repeat = 1
		}
		if round != ev {
			t.Errorf("event %d round trip: %+v, want %+v", i, round, ev)
		}
	}

	seeded, err := ParseFaultPlan("seed@42:sweeps=6:ranks=4:events=3")
	if err != nil {
		t.Fatal(err)
	}
	ref := RandomFaultPlan(42, 6, 4, 3)
	if len(seeded.Events) != 3 {
		t.Fatalf("seeded plan has %d events", len(seeded.Events))
	}
	for i := range ref.Events {
		if seeded.Events[i] != ref.Events[i] {
			t.Errorf("seeded event %d = %+v, want %+v", i, seeded.Events[i], ref.Events[i])
		}
	}

	if empty, err := ParseFaultPlan("  "); err != nil || len(empty.Events) != 0 {
		t.Errorf("blank spec: %v, %v", empty, err)
	}
	for _, bad := range []string{
		"dispatch:corrupt@1:0",             // corrupt needs a link phase
		"teleport:kill@1:0",                // unknown phase
		"dispatch:melt@1:0",                // unknown kind
		"dispatch:kill@x:0",                // bad sweep
		"dispatch:kill@1",                  // missing rank
		"dispatch:kill@1:0:bogus=3",        // unknown option
		"seed@42:sweeps=6",                 // short seed form
		"seed@x:sweeps=6:ranks=4:events=3", // bad seed
	} {
		if _, err := ParseFaultPlan(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

// TestRetryPolicyBackoff pins the fixed recovery budget: three
// attempts, four restores, and the 64-cycle backoff doubling to at most
// 4096 that nodes and the engine share.
func TestRetryPolicyBackoff(t *testing.T) {
	if maxAttempts != 3 || maxRestores != 4 {
		t.Fatalf("budget: %d attempts, %d restores", maxAttempts, maxRestores)
	}
	for attempt, want := range []int64{64, 128, 256, 512, 1024, 2048, 4096, 4096} {
		if got := arch.Backoff(attempt); got != want {
			t.Errorf("backoff(%d) = %d, want %d", attempt, got, want)
		}
	}
	if got := arch.Backoff(100); got != 4096 {
		t.Errorf("backoff uncapped: %d", got)
	}
}
