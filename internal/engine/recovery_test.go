package engine

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/diag"
	"repro/internal/sim"
)

func TestKillForeverPlanValidation(t *testing.T) {
	// A node dies, not a message: only the dispatch phase is legal.
	for _, ph := range []Phase{PhaseExchange, PhaseMerge} {
		if _, err := NewFaultPlan(FaultEvent{Sweep: 1, Phase: ph, Rank: 0, Kind: FaultKillForever}); err == nil {
			t.Errorf("kill-forever accepted on %s phase", ph)
		}
	}
	// A dead node cannot die twice: Repeat is forced to one firing.
	plan, err := NewFaultPlan(FaultEvent{Sweep: 1, Phase: PhaseDispatch, Rank: 0, Kind: FaultKillForever, Repeat: 5})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Events[0].Repeat != 1 {
		t.Errorf("kill-forever repeat = %d, want 1", plan.Events[0].Repeat)
	}
	if plan.Events[0].Kind.String() != "kill-forever" {
		t.Errorf("kind renders as %q", plan.Events[0].Kind)
	}

	var nilPlan *FaultPlan
	if nilPlan.HasPermanent() {
		t.Error("nil plan reports permanent faults")
	}
	if MustFaultPlan(FaultEvent{Sweep: 1, Phase: PhaseDispatch, Kind: FaultKill}).HasPermanent() {
		t.Error("transient-only plan reports permanent faults")
	}
	if !plan.HasPermanent() {
		t.Error("kill-forever plan not reported as permanent")
	}
}

// TestParseFaultPlanDiagnostics: every parse failure is a typed
// diagnostic under the fault-plan rule, quoting the offending token and
// the grammar it violated — the error is the documentation.
func TestParseFaultPlanDiagnostics(t *testing.T) {
	cases := []struct {
		spec string
		want []string // fragments the message must carry
	}{
		{"dispatch:kill", []string{`"dispatch:kill"`, "@sweep:rank"}},
		{"teleport:kill@1:0", []string{`"teleport"`, "dispatch, exchange or merge"}},
		{"dispatch:melt@1:0", []string{`"melt"`, "kill, kill-forever, corrupt or stall"}},
		{"dispatch:kill@x:0", []string{`"x"`, "not an integer", "phase:kind@sweep:rank"}},
		{"dispatch:kill@1:0:bogus=3", []string{`"bogus=3"`, "repeat= or stall="}},
		{"exchange:kill-forever@1:0", []string{"dispatch phase only"}},
		{"seed@42:sweeps=6", []string{"seed@S:sweeps=N:ranks=P:events=K"}},
	}
	for _, tc := range cases {
		_, err := ParseFaultPlan(tc.spec)
		if err == nil {
			t.Errorf("spec %q accepted", tc.spec)
			continue
		}
		var de *diag.DiagError
		if !errors.As(err, &de) {
			t.Errorf("spec %q: error %v is not a *diag.DiagError", tc.spec, err)
			continue
		}
		if de.Rule() != diag.RuleFaultPlan {
			t.Errorf("spec %q: rule %s, want %s", tc.spec, de.Rule(), diag.RuleFaultPlan)
		}
		for _, frag := range tc.want {
			if !strings.Contains(err.Error(), frag) {
				t.Errorf("spec %q: error %q does not name %q", tc.spec, err, frag)
			}
		}
	}

	// Two events aiming at one (sweep, phase, rank) point: the second
	// could never fire, so the spec is rejected with both tokens named.
	_, err := ParseFaultPlan("dispatch:kill@2:1, dispatch:stall@2:1:stall=9")
	if err == nil {
		t.Fatal("duplicate fault point accepted")
	}
	for _, frag := range []string{"duplicates", `"dispatch:kill@2:1"`, `"dispatch:stall@2:1:stall=9"`, "repeat=N"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("duplicate error %q does not name %q", err, frag)
		}
	}
	// The same point on different sweeps or phases is fine.
	if _, err := ParseFaultPlan("dispatch:kill@2:1, dispatch:kill@3:1, exchange:kill@2:1"); err != nil {
		t.Errorf("distinct points rejected: %v", err)
	}

	plan, err := ParseFaultPlan("dispatch:kill-forever@4:2")
	if err != nil {
		t.Fatal(err)
	}
	if ev := plan.Events[0]; ev.Kind != FaultKillForever || ev.Sweep != 4 || ev.Rank != 2 || ev.Repeat != 1 {
		t.Errorf("parsed kill-forever = %+v", ev)
	}
}

// scatterFabric is a minimal Fabric for pricing tests: unit word,
// cost = bytes·(1+hops), rank distance |from-to| hops.
type scatterFabric struct {
	p            int
	machine, com int64
}

func (f *scatterFabric) P() int                               { return f.p }
func (f *scatterFabric) Topology() string                     { return "test" }
func (f *scatterFabric) ExchangePairs() [2][]int              { return [2][]int{} }
func (f *scatterFabric) CombineHops() []int                   { return nil }
func (f *scatterFabric) Node(int) *sim.Node                   { return nil }
func (f *scatterFabric) WordBytes() int                       { return 1 }
func (f *scatterFabric) SendCost(bytes int64, hops int) int64 { return bytes * int64(1+hops) }
func (f *scatterFabric) Hops(from, to int) int {
	if from > to {
		return from - to
	}
	return to - from
}
func (f *scatterFabric) Copy(int, int, int64, int, int, int64, int) (int64, error) { return 0, nil }
func (f *scatterFabric) Corrupt(int, int, int64, int) error                        { return nil }
func (f *scatterFabric) AddMachineCycles(c int64)                                  { f.machine += c }
func (f *scatterFabric) AddCommCycles(c int64)                                     { f.com += c }

// TestChargeScatter: the post-recovery scatter charges every non-empty
// message to the router aggregate and only the worst one to the
// critical path — concurrent transfers, deterministic price.
func TestChargeScatter(t *testing.T) {
	f := &scatterFabric{p: 4}
	// words: rank0 free self-copy (10 words × 0 hops → cost 10), rank2
	// skipped, rank3 the worst (5 words × 4 → 20), rank1 (8 × 2 → 16).
	worst := ChargeScatter(f, []int64{10, 8, 0, 5})
	if worst != 20 {
		t.Errorf("worst message = %d, want 20", worst)
	}
	if f.machine != 20 || f.com != 10+16+20 {
		t.Errorf("clocks machine=%d comm=%d, want 20/46", f.machine, f.com)
	}
	// Zero words move nothing and charge nothing.
	f = &scatterFabric{p: 4}
	if w := ChargeScatter(f, make([]int64, 4)); w != 0 || f.machine != 0 || f.com != 0 {
		t.Errorf("empty scatter charged machine=%d comm=%d worst=%d", f.machine, f.com, w)
	}
}

func TestDeadRankErrorAndStats(t *testing.T) {
	err := &DeadRankError{Sweep: 7, Ranks: []int{1, 3}}
	for _, frag := range []string{"sweep 7", "1,3", "permanently dead"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q does not name %q", err, frag)
		}
	}
	var s RecoveryStats
	s.Add(RecoveryStats{Recoveries: 1, DeadRanks: 2, SpareActivations: 1, Shrinks: 1,
		BuddyRestores: 1, ResweptSweeps: 3})
	s.Add(RecoveryStats{Recoveries: 1, DeadRanks: 1, CheckpointRestores: 1})
	want := "recoveries=2 dead=3 spares=1 shrinks=1 buddy=1 checkpoint=1 resweeps=3"
	if s.String() != want {
		t.Errorf("stats = %q, want %q", s, want)
	}
}

// nodeFabric is scatterFabric with real nodes behind the ranks, so a
// Run can combine residuals.
type nodeFabric struct {
	scatterFabric
	nodes []*sim.Node
}

func (f *nodeFabric) Node(r int) *sim.Node { return f.nodes[r] }

// TestRunSurfacesDeadRankWithoutRecover: with no Recover hook, a dead
// rank ends Run with the *DeadRankError the step reported and the
// partial result — the iterations completed and the fault counters so
// far.
func TestRunSurfacesDeadRankWithoutRecover(t *testing.T) {
	f := &nodeFabric{scatterFabric: scatterFabric{p: 2}}
	for r := 0; r < 2; r++ {
		nd, err := sim.NewNode(arch.Default())
		if err != nil {
			t.Fatal(err)
		}
		nd.RedReg[0] = 1
		f.nodes = append(f.nodes, nd)
	}
	part, err := NewPartition(2, 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	dead := &DeadRankError{Sweep: 3, Ranks: []int{1}}
	res, err := Run(&Config{
		Fabric: f, Part: part, MaxSweeps: 10, Tol: 0.5,
		Step: func(lp *Loop, it int) (int, *BudgetError, error) {
			if it == dead.Sweep {
				return -1, nil, dead
			}
			return -1, nil, nil
		},
	})
	if err != error(dead) {
		t.Fatalf("err = %v, want the step's DeadRankError", err)
	}
	if res == nil || res.Sweeps != 3 || len(res.Series) != 3 || res.Faults != (FaultStats{}) {
		t.Errorf("partial result = %+v, want 3 sweeps and zero counters", res)
	}
}

// roundsFabric is nodeFabric with a two-round combine tree.
type roundsFabric struct{ nodeFabric }

func (f *roundsFabric) CombineHops() []int { return []int{1, 1} }

// TestRunRejectsFaultsOutsideMachine: an event naming a rank, exchange
// pair or combine round the starting machine does not have could never
// fire, so Run refuses the plan with an R040 diagnostic that names the
// event and the valid range. In-range events pass, and so does a sweep
// past the run's end.
func TestRunRejectsFaultsOutsideMachine(t *testing.T) {
	f := &roundsFabric{nodeFabric{scatterFabric: scatterFabric{p: 4}}}
	for r := 0; r < 4; r++ {
		nd, err := sim.NewNode(arch.Default())
		if err != nil {
			t.Fatal(err)
		}
		f.nodes = append(f.nodes, nd)
	}
	part, err := NewPartition(4, 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	run := func(spec string) error {
		plan, err := ParseFaultPlan(spec)
		if err != nil {
			t.Fatal(err)
		}
		_, err = Run(&Config{
			Fabric: f, Part: part, Faults: plan, MaxSweeps: 3, Tol: 0.5,
			Step: func(*Loop, int) (int, *BudgetError, error) { return -1, nil, nil },
		})
		return err
	}
	if err := run("dispatch:kill@99:3,exchange:corrupt@0:2,merge:stall@0:1:stall=5"); err != nil {
		t.Errorf("in-range plan rejected: %v", err)
	}
	for spec, want := range map[string]string{
		"dispatch:kill-forever@1:4":  "event dispatch:kill-forever@1:4 names rank 4, but the 4-rank machine's ranks are 0..3",
		"exchange:stall@0:3:stall=5": "event exchange:stall@0:3:stall=5 names exchange pair 3, but the 4-rank machine's exchange pairs are 0..2",
		"merge:corrupt@2:2":          "event merge:corrupt@2:2 names combine round 2, but the 4-rank machine's combine rounds are 0..1",
	} {
		err := run(spec)
		var de *diag.DiagError
		if !errors.As(err, &de) || de.Rule() != diag.RuleFaultPlan || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v, want %s %q", spec, err, diag.RuleFaultPlan, want)
		}
	}
}

// badPairFabric returns an exchange schedule naming a rank beyond the
// live count — the misconfiguration NewLoop must reject up front, per
// the Fabric.Hops invariant.
type badPairFabric struct{ scatterFabric }

func (f *badPairFabric) ExchangePairs() [2][]int { return [2][]int{{2}, nil} }

func TestNewLoopValidatesExchangeSchedule(t *testing.T) {
	part, err := NewPartition(3, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewLoop(&Config{Fabric: &badPairFabric{scatterFabric{p: 3}}, Part: part})
	if err == nil || !strings.Contains(err.Error(), "exchange pair (2,3) outside 3 live ranks") {
		t.Errorf("bad schedule: %v", err)
	}
	// A fabric with no schedule of its own falls back to the ring parity
	// classes.
	lp, err := NewLoop(&Config{Fabric: &scatterFabric{p: 3}, Part: part})
	if err != nil {
		t.Fatal(err)
	}
	want := [2][]int{PairsOfParity(3, 0), PairsOfParity(3, 1)}
	if !reflect.DeepEqual(lp.pairs, want) {
		t.Errorf("fallback pairs = %v, want %v", lp.pairs, want)
	}
}
