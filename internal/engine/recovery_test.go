package engine

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/diag"
	"repro/internal/microcode"
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
		{"exchange:stall@1:0:stall=9223372036854775807", []string{"exchange:stall@1:0:stall=9223372036854775807", "1..4294967296 stall cycles"}},
		{"dispatch:stall@1:0:stall=4294967297", []string{"stall=4294967297", "1..4294967296 stall cycles"}},
		{"seed@1:sweeps=4:ranks=2:events=9223372036854775807", []string{`"events=9223372036854775807"`, "at most 65536 events"}},
		{"seed@1:sweeps=4:ranks=2:events=65537", []string{`"events=65537"`, "at most 65536 events"}},
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
	// The bounds themselves are accepted.
	if _, err := ParseFaultPlan("exchange:stall@1:0:stall=4294967296"); err != nil {
		t.Errorf("stall of 1<<32 cycles rejected: %v", err)
	}
	if plan, err := ParseFaultPlan("seed@1:sweeps=4:ranks=2:events=65536"); err != nil || len(plan.Events) != 65536 {
		t.Errorf("seeded plan of 1<<16 events: %v", err)
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
func (f *scatterFabric) AddMachineCycles(c int64)             { f.machine += c }
func (f *scatterFabric) AddCommCycles(c int64)                { f.com += c }
func (f *scatterFabric) RecoverRanks([]int) (int, int, error) { return 0, 0, nil }

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

// RecoverRanks deletes the dead slots: a machine with no spares left.
func (f *nodeFabric) RecoverRanks(dead []int) (int, int, error) {
	for i := len(dead) - 1; i >= 0; i-- {
		f.nodes = slices.Delete(f.nodes, dead[i], dead[i]+1)
	}
	f.p = len(f.nodes)
	return 0, len(dead), nil
}

// TestRunSurfacesDeadRankWithoutRecover: with no Rebuild hook, a dead
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

// The restore-path tests run on a nodeFabric of four ranks, one
// interior plane each, whose two State planes hold a known global
// image at every boundary: each step checks that every rank's slab,
// ghosts included, holds its boundary's image under the partition in
// force, and then writes the next one.
const imgNz, imgNN = 6, 4 // N = 2

var imgPlanes = []int{0, 1}

// image is State plane pl's global image at boundary it.
func image(it, pl int) []float64 {
	g := make([]float64, imgNz*imgNN)
	for i := range g {
		g[i] = float64(1000*it + 100*pl + i)
	}
	return g
}

// slab is rank r's share of image(it, pl) under part, ghosts included.
func slab(part *Partition, r, it, pl int) []float64 {
	return image(it, pl)[(part.Lo[r]-1)*imgNN : (part.Lo[r]+part.Planes[r]+1)*imgNN]
}

// setSlabs writes boundary it's image into every rank's slab.
func setSlabs(f Fabric, part *Partition, it int) error {
	for r := 0; r < part.P; r++ {
		for _, pl := range imgPlanes {
			if err := f.Node(r).WriteWords(pl, 0, slab(part, r, it, pl)); err != nil {
				return err
			}
		}
	}
	return nil
}

// slabsHold checks that every rank's slab holds boundary it's image.
func slabsHold(f Fabric, part *Partition, it int) error {
	for r := 0; r < part.P; r++ {
		for _, pl := range imgPlanes {
			got, err := f.Node(r).ReadWords(pl, 0, (part.Planes[r]+2)*imgNN)
			if err != nil {
				return err
			}
			if want := slab(part, r, it, pl); !slices.Equal(got, want) {
				return fmt.Errorf("sweep %d rank %d plane %d: slab %v, want %v", it, r, pl, got, want)
			}
		}
	}
	return nil
}

// imageRun is one Run over a fresh four-rank nodeFabric holding
// boundary 0's image, whose Step checks and advances the image. cur is
// the partition in force: Rebuild moves it to the repaired ring and
// scribbles over every slab, as a real reload does, so the first
// resumed step passes only if Run wrote the state back after Rebuild.
type imageRun struct {
	f   *nodeFabric
	cfg *Config
	cur *Partition
	// rebuilt lists the repaired partitions Rebuild saw, and resumed
	// the sweep of the first step after each rebuild.
	rebuilt []*Partition
	resumed []int
}

func newImageRun(t *testing.T, maxSweeps int, evs ...FaultEvent) *imageRun {
	t.Helper()
	f := &nodeFabric{scatterFabric: scatterFabric{p: 4}}
	for r := 0; r < 4; r++ {
		nd, err := sim.NewNode(arch.Default())
		if err != nil {
			t.Fatal(err)
		}
		f.nodes = append(f.nodes, nd)
	}
	part, err := NewPartition(4, 2, imgNz)
	if err != nil {
		t.Fatal(err)
	}
	if err := setSlabs(f, part, 0); err != nil {
		t.Fatal(err)
	}
	blank := microcode.MustFormat(arch.Default()).NewInstr()
	ir := &imageRun{f: f, cur: part}
	ir.cfg = &Config{
		Fabric: f, Part: part, Faults: MustFaultPlan(evs...), MaxSweeps: maxSweeps,
		State: imgPlanes,
		Step: func(lp *Loop, it int) (int, *BudgetError, error) {
			if len(ir.resumed) < len(ir.rebuilt) {
				ir.resumed = append(ir.resumed, it)
			}
			if err := slabsHold(f, ir.cur, it); err != nil {
				return -1, nil, err
			}
			be, err := lp.Dispatch(it, func(int) *microcode.Instr { return blank }, -1)
			if be != nil || err != nil {
				return -1, be, err
			}
			return -1, nil, setSlabs(f, ir.cur, it+1)
		},
		Rebuild: func(p *Partition) error {
			for r := 0; r < p.P; r++ {
				for _, pl := range imgPlanes {
					if err := f.Node(r).WriteWords(pl, 0, make([]float64, (p.Planes[r]+2)*imgNN)); err != nil {
						return err
					}
				}
			}
			ir.cur = p
			ir.rebuilt = append(ir.rebuilt, p)
			return nil
		},
	}
	return ir
}

// TestTakeCopiesWrittenShares: a loop's later takes into a snapshot
// copy only the shares written since its last one and still hold the
// ring's image; a take by another loop copies every share.
func TestTakeCopiesWrittenShares(t *testing.T) {
	ir := newImageRun(t, 1)
	part := ir.cur
	lp, err := NewLoop(ir.cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := &Snapshot{}
	take := func(lp *Loop, it int) {
		t.Helper()
		if err := lp.take(s, it, nil); err != nil {
			t.Fatal(err)
		}
	}
	take(lp, 0)
	for i, pl := range imgPlanes {
		if !slices.Equal(s.Images[i], image(0, pl)) {
			t.Fatalf("first take: plane %d image %v", pl, s.Images[i])
		}
	}

	// Nothing written: a scribble on the images survives the take.
	s.Images[0][0], s.Images[1][0] = -1, -1
	// Rank 1 writes boundary 1's words into its slab of plane 1.
	if err := ir.f.Node(1).WriteWords(1, 0, slab(part, 1, 1, 1)); err != nil {
		t.Fatal(err)
	}
	take(lp, 1)
	want := image(0, 1)
	lo, hi := part.Lo[1]*imgNN, (part.Lo[1]+part.Planes[1])*imgNN
	copy(want[lo:hi], image(1, 1)[lo:hi])
	want[0] = -1
	if s.Images[0][0] != -1 || !slices.Equal(s.Images[1], want) {
		t.Errorf("second take copied more or less than rank 1's share of plane 1: plane 0 word 0 = %v, plane 1 image %v",
			s.Images[0][0], s.Images[1])
	}

	other, err := NewLoop(ir.cfg)
	if err != nil {
		t.Fatal(err)
	}
	take(other, 1)
	want[0] = image(0, 1)[0]
	if !slices.Equal(s.Images[0], image(0, 0)) || !slices.Equal(s.Images[1], want) {
		t.Errorf("another loop's take left stale words: %v / %v", s.Images[0], s.Images[1])
	}
}

// killsAt returns kill-forever events for ranks at one sweep.
func killsAt(sweep int, ranks ...int) []FaultEvent {
	var evs []FaultEvent
	for _, r := range ranks {
		evs = append(evs, FaultEvent{Sweep: sweep, Phase: PhaseDispatch, Rank: r, Kind: FaultKillForever})
	}
	return evs
}

// TestRunRecovers drives the recovery protocol on an imageRun. A
// kill-forever at sweep 2 shrinks the ring: Rebuild must see the
// repaired partition, and the run resumes from the mirror at sweep 2.
// Adjacent deaths lose the mirror: with no checkpoint they surface
// ErrNoRestorePoint, and with one (taken at sweep 0) the run resumes
// there. A failing Rebuild comes back wrapped.
func TestRunRecovers(t *testing.T) {
	run := func(t *testing.T, deaths []int, every int, rebuildErr error) (*RunResult, *imageRun, error) {
		ir := newImageRun(t, 4, killsAt(2, deaths...)...)
		ir.cfg.CheckpointEvery = every
		if rebuildErr != nil {
			ir.cfg.Rebuild = func(*Partition) error { return rebuildErr }
		}
		res, err := Run(ir.cfg)
		if err == nil {
			want, _ := NewPartition(4-len(deaths), 2, imgNz)
			if len(ir.rebuilt) != 1 || ir.f.P() != want.P || !reflect.DeepEqual(ir.rebuilt[0], want) {
				t.Errorf("Rebuild saw partitions %+v on a %d-rank fabric, want the repaired %+v", ir.rebuilt, ir.f.P(), want)
			}
		}
		return res, ir, err
	}

	res, ir, err := run(t, []int{1}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := RecoveryStats{Recoveries: 1, DeadRanks: 1, Shrinks: 1, BuddyRestores: 1}
	if res.Sweeps != 4 || res.Recovery != want || !slices.Equal(ir.resumed, []int{2}) {
		t.Errorf("%d sweeps, recovery %s, resumed at %v; want 4 sweeps, %s, resumed at [2]", res.Sweeps, res.Recovery, ir.resumed, want)
	}

	_, _, err = run(t, []int{1, 2}, 0, nil)
	var dre *DeadRankError
	if !errors.Is(err, ErrNoRestorePoint) || !errors.As(err, &dre) || !slices.Equal(dre.Ranks, []int{1, 2}) {
		t.Errorf("adjacent deaths without a checkpoint: %v, want ErrNoRestorePoint for ranks 1,2", err)
	}

	res, ir, err = run(t, []int{1, 2}, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	want = RecoveryStats{Recoveries: 1, DeadRanks: 2, Shrinks: 2, CheckpointRestores: 1, ResweptSweeps: 2}
	if res.Recovery != want || !slices.Equal(ir.resumed, []int{0}) || len(res.Series) != 4 {
		t.Errorf("adjacent deaths with a checkpoint: recovery %s, resumed at %v, %d residuals; want %s, resumed at [0], 4 residuals",
			res.Recovery, ir.resumed, len(res.Series), want)
	}

	errRebuild := errors.New("rebuild failed")
	_, _, err = run(t, []int{1}, 0, errRebuild)
	if !errors.Is(err, errRebuild) || !strings.HasPrefix(err.Error(), "engine: recovering from engine: sweep 2: rank(s) 1 permanently dead: ") {
		t.Errorf("failing Rebuild: %v", err)
	}
}

// TestRollbackRestoresCheckpoint: a retry budget that runs out at
// sweep 3 rolls the run back to the checkpoint kept at sweep 2, on the
// same ring, and the run re-sweeps from there. The restore is free:
// every cycle on the fabric's clocks is one a phase reported, and the
// failed dispatch's retries are the only extra ones.
func TestRollbackRestoresCheckpoint(t *testing.T) {
	ir := newImageRun(t, 4, FaultEvent{Sweep: 3, Phase: PhaseDispatch, Rank: 1, Kind: FaultKill, Repeat: 3})
	ir.cfg.CheckpointEvery = 2
	var observed int64
	var dispatched []int
	ir.cfg.Observe = func(phase string, sweep int, cycles int64) {
		observed += cycles
		if phase == "dispatch" {
			dispatched = append(dispatched, sweep)
		}
	}
	res, err := Run(ir.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(dispatched, []int{0, 1, 2, 3, 2, 3}) {
		t.Errorf("dispatched sweeps %v, want a rollback from 3 to 2", dispatched)
	}
	want := FaultStats{Injected: 3, Kills: 3, Retries: 2, BackoffCycles: arch.Backoff(0) + arch.Backoff(1), Exhausted: 1, Checkpoints: 2, Restores: 1}
	if res.Sweeps != 4 || res.Faults != want {
		t.Errorf("%d sweeps, faults %s; want 4 sweeps, %s", res.Sweeps, res.Faults, want)
	}
	if ir.f.machine != observed || ir.f.com != 0 {
		t.Errorf("clocks machine=%d comm=%d, want the phases' %d and 0", ir.f.machine, ir.f.com, observed)
	}
}

// TestRollbackAfterShrinkRestoresOldRing: a checkpoint taken on the
// four-rank ring serves a rollback on the ring a recovery shrank. The
// kept checkpoint at sweep 2 is the recovery's source when adjacent
// ranks die, and the mirror of the same boundary when one does; either
// way a budget that runs out at sweep 3 writes it onto the new
// partition, ghosts included, and the re-swept boundary checks every
// slab.
func TestRollbackAfterShrinkRestoresOldRing(t *testing.T) {
	for _, deaths := range [][]int{{1}, {1, 2}} {
		evs := append(killsAt(2, deaths...), FaultEvent{Sweep: 3, Phase: PhaseDispatch, Rank: 0, Kind: FaultKill, Repeat: 3})
		ir := newImageRun(t, 4, evs...)
		ir.cfg.CheckpointEvery = 2
		var dispatched []int
		ir.cfg.Observe = func(phase string, sweep int, _ int64) {
			if phase == "dispatch" {
				dispatched = append(dispatched, sweep)
			}
		}
		res, err := Run(ir.cfg)
		if err != nil {
			t.Fatalf("deaths %v: %v", deaths, err)
		}
		if ir.cur.P != 4-len(deaths) || res.Faults.Restores != 1 || res.Recovery.Shrinks != int64(len(deaths)) {
			t.Errorf("deaths %v: %d ranks, faults %s, recovery %s; want %d ranks, one restore and a shrink",
				deaths, ir.cur.P, res.Faults, res.Recovery, 4-len(deaths))
		}
		if !slices.Equal(dispatched, []int{0, 1, 2, 2, 3, 2, 3}) || res.Sweeps != 4 {
			t.Errorf("deaths %v: dispatched sweeps %v, %d sweeps; want [0 1 2 2 3 2 3], 4", deaths, dispatched, res.Sweeps)
		}
	}
}

// TestMirrorRecoveryKeepsItsBoundary: after the mirror serves a
// recovery at sweep 2, a budget that runs out at sweep 3 rolls back to
// sweep 2, the newer of the mirror's boundary and the sweep-0
// checkpoint, so sweeps 0 and 1 are not swept again.
func TestMirrorRecoveryKeepsItsBoundary(t *testing.T) {
	evs := append(killsAt(2, 1), FaultEvent{Sweep: 3, Phase: PhaseDispatch, Rank: 0, Kind: FaultKill, Repeat: 3})
	ir := newImageRun(t, 4, evs...)
	ir.cfg.CheckpointEvery = 4
	var dispatched []int
	ir.cfg.Observe = func(phase string, sweep int, _ int64) {
		if phase == "dispatch" {
			dispatched = append(dispatched, sweep)
		}
	}
	res, err := Run(ir.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(dispatched, []int{0, 1, 2, 2, 3, 2, 3}) || res.Faults.Restores != 1 || res.Faults.Checkpoints != 1 {
		t.Errorf("dispatched sweeps %v, faults %s; want [0 1 2 2 3 2 3], one restore, one checkpoint", dispatched, res.Faults)
	}
}

// TestResumeWritesSnapshot: Resume is on every slab before the first
// Step, the run continues its sweep and series, and no checkpoint is
// taken at its boundary; the next boundary's checkpoint reaches Take
// holding that boundary's image.
func TestResumeWritesSnapshot(t *testing.T) {
	ir := newImageRun(t, 5) // the slabs hold boundary 0's image
	ir.cfg.Resume = &Snapshot{Sweep: 2, Series: []float64{7, 8}, Images: [][]float64{image(2, 0), image(2, 1)}}
	ir.cfg.CheckpointEvery = 2
	var taken []int
	ir.cfg.Take = func(snap *Snapshot, live FaultStats) error {
		taken = append(taken, snap.Sweep)
		for i, pl := range imgPlanes {
			if !slices.Equal(snap.Images[i], image(snap.Sweep, pl)) {
				t.Errorf("checkpoint at sweep %d: plane %d image %v", snap.Sweep, pl, snap.Images[i])
			}
		}
		if live.Checkpoints != 1 {
			t.Errorf("checkpoint at sweep %d counted %d", snap.Sweep, live.Checkpoints)
		}
		return nil
	}
	res, err := Run(ir.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(taken, []int{4}) || res.Faults.Checkpoints != 1 {
		t.Errorf("checkpoints taken at %v (%d counted), want [4]", taken, res.Faults.Checkpoints)
	}
	if res.Sweeps != 5 || len(res.Series) != 5 || res.Series[0] != 7 || res.Series[1] != 8 {
		t.Errorf("%d sweeps, series %v; want 5 sweeps continuing [7 8]", res.Sweeps, res.Series)
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

// TestNewLoopValidatesExchangeSchedule: the loop derives its exchange
// from the fabric's P, so NewLoop refuses a partition over a different
// rank count — its ring pairs would name ranks the fabric does not
// have. On a valid loop over real nodes, a dispatch that gathers and
// the exchange after it leave each rank's ghost planes holding its
// neighbours' faces and change no other word, with no plan and with
// an empty one, over even and uneven slabs.
func TestNewLoopValidatesExchangeSchedule(t *testing.T) {
	part, err := NewPartition(4, 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewLoop(&Config{Fabric: &scatterFabric{p: 3}, Part: part})
	if err == nil || !strings.Contains(err.Error(), "partition over 4 ranks on a 3-rank fabric") {
		t.Errorf("mismatched partition: %v", err)
	}
	const nn, plane = 4, 1 // N = 2; plane 0 is a bystander
	blank := microcode.MustFormat(arch.Default()).NewInstr()
	for p := 1; p <= 6; p++ {
		for _, plan := range []*FaultPlan{nil, MustFaultPlan()} {
			part, err := NewPartition(p, 2, 2*p+1+p/2)
			if err != nil {
				t.Fatal(err)
			}
			f := &nodeFabric{scatterFabric: scatterFabric{p: p}}
			// before[r][pl] is rank r's plane pl: its slab, ghosts
			// included, and one word past it.
			before := make([][][]float64, p)
			for r := 0; r < p; r++ {
				nd, err := sim.NewNode(arch.Default())
				if err != nil {
					t.Fatal(err)
				}
				f.nodes = append(f.nodes, nd)
				for pl := 0; pl <= plane; pl++ {
					words := make([]float64, (part.Planes[r]+2)*nn+1)
					for i := range words {
						words[i] = float64(10000*r + 1000*pl + i)
					}
					if err := nd.WriteWords(pl, 0, words); err != nil {
						t.Fatal(err)
					}
					before[r] = append(before[r], words)
				}
			}
			lp, err := NewLoop(&Config{Fabric: f, Part: part, Faults: plan, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := lp.Dispatch(0, func(int) *microcode.Instr { return blank }, plane); err != nil {
				t.Fatal(err)
			}
			if _, err := lp.Exchange(0, plane); err != nil {
				t.Fatal(err)
			}
			for r := 0; r < p; r++ {
				for pl := 0; pl <= plane; pl++ {
					want := slices.Clone(before[r][pl])
					if pl == plane && r > 0 { // left neighbour's last owned plane
						left := part.Planes[r-1] * nn
						copy(want[:nn], before[r-1][pl][left:left+nn])
					}
					if pl == plane && r+1 < p { // right neighbour's first owned plane
						copy(want[(part.Planes[r]+1)*nn:], before[r+1][pl][nn:2*nn])
					}
					got, err := f.nodes[r].ReadWords(pl, 0, len(want))
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got, want) {
						t.Errorf("p=%d plan=%v rank %d plane %d: %v, want %v", p, plan != nil, r, pl, got, want)
					}
				}
			}
		}
	}
}
