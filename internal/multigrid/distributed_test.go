package multigrid

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/engine"
	"repro/internal/hypercube"
	"repro/internal/obs"
	"repro/internal/topo"
)

// The distributed V-cycle must reproduce the single-node solver's
// trajectory bit for bit: same V-cycle count, same residual after
// every cycle, same final field — at every hypercube size and worker
// count, with either halo schedule (the pairwise one selected by an
// empty fault plan).

func distRef(t *testing.T, cfg arch.Config, n, levels int, tol float64, maxCycles int) *Result {
	t.Helper()
	s, err := New(cfg, n, levels, tol, maxCycles)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestDistributedMatchesSingleNode(t *testing.T) {
	cfg := arch.Default()
	const (
		n         = 17
		levels    = 3
		tol       = 1e-6
		maxCycles = 100
	)
	ref := distRef(t, cfg, n, levels, tol, maxCycles)
	for _, dim := range []int{0, 1, 2, 3} {
		for _, workers := range []int{1, 4} {
			for _, serial := range []bool{false, true} {
				if serial && (dim != 2 || workers != 4) {
					continue // one serial-schedule probe is enough
				}
				m, err := hypercube.New(cfg, dim)
				if err != nil {
					t.Fatal(err)
				}
				dc := DistConfig{
					Fabric: m.Fabric(), Cfg: cfg,
					N: n, Levels: levels, Tol: tol, MaxCycles: maxCycles,
					Workers: workers,
				}
				if serial {
					dc.Faults = engine.MustFaultPlan()
				}
				d, err := NewDistributed(dc)
				if err != nil {
					t.Fatal(err)
				}
				res, err := d.Run()
				if err != nil {
					t.Fatalf("P=%d workers=%d: %v", m.P(), workers, err)
				}
				if res.VCycles != ref.VCycles || !res.Converged {
					t.Fatalf("P=%d workers=%d serial=%v: %d V-cycles (converged=%v), single-node %d",
						m.P(), workers, serial, res.VCycles, res.Converged, ref.VCycles)
				}
				if len(res.ResidualSeries) != len(ref.ResidualSeries) {
					t.Fatalf("P=%d workers=%d: series %d entries, single-node %d",
						m.P(), workers, len(res.ResidualSeries), len(ref.ResidualSeries))
				}
				for i := range ref.ResidualSeries {
					if res.ResidualSeries[i] != ref.ResidualSeries[i] {
						t.Fatalf("P=%d workers=%d: residual[%d] = %g, single-node %g",
							m.P(), workers, i, res.ResidualSeries[i], ref.ResidualSeries[i])
					}
				}
				for g := range ref.U {
					if res.U[g] != ref.U[g] {
						t.Fatalf("P=%d workers=%d: u[%d] = %g, single-node %g",
							m.P(), workers, g, res.U[g], ref.U[g])
					}
				}
				if m.MachineCycles == 0 || (m.P() > 1 && m.CommCycles == 0) {
					t.Errorf("P=%d: clocks not charged (machine=%d comm=%d)",
						m.P(), m.MachineCycles, m.CommCycles)
				}
			}
		}
	}
}

// TestDistributedUnevenSlabs: 8 ranks over 15 interior planes forces
// an uneven partition (seven 2-plane slabs plus one 1-plane slab); the
// trajectory must still match the single node bit for bit — covered by
// the dim=3 case above, so here we just pin the partition shape.
func TestDistributedUnevenSlabs(t *testing.T) {
	cfg := arch.Default()
	m, err := hypercube.New(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDistributed(DistConfig{
		Fabric: m.Fabric(), Cfg: cfg,
		N: 17, Levels: 2, Tol: 1e-6, MaxCycles: 1, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.Part.Uniform() {
		t.Fatal("15 planes over 8 ranks should be uneven")
	}
	total := 0
	for r := 0; r < 8; r++ {
		total += d.Part.Planes[r]
	}
	if total != 15 {
		t.Fatalf("slabs cover %d planes, want 15", total)
	}
}

func TestDistributedRejectsBadShapes(t *testing.T) {
	cfg := arch.Default()
	m, err := hypercube.New(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDistributed(DistConfig{Fabric: m.Fabric(), Cfg: cfg, N: 5, Levels: 1, Tol: 1e-6, MaxCycles: 1}); err == nil {
		t.Error("3 interior planes over 4 ranks accepted")
	}
	if _, err := NewDistributed(DistConfig{Cfg: cfg, N: 17, Levels: 2, Tol: 1e-6, MaxCycles: 1}); err == nil {
		t.Error("nil fabric accepted")
	}
	if _, err := NewDistributed(DistConfig{Fabric: m.Fabric(), Cfg: cfg, N: 17, Levels: 0, Tol: 1e-6, MaxCycles: 1}); err == nil {
		t.Error("zero levels accepted")
	}
}

// TestDistributedPermanentKillRecovers: a rank dies mid-V-cycle; the
// driver repairs the ring (hot spare or shrinking re-partition),
// restores the cycle-boundary mirror and replays the cycle. The
// trajectory must stay bit-identical to the fault-free run, with
// deterministic clocks across worker counts.
func TestDistributedPermanentKillRecovers(t *testing.T) {
	cfg := arch.Default()
	const (
		n         = 17
		levels    = 3
		tol       = 1e-6
		maxCycles = 100
	)
	ref := distRef(t, cfg, n, levels, tol, maxCycles)
	kill := func() *engine.FaultPlan {
		return engine.MustFaultPlan(engine.FaultEvent{
			Sweep: 10, Phase: engine.PhaseDispatch, Rank: 1, Kind: engine.FaultKillForever})
	}
	for _, spares := range []int{0, 1} {
		solve := func(workers int) (*DistResult, *hypercube.Machine) {
			m, err := hypercube.New(cfg, 2)
			if err != nil {
				t.Fatal(err)
			}
			if spares > 0 {
				if err := m.AddSpares(spares); err != nil {
					t.Fatal(err)
				}
			}
			d, err := NewDistributed(DistConfig{
				Fabric: m.Fabric(), Cfg: cfg,
				N: n, Levels: levels, Tol: tol, MaxCycles: maxCycles,
				Workers: workers, Faults: kill(),
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := d.Run()
			if err != nil {
				t.Fatalf("spares=%d workers=%d: recovered solve failed: %v", spares, workers, err)
			}
			return res, m
		}
		res, m := solve(4)
		if res.VCycles != ref.VCycles || !res.Converged {
			t.Fatalf("spares=%d: %d V-cycles, fault-free %d", spares, res.VCycles, ref.VCycles)
		}
		for i := range ref.ResidualSeries {
			if res.ResidualSeries[i] != ref.ResidualSeries[i] {
				t.Fatalf("spares=%d: residual[%d] = %g, fault-free %g",
					spares, i, res.ResidualSeries[i], ref.ResidualSeries[i])
			}
		}
		for g := range ref.U {
			if res.U[g] != ref.U[g] {
				t.Fatalf("spares=%d: u[%d] = %g, fault-free %g", spares, g, res.U[g], ref.U[g])
			}
		}
		// The mirror is taken at the top of the dying V-cycle, so the
		// engine resumes at the cycle that died: no sweep boundary is
		// re-crossed.
		r := res.Recovery
		if r.Recoveries != 1 || r.DeadRanks != 1 || r.BuddyRestores != 1 || r.ResweptSweeps != 0 {
			t.Fatalf("spares=%d: recovery stats %s", spares, r)
		}
		lv := m.Liveness()
		if spares > 0 {
			if r.SpareActivations != 1 || lv.Live != 4 || lv.SparesUsed != 1 {
				t.Fatalf("spare accounting: %s, liveness %+v", r, lv)
			}
		} else if r.Shrinks != 1 || lv.Live != 3 {
			t.Fatalf("shrink accounting: %s, liveness %+v", r, lv)
		}
		// Recovery clocks are pure functions of the seeded plan.
		again, m1 := solve(1)
		if again.Recovery != res.Recovery {
			t.Fatalf("spares=%d: recovery stats differ across workers: %s vs %s", spares, again.Recovery, res.Recovery)
		}
		if m1.MachineCycles != m.MachineCycles || m1.CommCycles != m.CommCycles {
			t.Fatalf("spares=%d: recovered clocks differ across workers: %d/%d vs %d/%d",
				spares, m1.MachineCycles, m1.CommCycles, m.MachineCycles, m.CommCycles)
		}
	}
}

// TestDistributedRecoveryOnEngineTimeline: multigrid recovery runs the
// engine's protocol, so a recovered run keeps one simulated-clock
// timeline across the loop generations — shard-0 engine span
// timestamps never decrease — and records the engine's recovery
// metrics, not just the dead rank.
func TestDistributedRecoveryOnEngineTimeline(t *testing.T) {
	cfg := arch.Default()
	m, err := hypercube.New(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New() // engine spans only: the nodes are not armed
	d, err := NewDistributed(DistConfig{
		Fabric: m.Fabric(), Cfg: cfg,
		N: 17, Levels: 2, Tol: 1e-6, MaxCycles: 100, Workers: 2, Obs: o,
		Faults: engine.MustFaultPlan(engine.FaultEvent{
			Sweep: 9, Phase: engine.PhaseDispatch, Rank: 1, Kind: engine.FaultKillForever}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(); err != nil {
		t.Fatal(err)
	}
	last := int64(0)
	for _, sp := range o.Tr.Spans() {
		if sp.Cat != "engine" {
			continue
		}
		if sp.TS < last {
			t.Fatalf("engine %s span at ts=%d after ts=%d: the timeline restarted", sp.Name, sp.TS, last)
		}
		last = sp.TS
	}
	totals := o.Reg.Totals()
	for _, name := range []string{"recoveries", "shrink", "source.buddy"} {
		if got := totals["counter/engine.recovery."+name]; got != 1 {
			t.Errorf("engine.recovery.%s = %d, want 1", name, got)
		}
	}
}

// TestDistributedKillFiresInVCycle: multigrid fault events use V-cycle
// coordinates. A kill-forever at sweep c fires in V-cycle c — after c
// completed residual combines — and the dead-rank event names it.
func TestDistributedKillFiresInVCycle(t *testing.T) {
	cfg := arch.Default()
	for _, c := range []int{0, 5, 20} {
		tp, err := topo.New("hypercube", 8)
		if err != nil {
			t.Fatal(err)
		}
		m, err := hypercube.NewWithTopology(cfg, tp)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.AddSpares(1); err != nil {
			t.Fatal(err)
		}
		o := obs.New()
		d, err := NewDistributed(DistConfig{
			Fabric: m.Fabric(), Cfg: cfg,
			N: 17, Levels: 2, Tol: 1e-6, MaxCycles: 100, Workers: 2, Obs: o,
			Faults: engine.MustFaultPlan(engine.FaultEvent{
				Sweep: c, Phase: engine.PhaseDispatch, Rank: 3, Kind: engine.FaultKillForever}),
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Run(); err != nil {
			t.Fatal(err)
		}
		combines, sweep := 0, int64(-1)
		for _, sp := range o.Tr.Spans() {
			if sp.Name == "dead-rank" {
				sweep = sp.Args["sweep"]
				break
			}
			if sp.Name == "combine" {
				combines++
			}
		}
		if sweep != int64(c) || combines != c {
			t.Errorf("kill at sweep %d: dead-rank event names sweep %d after %d combines, want V-cycle %d",
				c, sweep, combines, c)
		}
	}
}

// TestDistributedObserveHook: DistConfig.Observe receives the engine's
// phase samples keyed by V-cycle, on the coordinating goroutine. A
// 2-level cycle is two smoothing sweeps (a dispatch and an exchange
// each), the residual, the correction, the copy, two more sweeps and
// the fine residual — eight dispatches and four exchanges — and then
// one combine.
func TestDistributedObserveHook(t *testing.T) {
	cfg := arch.Default()
	m, err := hypercube.New(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		phase string
		cycle int
	}
	counts := map[key]int{}
	charged := map[string]int64{}
	d, err := NewDistributed(DistConfig{
		Fabric: m.Fabric(), Cfg: cfg,
		N: 9, Levels: 2, Tol: 1e-6, MaxCycles: 60, Workers: 2,
		Observe: func(phase string, cycle int, cycles int64) {
			counts[key{phase, cycle}]++
			charged[phase] += cycles
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"dispatch": 8, "exchange": 4, "combine": 1}
	for c := 0; c < res.VCycles; c++ {
		for phase, n := range want {
			if got := counts[key{phase, c}]; got != n {
				t.Errorf("V-cycle %d: %s observed %d times, want %d", c, phase, got, n)
			}
		}
	}
	if len(counts) != len(want)*res.VCycles {
		t.Errorf("%d distinct (phase, cycle) samples over %d V-cycles: %v", len(counts), res.VCycles, counts)
	}
	for phase := range want {
		if charged[phase] == 0 {
			t.Errorf("phase %s charged no cycles", phase)
		}
	}
}

// TestDistributedTransientChaos: a seeded mix of transient kills, link
// corruptions and stalls retries through the engine loop and leaves
// the trajectory bit-identical; the injected work is counted.
func TestDistributedTransientChaos(t *testing.T) {
	cfg := arch.Default()
	ref := distRef(t, cfg, 17, 3, 1e-6, 100)
	m, err := hypercube.New(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDistributed(DistConfig{
		Fabric: m.Fabric(), Cfg: cfg,
		N: 17, Levels: 3, Tol: 1e-6, MaxCycles: 100, Workers: 4,
		Faults: engine.RandomChaosPlan(7, 30, 4, 6),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run()
	if err != nil {
		t.Fatalf("chaos solve failed: %v", err)
	}
	if res.VCycles != ref.VCycles {
		t.Fatalf("%d V-cycles, fault-free %d", res.VCycles, ref.VCycles)
	}
	for g := range ref.U {
		if res.U[g] != ref.U[g] {
			t.Fatalf("u[%d] = %g, fault-free %g", g, res.U[g], ref.U[g])
		}
	}
	if res.Faults.Injected == 0 || res.Recovery.Recoveries != 0 {
		t.Fatalf("fault accounting: %s / %s", res.Faults, res.Recovery)
	}
}

// TestDistributedBudgetExhaustionSurfaces: a transient fault that
// outlives the retry budget is fatal here — the distributed driver has
// no sweep-boundary rollback, and a wrong answer is worse than an
// error.
func TestDistributedBudgetExhaustionSurfaces(t *testing.T) {
	cfg := arch.Default()
	m, err := hypercube.New(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDistributed(DistConfig{
		Fabric: m.Fabric(), Cfg: cfg,
		N: 17, Levels: 2, Tol: 1e-6, MaxCycles: 10, Workers: 1,
		Faults: engine.MustFaultPlan(engine.FaultEvent{
			Sweep: 2, Phase: engine.PhaseDispatch, Rank: 0, Kind: engine.FaultKill, Repeat: 9}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(); err == nil {
		t.Fatal("exhausted retry budget did not fail the solve")
	}
}
