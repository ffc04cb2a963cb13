// Chaos tests: fixed-seed randomized fault plans — transient kills,
// link corruption, stalls — with a permanent node loss appended, run
// against both solver engines. The contract under test is the repo's
// strongest robustness claim: whatever the fault plan does, recovery
// restores the exact clean trajectory, so the degraded run's residual
// series and assembled field match the fault-free run bit for bit. CI
// runs these under the race detector alongside the differential tests.
package repro_test

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/arch"
	"repro/internal/engine"
	"repro/internal/hypercube"
	"repro/internal/jacobi"
	"repro/internal/multigrid"
	"repro/internal/topo"
)

// chaosSeeds are the fixed seeds CI replays; each drives a different
// randomized plan, and seed parity alternates the recovery path
// between a hot spare and a shrinking re-partition.
var chaosSeeds = []int64{1, 2, 3, 4}

// chaosProblem is the 8×8×(2p+2) slab fixture shared with the
// differential harness.
func chaosProblem(p int) *jacobi.Problem {
	return jacobi.NewBoxProblem(8, p*2+2, 1e-4, 400)
}

// chaosPlan draws a seeded transient plan over sweeps [0,permSweep)
// and appends a permanent kill at permSweep, so the kill never
// collides with a generated event.
func chaosPlan(t *testing.T, seed int64, permSweep, ranks, n int) *engine.FaultPlan {
	t.Helper()
	base := engine.RandomChaosPlan(seed, permSweep, ranks, n)
	events := append(append([]engine.FaultEvent(nil), base.Events...), engine.FaultEvent{
		Sweep: permSweep, Phase: engine.PhaseDispatch,
		Rank: int(seed) % ranks, Kind: engine.FaultKillForever,
	})
	plan, err := engine.NewFaultPlan(events...)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return plan
}

func chaosCfg() arch.Config {
	cfg := arch.Default()
	cfg.HypercubeDim = 3
	return cfg
}

// TestChaosJacobi runs the distributed Jacobi solve through each
// seeded plan with sweep-boundary checkpoints armed and asserts the
// degraded run reproduces the clean run bit for bit.
func TestChaosJacobi(t *testing.T) {
	run := func(plan *engine.FaultPlan, spares int) (*hypercube.JacobiResult, *hypercube.Machine) {
		m, err := hypercube.New(chaosCfg(), 3)
		if err != nil {
			t.Fatal(err)
		}
		m.Workers = runtime.GOMAXPROCS(0)
		m.StopAfter = 10
		m.CheckpointEvery = 2
		m.Faults = plan
		if spares > 0 {
			if err := m.AddSpares(spares); err != nil {
				t.Fatal(err)
			}
		}
		res, err := m.SolveJacobi(chaosProblem(m.P()))
		if err != nil {
			t.Fatal(err)
		}
		return res, m
	}
	clean, _ := run(nil, 0)
	for _, seed := range chaosSeeds {
		spares := int(seed) % 2
		res, m := run(chaosPlan(t, seed, 6, 8, 4), spares)
		if !reflect.DeepEqual(res.ResidualSeries, clean.ResidualSeries) {
			t.Errorf("seed %d: residual series diverged from clean run", seed)
		}
		if !reflect.DeepEqual(res.U, clean.U) {
			t.Errorf("seed %d: assembled field diverged from clean run", seed)
		}
		if res.Recovery.Recoveries != 1 || res.Recovery.DeadRanks != 1 {
			t.Errorf("seed %d: recovery stats %s, want one recovery of one dead rank", seed, res.Recovery.String())
		}
		if got := res.Recovery.SpareActivations; got != int64(spares) {
			t.Errorf("seed %d: %d spare activations, want %d", seed, got, spares)
		}
		lv := m.Liveness()
		if want := 8 - 1 + spares; lv.Live != want {
			t.Errorf("seed %d: %d nodes live after recovery, want %d", seed, lv.Live, want)
		}
	}
}

// TestChaosTopologies replays a seeded chaos plan — transient faults
// plus a permanent kill, absorbed by a hot spare on one seed and a
// shrinking re-partition on the other — over every fabric the topology
// layer ships. The clean hypercube run is the single reference: every
// fabric's degraded run must reproduce its residual series and
// assembled field bit for bit, at one worker and at four.
func TestChaosTopologies(t *testing.T) {
	run := func(topology string, workers int, plan *engine.FaultPlan, spares int) *hypercube.JacobiResult {
		tp, err := topo.New(topology, 8)
		if err != nil {
			t.Fatal(err)
		}
		m, err := hypercube.NewWithTopology(chaosCfg(), tp)
		if err != nil {
			t.Fatal(err)
		}
		m.Workers = workers
		m.StopAfter = 10
		m.CheckpointEvery = 2
		m.Faults = plan
		if spares > 0 {
			if err := m.AddSpares(spares); err != nil {
				t.Fatal(err)
			}
		}
		res, err := m.SolveJacobi(chaosProblem(m.P()))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	clean := run("hypercube", 1, nil, 0)
	for _, topology := range []string{"hypercube", "mesh2d", "torus2d"} {
		topology := topology
		t.Run(topology, func(t *testing.T) {
			t.Parallel()
			for _, seed := range chaosSeeds[:2] {
				spares := int(seed) % 2
				for _, workers := range []int{1, 4} {
					res := run(topology, workers, chaosPlan(t, seed, 6, 8, 4), spares)
					if !reflect.DeepEqual(res.ResidualSeries, clean.ResidualSeries) {
						t.Errorf("seed %d workers %d: residual series diverged from clean hypercube run", seed, workers)
					}
					if !reflect.DeepEqual(res.U, clean.U) {
						t.Errorf("seed %d workers %d: assembled field diverged from clean hypercube run", seed, workers)
					}
					if res.Recovery.Recoveries != 1 || res.Recovery.DeadRanks != 1 {
						t.Errorf("seed %d workers %d: recovery stats %s, want one recovery of one dead rank",
							seed, workers, res.Recovery.String())
					}
					if got := res.Recovery.SpareActivations; got != int64(spares) {
						t.Errorf("seed %d workers %d: %d spare activations, want %d", seed, workers, got, spares)
					}
				}
			}
		})
	}
}

// TestChaosMultigrid runs the distributed multigrid engine through
// seeded transient chaos plus a permanent mid-cycle kill and asserts
// the V-cycle trajectory and solution survive unchanged.
func TestChaosMultigrid(t *testing.T) {
	run := func(plan *engine.FaultPlan, spares int) *multigrid.DistResult {
		m, err := hypercube.New(chaosCfg(), 2)
		if err != nil {
			t.Fatal(err)
		}
		m.Workers = runtime.GOMAXPROCS(0)
		if spares > 0 {
			if err := m.AddSpares(spares); err != nil {
				t.Fatal(err)
			}
		}
		d, err := multigrid.NewDistributed(multigrid.DistConfig{
			Fabric:    m.Fabric(),
			Cfg:       chaosCfg(),
			N:         17,
			Levels:    2,
			Tol:       1e-6,
			MaxCycles: 100,
			Workers:   m.Workers,
			Faults:    plan,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	clean := run(nil, 0)
	for _, seed := range chaosSeeds {
		spares := int(seed) % 2
		res := run(chaosPlan(t, seed, 30, 4, 4), spares)
		if res.VCycles != clean.VCycles {
			t.Errorf("seed %d: %d V-cycles, clean run took %d", seed, res.VCycles, clean.VCycles)
		}
		if !reflect.DeepEqual(res.ResidualSeries, clean.ResidualSeries) {
			t.Errorf("seed %d: residual series diverged from clean run", seed)
		}
		if !reflect.DeepEqual(res.U, clean.U) {
			t.Errorf("seed %d: solution diverged from clean run", seed)
		}
		if res.Recovery.Recoveries != 1 || res.Recovery.DeadRanks != 1 {
			t.Errorf("seed %d: recovery stats %s, want one recovery of one dead rank", seed, res.Recovery.String())
		}
		if res.Faults.Injected == 0 {
			t.Errorf("seed %d: no transient faults injected — chaos plan was a no-op", seed)
		}
	}
}
