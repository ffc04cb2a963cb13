package hypercube

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
)

// TestSimulatedClocks pins the simulated clocks of the 8-rank,
// 12-sweep model solve under each piece of machinery that may or may
// not price it. An empty fault plan, the observability layer and the
// buddy mirror cost zero simulated cycles; each fabric charges its own
// collective cost; and a permanent kill costs exactly one recovery at
// a fixed price, whether a spare absorbs it or the ring shrinks. The residual is the same in
// every row. Clocks are functions of the plan alone, so every row
// holds at each worker count, and every solve gets a fresh plan.
func TestSimulatedClocks(t *testing.T) {
	kill := func(t *testing.T, m *Machine) {
		m.Faults = engine.MustFaultPlan(engine.FaultEvent{
			Sweep: 6, Phase: engine.PhaseDispatch, Rank: 3, Kind: engine.FaultKillForever,
		})
	}
	const residual = 0.0023379033306660316
	for _, tc := range []struct {
		name          string
		topology      string
		arm           func(t *testing.T, m *Machine)
		machine, comm int64
		recoveries    int64
	}{
		{"clean", "hypercube", nil, 7764, 11412, 0},
		{"empty-plan", "hypercube", func(t *testing.T, m *Machine) { m.Faults = engine.MustFaultPlan() }, 7764, 11412, 0},
		{"obs", "hypercube", func(t *testing.T, m *Machine) { m.Obs = obs.New() }, 7764, 11412, 0},
		{"buddy-every-sweep", "hypercube", func(t *testing.T, m *Machine) { m.Faults = mirrorPlan() }, 7764, 11412, 0},
		{"mesh2d", "mesh2d", nil, 8148, 11796, 0},
		{"torus2d", "torus2d", nil, 7956, 11604, 0},
		{"kill-spare", "hypercube", func(t *testing.T, m *Machine) {
			kill(t, m)
			if err := m.AddSpares(1); err != nil {
				t.Fatal(err)
			}
		}, 8772, 11932, 1},
		{"kill-shrink", "hypercube", kill, 9364, 14060, 1},
	} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers%d", tc.name, workers), func(t *testing.T) {
				m := machineOn(t, tc.topology, 3, 12)
				m.Workers = workers
				if tc.arm != nil {
					tc.arm(t, m)
				}
				res, err := m.SolveJacobi(parallelProblem(m.P()))
				if err != nil {
					t.Fatal(err)
				}
				if m.MachineCycles != tc.machine || m.CommCycles != tc.comm {
					t.Errorf("machine/comm cycles %d/%d, want %d/%d",
						m.MachineCycles, m.CommCycles, tc.machine, tc.comm)
				}
				if res.Recovery.Recoveries != tc.recoveries {
					t.Errorf("recoveries %d, want %d", res.Recovery.Recoveries, tc.recoveries)
				}
				if res.Residual != residual {
					t.Errorf("residual %v, want %v", res.Residual, residual)
				}
			})
		}
	}
}

// TestStandingMachineSolvesAgain: a second solve on a standing machine
// reuses the first build's compiled slabs, still matches Reference()
// bit for bit, and adds exactly the clocks TestSimulatedClocks pins
// for one clean solve.
func TestStandingMachineSolvesAgain(t *testing.T) {
	m := machineOn(t, "hypercube", 3, 12)
	g := parallelProblem(m.P())
	g.MaxIter = 12
	ref := g.Reference()
	for solve := int64(1); solve <= 2; solve++ {
		res, err := m.SolveJacobi(g)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res.ResidualSeries, ref.Residuals) {
			t.Errorf("solve %d: residuals %v, reference %v", solve, res.ResidualSeries, ref.Residuals)
		}
		for i := range ref.U {
			if math.Float64bits(res.U[i]) != math.Float64bits(ref.U[i]) {
				t.Fatalf("solve %d: u[%d] = %v, reference %v", solve, i, res.U[i], ref.U[i])
			}
		}
		if m.MachineCycles != solve*7764 || m.CommCycles != solve*11412 {
			t.Errorf("after solve %d: machine/comm cycles %d/%d, want %d/%d",
				solve, m.MachineCycles, m.CommCycles, solve*7764, solve*11412)
		}
	}
}
