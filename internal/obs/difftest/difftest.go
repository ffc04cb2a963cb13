// Package difftest is the differential harness over the repo's solver
// paths. Every solver is contractually deterministic in its simulated
// observables: residual series, machine/communication clocks, and —
// with the unified observability layer armed — every metric the layer
// records. This package captures those observables as a Signature and
// compares Signatures bit for bit, so a test (or CI stage) can run the
// same scenario at several worker counts, or along two schedules that
// promise identical results, and prove the promise holds.
//
// Wall-clock metrics (histogram keys ending in ".us", recorded by the
// compilation pipeline) are excluded from Signatures: they measure the
// host, not the machine, and legitimately differ run to run.
package difftest

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/arch"
	"repro/internal/engine"
	"repro/internal/hypercube"
	"repro/internal/jacobi"
	"repro/internal/multigrid"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Signature is the deterministic fingerprint of one solve: everything
// the differential harness asserts is worker-count independent.
type Signature struct {
	// Series is the solve's residual history, compared bit for bit
	// (math.Float64bits, not approximate equality).
	Series []float64
	// U is the assembled solution field, also compared bit for bit.
	U []float64
	// MachineCycles / CommCycles are the machine's simulated clocks.
	MachineCycles int64
	CommCycles    int64
	// Metrics is the observability registry's flattened totals
	// (obs.Registry.Totals) with wall-clock keys removed.
	Metrics map[string]int64
}

// FilterMetrics strips host wall-clock entries from a Totals map: any
// key whose metric name ends in ".us" (plus the histogram suffixes
// Totals appends). The input map is not modified.
func FilterMetrics(totals map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(totals))
	for k, v := range totals {
		name := strings.TrimSuffix(strings.TrimSuffix(k, ".count"), ".sum")
		if strings.HasSuffix(name, ".us") {
			continue
		}
		out[k] = v
	}
	return out
}

// StripKernelMetrics removes the execution-path counters
// (sim.kernel.*) from a Totals map. A kernels-on and an
// interpreter-pinned run legitimately differ in which dispatch path
// they took — the kernel contract is that nothing else moves, so those
// counters are excluded before a kernel-vs-interpreter comparison. The
// input map is not modified.
func StripKernelMetrics(totals map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(totals))
	for k, v := range totals {
		// Totals keys carry a kind prefix ("counter/sim.kernel.fast").
		if strings.HasPrefix(k[strings.IndexByte(k, '/')+1:], "sim.kernel.") {
			continue
		}
		out[k] = v
	}
	return out
}

// KernelDiff compares a kernels-on and an interpreter-pinned run of
// the same scenario bit for bit — solution, residual series, simulated
// clocks and every metric outside sim.kernel.*.
func KernelDiff(labelOn string, on *Signature, labelOff string, off *Signature) error {
	a := *on
	a.Metrics = StripKernelMetrics(on.Metrics)
	b := *off
	b.Metrics = StripKernelMetrics(off.Metrics)
	return Diff(labelOn, &a, labelOff, &b)
}

// SameSolution compares only the solver outcome of two Signatures —
// residual series and solution field, bit for bit — ignoring clocks
// and metrics. This is the topology-invariance contract: different
// fabrics legitimately price communication differently, but must move
// the same bits.
func SameSolution(labelA string, a *Signature, labelB string, b *Signature) error {
	if len(a.Series) != len(b.Series) {
		return fmt.Errorf("residual series length: %s has %d, %s has %d",
			labelA, len(a.Series), labelB, len(b.Series))
	}
	for i := range a.Series {
		if math.Float64bits(a.Series[i]) != math.Float64bits(b.Series[i]) {
			return fmt.Errorf("residual[%d]: %s %.17g != %s %.17g",
				i, labelA, a.Series[i], labelB, b.Series[i])
		}
	}
	if len(a.U) != len(b.U) {
		return fmt.Errorf("solution size: %s has %d words, %s has %d",
			labelA, len(a.U), labelB, len(b.U))
	}
	for i := range a.U {
		if math.Float64bits(a.U[i]) != math.Float64bits(b.U[i]) {
			return fmt.Errorf("solution[%d]: %s %.17g != %s %.17g",
				i, labelA, a.U[i], labelB, b.U[i])
		}
	}
	return nil
}

// Diff compares two Signatures bit for bit and reports the first
// discrepancy, or nil when they are identical. The labels name the two
// runs in the error message ("workers=1" vs "workers=8", say).
func Diff(labelA string, a *Signature, labelB string, b *Signature) error {
	if err := SameSolution(labelA, a, labelB, b); err != nil {
		return err
	}
	if a.MachineCycles != b.MachineCycles {
		return fmt.Errorf("machine cycles: %s %d != %s %d",
			labelA, a.MachineCycles, labelB, b.MachineCycles)
	}
	if a.CommCycles != b.CommCycles {
		return fmt.Errorf("comm cycles: %s %d != %s %d",
			labelA, a.CommCycles, labelB, b.CommCycles)
	}
	keys := make(map[string]bool, len(a.Metrics)+len(b.Metrics))
	for k := range a.Metrics {
		keys[k] = true
	}
	for k := range b.Metrics {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	for _, k := range sorted {
		av, aok := a.Metrics[k]
		bv, bok := b.Metrics[k]
		switch {
		case !aok:
			return fmt.Errorf("metric %s: absent in %s, %s has %d", k, labelA, labelB, bv)
		case !bok:
			return fmt.Errorf("metric %s: %s has %d, absent in %s", k, labelA, av, labelB)
		case av != bv:
			return fmt.Errorf("metric %s: %s %d != %s %d", k, labelA, av, labelB, bv)
		}
	}
	return nil
}

// Scenario is one solver configuration the harness exercises. Run must
// build a fresh machine every call — scenarios are replayed once per
// worker count — and return the solve's Signature.
type Scenario struct {
	Name string
	Run  func(workers int) (*Signature, error)
}

// Check runs every scenario at every worker count, using the first
// count as the reference, and returns the first differential failure.
func Check(scenarios []Scenario, workers []int) error {
	if len(workers) < 2 {
		return fmt.Errorf("difftest: need at least two worker counts, got %v", workers)
	}
	for _, sc := range scenarios {
		ref, err := sc.Run(workers[0])
		if err != nil {
			return fmt.Errorf("%s workers=%d: %w", sc.Name, workers[0], err)
		}
		for _, w := range workers[1:] {
			got, err := sc.Run(w)
			if err != nil {
				return fmt.Errorf("%s workers=%d: %w", sc.Name, w, err)
			}
			if err := Diff(fmt.Sprintf("workers=%d", workers[0]), ref,
				fmt.Sprintf("workers=%d", w), got); err != nil {
				return fmt.Errorf("%s: %w", sc.Name, err)
			}
		}
	}
	return nil
}

// smallCfg is the 8-node architecture every scenario runs on.
func smallCfg() arch.Config {
	cfg := arch.Default()
	cfg.HypercubeDim = 3
	return cfg
}

// slabProblem builds an 8×8×(2p+2) model problem whose interior planes
// decompose evenly over p nodes (the parallel-equivalence fixture).
func slabProblem(p int) *jacobi.Problem {
	return jacobi.NewBoxProblem(8, p*2+2, 1e-4, 400)
}

// newMachine builds the harness's 8-node machine over the named
// fabric ("hypercube", "mesh2d", "torus2d").
func newMachine(topology string) (*hypercube.Machine, error) {
	t, err := topo.New(topology, 8)
	if err != nil {
		return nil, err
	}
	return hypercube.NewWithTopology(smallCfg(), t)
}

// jacobiSignature runs a distributed Jacobi solve on the hypercube
// with the obs layer armed and fingerprints it. configure mutates the
// machine before the solve (fault plans, trap policy, ECC injection,
// spares).
func jacobiSignature(workers int, configure func(*hypercube.Machine) error) (*Signature, error) {
	return jacobiSignatureOn("hypercube", workers, configure)
}

// jacobiSignatureOn is jacobiSignature over an arbitrary fabric.
func jacobiSignatureOn(topology string, workers int, configure func(*hypercube.Machine) error) (*Signature, error) {
	m, err := newMachine(topology)
	if err != nil {
		return nil, err
	}
	m.Workers = workers
	m.StopAfter = 8
	o := obs.New()
	m.Obs = o
	if configure != nil {
		if err := configure(m); err != nil {
			return nil, err
		}
	}
	res, err := m.SolveJacobi(slabProblem(m.P()))
	if err != nil {
		return nil, err
	}
	return &Signature{
		Series:        res.ResidualSeries,
		U:             res.U,
		MachineCycles: m.MachineCycles,
		CommCycles:    m.CommCycles,
		Metrics:       FilterMetrics(o.Reg.Totals()),
	}, nil
}

// Scenarios returns the harness's standard battery: every solver path
// that promises worker-count-independent results, with the
// observability layer armed so metric totals join the contract.
func Scenarios() []Scenario {
	return []Scenario{
		{
			// The fault-free baseline.
			Name: "jacobi/clean",
			Run: func(workers int) (*Signature, error) {
				return jacobiSignature(workers, nil)
			},
		},
		{
			// An empty fault plan: armed, but it injects nothing, so
			// the contract and the signature are the clean run's.
			Name: "jacobi/empty-plan",
			Run: func(workers int) (*Signature, error) {
				return jacobiSignature(workers, func(m *hypercube.Machine) error {
					m.Faults = engine.MustFaultPlan()
					return nil
				})
			},
		},
		{
			// Deterministic injected faults with checkpoint/retry
			// recovery: the recovery machinery must also be
			// worker-count-invariant.
			Name: "jacobi/faulted",
			Run: func(workers int) (*Signature, error) {
				return jacobiSignature(workers, func(m *hypercube.Machine) error {
					plan, err := engine.ParseFaultPlan(
						"dispatch:kill@2:1:repeat=2,exchange:stall@3:0:stall=500")
					if err != nil {
						return err
					}
					m.Faults = plan
					m.CheckpointEvery = 2
					return nil
				})
			},
		},
		{
			// Armed trap policy plus seeded ECC events: a correctable
			// single-bit flip (scrubbed in place) and an uncorrectable
			// double-bit flip recovered by instruction retry.
			Name: "jacobi/ecc-retry",
			Run: func(workers int) (*Signature, error) {
				return jacobiSignature(workers, func(m *hypercube.Machine) error {
					m.Trap = arch.TrapConfig{Policy: arch.TrapRetry}
					if err := m.InjectECC(1, sim.ECCFault{Plane: 0, Addr: 3}); err != nil {
						return err
					}
					return m.InjectECC(2, sim.ECCFault{Plane: 0, Addr: 5, Double: true})
				})
			},
		},
		{
			// A permanent node loss absorbed by a hot spare: the degraded
			// machine must reproduce the clean solve bit for bit at every
			// worker count.
			Name: "jacobi/degraded-spare",
			Run: func(workers int) (*Signature, error) {
				return jacobiSignature(workers, func(m *hypercube.Machine) error {
					m.Faults = engine.MustFaultPlan(engine.FaultEvent{
						Sweep: 3, Phase: engine.PhaseDispatch, Rank: 1,
						Kind: engine.FaultKillForever,
					})
					return m.AddSpares(1)
				})
			},
		},
		{
			// The same loss with no spare pool: recovery shrinks the
			// partition and carries on over the survivors.
			Name: "jacobi/degraded-shrink",
			Run: func(workers int) (*Signature, error) {
				return jacobiSignature(workers, func(m *hypercube.Machine) error {
					m.Faults = engine.MustFaultPlan(engine.FaultEvent{
						Sweep: 3, Phase: engine.PhaseDispatch, Rank: 2,
						Kind: engine.FaultKillForever,
					})
					return nil
				})
			},
		},
		{
			// The distributed multigrid engine over the same fabric.
			Name: "multigrid/distributed",
			Run: func(workers int) (*Signature, error) {
				m, err := hypercube.New(smallCfg(), 3)
				if err != nil {
					return nil, err
				}
				m.Workers = workers
				o := obs.New()
				m.Obs = o
				m.ArmObs()
				d, err := multigrid.NewDistributed(multigrid.DistConfig{
					Fabric:    m.Fabric(),
					Cfg:       smallCfg(),
					N:         17,
					Levels:    2,
					Tol:       1e-6,
					MaxCycles: 100,
					Workers:   workers,
					Obs:       o,
				})
				if err != nil {
					return nil, err
				}
				r, err := d.Run()
				if err != nil {
					return nil, err
				}
				return &Signature{
					Series:        r.ResidualSeries,
					U:             r.U,
					MachineCycles: m.MachineCycles,
					CommCycles:    m.CommCycles,
					Metrics:       FilterMetrics(o.Reg.Totals()),
				}, nil
			},
		},
		{
			// Multigrid through a permanent node loss: a spare absorbs the
			// dead rank mid-V-cycle and the degraded run's signature must
			// still be worker-count-invariant.
			Name: "multigrid/degraded",
			Run: func(workers int) (*Signature, error) {
				m, err := hypercube.New(smallCfg(), 3)
				if err != nil {
					return nil, err
				}
				m.Workers = workers
				if err := m.AddSpares(1); err != nil {
					return nil, err
				}
				o := obs.New()
				m.Obs = o
				m.ArmObs()
				d, err := multigrid.NewDistributed(multigrid.DistConfig{
					Fabric:    m.Fabric(),
					Cfg:       smallCfg(),
					N:         17,
					Levels:    2,
					Tol:       1e-6,
					MaxCycles: 100,
					Workers:   workers,
					Obs:       o,
					Faults: engine.MustFaultPlan(engine.FaultEvent{
						Sweep: 9, Phase: engine.PhaseDispatch, Rank: 1,
						Kind: engine.FaultKillForever,
					}),
				})
				if err != nil {
					return nil, err
				}
				r, err := d.Run()
				if err != nil {
					return nil, err
				}
				if r.Recovery.Recoveries != 1 {
					return nil, fmt.Errorf("multigrid/degraded: expected one recovery, got %s", r.Recovery.String())
				}
				return &Signature{
					Series:        r.ResidualSeries,
					U:             r.U,
					MachineCycles: m.MachineCycles,
					CommCycles:    m.CommCycles,
					Metrics:       FilterMetrics(o.Reg.Totals()),
				}, nil
			},
		},
	}
}

// Topologies lists the fabrics the topology battery covers — every
// name internal/topo ships.
func Topologies() []string { return topo.Names() }

// KernelBattery returns the kernel-equivalence scenarios for one
// fabric. Each Run solves the scenario twice — specialized execution
// kernels on (the default) and every node pinned to the reference
// interpreter — and fails unless the two Signatures agree everywhere
// outside the sim.kernel.* path counters (KernelDiff). The kernels-on
// Signature is returned, so the battery composes with Check and the
// worker-count contract rides along for free.
func KernelBattery(topology string) []Scenario {
	jacobiPair := func(configure func(*hypercube.Machine) error) func(int) (*Signature, error) {
		run := func(workers int, noKernel bool) (*Signature, error) {
			return jacobiSignatureOn(topology, workers, func(m *hypercube.Machine) error {
				if configure != nil {
					if err := configure(m); err != nil {
						return err
					}
				}
				pinInterpreter(m, noKernel)
				return nil
			})
		}
		return func(workers int) (*Signature, error) {
			on, err := run(workers, false)
			if err != nil {
				return nil, err
			}
			off, err := run(workers, true)
			if err != nil {
				return nil, err
			}
			if err := KernelDiff("kernels", on, "interpreter", off); err != nil {
				return nil, err
			}
			return on, nil
		}
	}
	return []Scenario{
		{
			// The fault-free baseline: every dispatch kernel-eligible.
			Name: "kernel/jacobi-clean@" + topology,
			Run:  jacobiPair(nil),
		},
		{
			// Armed traps plus seeded ECC events force the interpreter on
			// the affected dispatches even with kernels on; the mixed run
			// must still match the fully-pinned one.
			Name: "kernel/jacobi-ecc-retry@" + topology,
			Run: jacobiPair(func(m *hypercube.Machine) error {
				m.Trap = arch.TrapConfig{Policy: arch.TrapRetry}
				if err := m.InjectECC(1, sim.ECCFault{Plane: 0, Addr: 3}); err != nil {
					return err
				}
				return m.InjectECC(2, sim.ECCFault{Plane: 0, Addr: 5, Double: true})
			}),
		},
		{
			// A permanent loss absorbed by a spare: the activated spare
			// must run the pinned path too.
			Name: "kernel/jacobi-degraded-spare@" + topology,
			Run: jacobiPair(func(m *hypercube.Machine) error {
				m.Faults = engine.MustFaultPlan(engine.FaultEvent{
					Sweep: 3, Phase: engine.PhaseDispatch, Rank: 1,
					Kind: engine.FaultKillForever,
				})
				return m.AddSpares(1)
			}),
		},
		{
			// The distributed multigrid engine, pinned node by node.
			Name: "kernel/multigrid@" + topology,
			Run: func(workers int) (*Signature, error) {
				run := func(noKernel bool) (*Signature, error) {
					m, err := newMachine(topology)
					if err != nil {
						return nil, err
					}
					m.Workers = workers
					pinInterpreter(m, noKernel)
					o := obs.New()
					m.Obs = o
					m.ArmObs()
					d, err := multigrid.NewDistributed(multigrid.DistConfig{
						Fabric:    m.Fabric(),
						Cfg:       smallCfg(),
						N:         17,
						Levels:    2,
						Tol:       1e-6,
						MaxCycles: 100,
						Workers:   workers,
						Obs:       o,
					})
					if err != nil {
						return nil, err
					}
					r, err := d.Run()
					if err != nil {
						return nil, err
					}
					return &Signature{
						Series:        r.ResidualSeries,
						U:             r.U,
						MachineCycles: m.MachineCycles,
						CommCycles:    m.CommCycles,
						Metrics:       FilterMetrics(o.Reg.Totals()),
					}, nil
				}
				on, err := run(false)
				if err != nil {
					return nil, err
				}
				off, err := run(true)
				if err != nil {
					return nil, err
				}
				if err := KernelDiff("kernels", on, "interpreter", off); err != nil {
					return nil, err
				}
				return on, nil
			},
		},
	}
}

// pinInterpreter sets sim.Node.KernelOff on every board of m, spares
// included, so a spare that recovery activates runs the same path as
// the board it replaces.
func pinInterpreter(m *hypercube.Machine, off bool) {
	for _, nd := range m.Nodes {
		nd.KernelOff = off
	}
	for _, nd := range m.Spares {
		nd.KernelOff = off
	}
}

// TopologyBattery returns the scenario battery for one fabric: the
// clean solve, both degraded-recovery paths (kill absorbed by a spare,
// kill absorbed by a shrinking re-partition) and the distributed
// multigrid. Within a fabric every Signature must be
// worker-count-invariant (Check); across fabrics the same scenario
// must produce the same solution bits (SameSolution) while the clocks
// legitimately differ.
func TopologyBattery(topology string) []Scenario {
	return []Scenario{
		{
			Name: "jacobi/clean@" + topology,
			Run: func(workers int) (*Signature, error) {
				return jacobiSignatureOn(topology, workers, nil)
			},
		},
		{
			Name: "jacobi/degraded-spare@" + topology,
			Run: func(workers int) (*Signature, error) {
				return jacobiSignatureOn(topology, workers, func(m *hypercube.Machine) error {
					m.Faults = engine.MustFaultPlan(engine.FaultEvent{
						Sweep: 3, Phase: engine.PhaseDispatch, Rank: 1,
						Kind: engine.FaultKillForever,
					})
					return m.AddSpares(1)
				})
			},
		},
		{
			Name: "jacobi/degraded-shrink@" + topology,
			Run: func(workers int) (*Signature, error) {
				return jacobiSignatureOn(topology, workers, func(m *hypercube.Machine) error {
					m.Faults = engine.MustFaultPlan(engine.FaultEvent{
						Sweep: 3, Phase: engine.PhaseDispatch, Rank: 2,
						Kind: engine.FaultKillForever,
					})
					return nil
				})
			},
		},
		{
			Name: "multigrid/distributed@" + topology,
			Run: func(workers int) (*Signature, error) {
				m, err := newMachine(topology)
				if err != nil {
					return nil, err
				}
				m.Workers = workers
				o := obs.New()
				m.Obs = o
				m.ArmObs()
				d, err := multigrid.NewDistributed(multigrid.DistConfig{
					Fabric:    m.Fabric(),
					Cfg:       smallCfg(),
					N:         17,
					Levels:    2,
					Tol:       1e-6,
					MaxCycles: 100,
					Workers:   workers,
					Obs:       o,
				})
				if err != nil {
					return nil, err
				}
				r, err := d.Run()
				if err != nil {
					return nil, err
				}
				return &Signature{
					Series:        r.ResidualSeries,
					U:             r.U,
					MachineCycles: m.MachineCycles,
					CommCycles:    m.CommCycles,
					Metrics:       FilterMetrics(o.Reg.Totals()),
				}, nil
			},
		},
	}
}
