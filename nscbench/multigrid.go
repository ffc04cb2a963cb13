package main

import (
	"fmt"
	"time"

	"repro/internal/arch"
	"repro/internal/engine"
	"repro/internal/jacobi"
	"repro/internal/multigrid"
)

// The multigrid workload solves the model problem, which takes no input
// data: it ignores the seed.
const (
	mgN         = 17
	mgLevels    = 2
	mgTol       = 1e-6
	mgMaxCycles = 100
	mgTopology  = "mesh2d"
	mgVCycles   = 46 // pinned: V-cycles the model problem needs at mgTol
)

// mgInst is the set-up multigrid workload.
type mgInst struct {
	cfg arch.Config
	ref *multigrid.Result // single-node trajectory the distributed op must match

	last    *multigrid.DistResult
	lastErr error

	// runSpan is the open multigrid.run span and rounds the combine-tree
	// rounds of the current op's fabric, both read by the traced
	// op's phase callback.
	runSpan, rounds int
}

func setupMultigrid(int64) (instance, error) {
	return &mgInst{cfg: benchConfig()}, nil
}

// solve builds a fresh mesh machine and runs the distributed V-cycle.
// obs, when non-nil, receives each engine phase as it completes.
func (g *mgInst) solve(tr *tracer, root int, observe func(string, int, int64)) (*multigrid.DistResult, error) {
	s := tr.begin("hypercube.new", root)
	m, err := newMachine(g.cfg, mgTopology)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin("multigrid.build", root)
	d, err := multigrid.NewDistributed(multigrid.DistConfig{
		Fabric: m.Fabric(), Cfg: g.cfg, N: mgN, Levels: mgLevels, Tol: mgTol,
		MaxCycles: mgMaxCycles, Workers: m.Workers, Observe: observe,
	})
	tr.end(s)
	if err != nil {
		return nil, err
	}
	before := countersOf(m)
	g.rounds = len(m.Fabric().CombineHops())
	s = tr.begin("multigrid.run", root)
	g.runSpan = s
	res, err := d.Run()
	tr.end(s)
	if err != nil {
		return nil, err
	}
	after := countersOf(m)
	after.sub(before)
	after.record(tr)
	tr.add("multigrid.vcycles", float64(res.VCycles))
	return res, nil
}

func (g *mgInst) batch(lat *[]float64) int {
	t0 := time.Now()
	g.last, g.lastErr = g.solve(nil, -1, nil)
	*lat = append(*lat, ms(time.Since(t0)))
	return 1
}

func (g *mgInst) prepareOracle() error {
	s, err := multigrid.New(g.cfg, mgN, mgLevels, mgTol, mgMaxCycles)
	if err != nil {
		return err
	}
	g.ref, err = s.Run()
	if err != nil {
		return err
	}
	if g.ref.VCycles != mgVCycles {
		return fmt.Errorf("single-node multigrid took %d V-cycles, pinned %d", g.ref.VCycles, mgVCycles)
	}
	return nil
}

// check compares the distributed solve with the single-node trajectory
// bit for bit and requires the pinned V-cycle count.
func (g *mgInst) check() int {
	if g.lastErr != nil || g.last.VCycles != mgVCycles ||
		sameBits("grid", g.last.U, g.ref.U) != nil ||
		sameBits("residual series", g.last.ResidualSeries, g.ref.ResidualSeries) != nil {
		return 1
	}
	return 0
}

// decomposed runs the op's public calls with a span around each. The
// engine loop lives inside Distributed, so its phases are seen through
// the DistConfig.Observe callback, which runs right after each phase's
// barrier: each engine.<phase> span covers the host time since the
// previous callback, so the host transfers and the coarse chain on rank
// 0 fall into the phase that follows them.
func (g *mgInst) decomposed(tr *tracer) {
	tr.beginOp()
	root := tr.begin("op", -1)
	var observe func(string, int, int64)
	if tr != nil {
		observe = func(phase string, _ int, _ int64) {
			tr.since("engine."+phase, g.runSpan)
			if phase == "dispatch" {
				tr.add("engine.sweeps", 1)
			}
			if phase == "combine" {
				tr.add("topo.combine_rounds", float64(g.rounds))
			}
		}
	}
	g.last, g.lastErr = g.solve(tr, root, observe)
	tr.end(root)
}

func (g *mgInst) verify(*tracer) error {
	if g.lastErr != nil {
		return fmt.Errorf("decomposed multigrid solve: %w", g.lastErr)
	}
	return nil
}

// slab returns rank 0's fine-grid slab of the model problem.
func (g *mgInst) slab() (*jacobi.Problem, error) {
	part, err := engine.NewPartition(ranks, mgN, mgN)
	if err != nil {
		return nil, err
	}
	return part.Local(g.cfg, jacobi.NewModelProblem(mgN, mgTol, 1), 0)
}
