package multigrid

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/codegen"
	"repro/internal/engine"
	"repro/internal/jacobi"
	"repro/internal/microcode"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Distributed runs the V-cycle across an engine fabric (the hypercube,
// through Machine.Fabric()) as a client of engine.Run, one V-cycle per
// engine iteration: the finest grid is slab-decomposed over the ranks
// exactly like the parallel Jacobi driver — every smoothing sweep and
// the residual evaluation execute on partitioned slabs with
// ghost-plane exchange through the engine loop — while the coarse
// chain, too small to be worth distributing, runs as a standalone
// Solver resident on rank 0's node behind its fine slab. The host
// performs the grid transfers (gather-restrict, prolong-scatter),
// standing in for the memory-reformatting phases of §3, and charges
// the fabric for the slab traffic they imply.
//
// The trajectory is bit-identical to the single-node solver at any
// rank and worker count: slab sweeps with current ghosts reproduce the
// global sweeps exactly, the residual combine is a max of local maxima
// (associative, so bitwise equal to the global max), and the grid
// transfers consume only owned interior planes.
//
// Faults use V-cycle coordinates: a plan event at sweep c fires in
// V-cycle c. Degraded-mode recovery is the engine's protocol: the fine
// U is the whole cross-cycle state — residual, correction and coarse
// grids are recomputed inside each cycle — so it is the one State
// plane, and Rebuild rebuilds the slabs and the coarse chain over the
// repaired ring. The engine mirrors U at the top of every cycle and
// replays the cycle a rank died in, so the trajectory is bit-identical
// to the fault-free run. There is no checkpoint to fall back on, so a
// death the mirror does not cover (a dead rank's buddy died too) is an
// error.
type Distributed struct {
	// Part is the fine grid's slab map over the ring in force.
	Part *engine.Partition

	dc     DistConfig
	slabs  []*Level // per-rank fine-grid slab levels
	coarse *Solver  // coarse chain on rank 0's node; nil when levels=1

	// Host-transfer buffers, reused every cycle: the gathered fine
	// residual and prolonged correction, and the coarse right-hand
	// side, zero guess and correction.
	fineR, fineE            []float64
	coarseF, zeroU, coarseU []float64
	words                   []int64
}

// DistConfig parameterizes NewDistributed.
type DistConfig struct {
	// Fabric is the machine substrate (hypercube.Machine.Fabric()).
	Fabric engine.Fabric
	// Cfg is the node architecture.
	Cfg arch.Config
	// N is the fine grid edge (2^k+1); Levels the hierarchy depth.
	N, Levels int
	Tol       float64
	MaxCycles int
	// Workers bounds the host worker pool, as in hypercube.Machine:
	// helpers beyond GOMAXPROCS are not started.
	Workers int
	// Faults injects a deterministic fault plan into the engine loop;
	// an event's sweep names the V-cycle it fires in. Transient faults
	// retry within the engine's fixed budget; a permanent kill arms the
	// engine's recovery protocol.
	Faults *engine.FaultPlan
	// Observe, when non-nil, receives one sample per engine phase.
	Observe func(phase string, sweep int, cycles int64)
	// Obs, when non-nil, routes the engine loop's phase samples into
	// the unified observability layer (see engine.Config.Obs). Node-
	// level streams are armed by the fabric's owner
	// (hypercube.Machine.Obs), not here.
	Obs *obs.Obs
}

// DistResult reports a distributed multigrid solve. Machine clocks
// accumulate on the fabric's owner (hypercube.Machine.MachineCycles /
// CommCycles).
type DistResult struct {
	U              []float64
	VCycles        int
	Residual       float64
	Converged      bool
	ResidualSeries []float64
	TotalFLOPs     int64
	PlanCache      sim.PlanCacheStats
	// Faults counts injected faults and the retries they caused;
	// Recovery counts degraded-mode recoveries (dead ranks, spares,
	// shrinks, replayed V-cycles).
	Faults   engine.FaultStats
	Recovery engine.RecoveryStats
}

// NewDistributed partitions the fine grid over the fabric's ranks,
// compiles each rank's slab pipelines, loads the slabs, and parks the
// coarse hierarchy on rank 0's node.
func NewDistributed(dc DistConfig) (*Distributed, error) {
	if dc.Fabric == nil {
		return nil, fmt.Errorf("multigrid: distributed solve needs a fabric")
	}
	if dc.Levels < 1 {
		return nil, fmt.Errorf("multigrid: need at least one level")
	}
	n := dc.N
	d := &Distributed{
		dc:    dc,
		fineR: make([]float64, n*n*n), fineE: make([]float64, n*n*n),
	}
	part, err := engine.NewPartition(dc.Fabric.P(), n, n)
	if err != nil {
		return nil, err
	}
	if err := d.build(part); err != nil {
		return nil, err
	}
	return d, nil
}

// build (re)constructs everything that depends on the ring: the
// per-rank slab levels over part and their compiled pipelines, and the
// coarse chain on rank 0's node. Called once at construction and again
// by the engine after a ring repair, when the rank count or the slab
// boundaries may have changed.
func (d *Distributed) build(part *engine.Partition) error {
	dc := d.dc
	n := dc.N
	p := part.P
	// The global fine problem, built exactly like the single-node
	// solver's finest level: model problem, ω-damped interior mask.
	gp := jacobi.NewModelProblem(n, dc.Tol, 1)
	gp.H = 1 / float64(n-1)
	d.Part = part
	d.slabs = make([]*Level, p)
	d.words = make([]int64, p)
	// Compile each distinct slab once: a level's five instructions are
	// a pure function of the machine and its two editor scripts, and
	// the scripts of the slab's jacobi.ScriptKey (the tolerance is the
	// build's), so a rank whose key matches an earlier rank's shares
	// its code.
	gen := codegen.New(dc.Fabric.Node(0).Inv)
	compiled := map[jacobi.ScriptKey]*Level{}
	for r := 0; r < p; r++ {
		lp, err := part.Local(dc.Cfg, gp, r)
		if err != nil {
			return err
		}
		lv := &Level{P: lp, BinMask: append([]float64(nil), lp.Mask...)}
		for i, mv := range lp.Mask {
			lp.Mask[i] = mv * DefaultOmega
		}
		d.slabs[r] = lv
		key := lp.ScriptKey()
		if c, ok := compiled[key]; ok {
			lv.fwd, lv.bwd, lv.residual, lv.correct, lv.copyVU = c.fwd, c.bwd, c.residual, c.correct, c.copyVU
			continue
		}
		if err := buildLevel(gen, lv, dc.Tol); err != nil {
			return fmt.Errorf("multigrid: rank %d slab: %w", r, err)
		}
		compiled[key] = lv
	}
	// Load every rank's slab concurrently: each rank touches only its
	// own node.
	if err := engine.ParallelFor(dc.Workers, p, func(r int) error {
		nd := dc.Fabric.Node(r)
		lv := d.slabs[r]
		if err := lv.P.Load(nd); err != nil {
			return err
		}
		return nd.WriteWords(jacobi.PlaneMask, lv.P.VarBase+int64(lv.P.Cells()), lv.BinMask)
	}); err != nil {
		return err
	}
	d.coarse = nil
	if dc.Levels > 1 {
		nc := (n-1)/2 + 1
		if (nc-1)*2+1 != n {
			return fmt.Errorf("multigrid: fine grid %d is not 2·(coarse−1)+1; need n = 2^k+1", n)
		}
		// The coarse chain lives behind rank 0's slab storage, strided
		// by the same rule the single-node hierarchy uses.
		base := int64(2*d.slabs[0].P.Cells() + 2*n*n)
		var err error
		d.coarse, err = NewOnNode(dc.Cfg, dc.Fabric.Node(0), nc, dc.Levels-1, dc.Tol, dc.MaxCycles, base)
		if err != nil {
			return err
		}
		cells := d.coarse.Levels[0].P.Cells()
		d.coarseF, d.zeroU, d.coarseU = make([]float64, cells), make([]float64, cells), make([]float64, cells)
	}
	return nil
}

// step is the engine's iteration hook: V-cycle it plus the fine
// residual the engine then combines. It names no plane to exchange:
// the cycle's last smoothing sweep already exchanged the iterate's
// ghosts.
func (d *Distributed) step(lp *engine.Loop, it int) (int, *engine.BudgetError, error) {
	be, err := d.vcycle(lp, it)
	if be == nil && err == nil {
		be, err = d.residual(lp, it)
	}
	return -1, be, err
}

// smooth runs `sweeps` damped-Jacobi sweeps on the slabs, exchanging
// the freshly written plane's ghosts after every sweep so the next
// sweep reads the current global iterate. Even sweep counts end in
// plane U, like the single-node smoother.
func (d *Distributed) smooth(lp *engine.Loop, it, sweeps int) (*engine.BudgetError, error) {
	for i := 0; i < sweeps; i++ {
		fwd := i%2 == 0
		plane := jacobi.PlaneV
		if !fwd {
			plane = jacobi.PlaneU
		}
		if be, err := lp.Dispatch(it, func(r int) *microcode.Instr {
			if fwd {
				return d.slabs[r].fwd
			}
			return d.slabs[r].bwd
		}, plane); be != nil || err != nil {
			return be, err
		}
		if be, err := lp.Exchange(it, plane); be != nil || err != nil {
			return be, err
		}
	}
	return nil, nil
}

// residual evaluates the fine residual on every slab (reduce registers
// hold the local maxima afterwards).
func (d *Distributed) residual(lp *engine.Loop, it int) (*engine.BudgetError, error) {
	return lp.Dispatch(it, func(r int) *microcode.Instr {
		return d.slabs[r].residual
	}, -1)
}

// vcycle runs one distributed V-cycle: slab smoothing and residual on
// the fabric, grid transfers through the host, the coarse chain on
// rank 0's node.
func (d *Distributed) vcycle(lp *engine.Loop, it int) (*engine.BudgetError, error) {
	if d.coarse == nil {
		// Single level: the finest grid is also the coarsest.
		return d.smooth(lp, it, PreSweeps+PostSweeps)
	}
	if be, err := d.smooth(lp, it, PreSweeps); be != nil || err != nil {
		return be, err
	}
	if be, err := d.residual(lp, it); be != nil || err != nil {
		return be, err
	}
	// Gather the residual to the host, restrict, and seed the coarse
	// solve on rank 0. Only the owned planes are priced: restriction
	// never reads the boundary planes.
	f := d.dc.Fabric
	n := d.dc.N
	nn := n * n
	pt := d.Part
	if err := pt.Gather(f, PlaneR, d.fineR); err != nil {
		return nil, err
	}
	for r := range d.words {
		d.words[r] = int64(pt.Planes[r] * nn)
	}
	engine.ChargeScatter(f, d.words)
	coarse := d.coarse.Levels[0]
	restrictInto(d.coarseF, d.fineR, n, coarse.P.N)
	nd0 := f.Node(0)
	if err := nd0.WriteWords(jacobi.PlaneF, coarse.P.VarBase, d.coarseF); err != nil {
		return nil, err
	}
	if err := nd0.WriteWords(jacobi.PlaneU, coarse.P.VarBase, d.zeroU); err != nil {
		return nil, err
	}
	// The coarse chain runs on rank 0 while the other ranks wait: its
	// node time is machine critical path.
	before := nd0.Stats.Cycles
	if err := d.coarse.VCycle(); err != nil {
		return nil, err
	}
	f.AddMachineCycles(nd0.Stats.Cycles - before)
	if err := nd0.ReadWordsInto(jacobi.PlaneU, coarse.P.VarBase, d.coarseU); err != nil {
		return nil, err
	}
	// Prolong the correction and scatter each rank's whole slab —
	// ghost planes included, so the correction leaves them globally
	// consistent and no exchange is needed before post-smoothing.
	prolongInto(d.fineE, d.coarseU, coarse.P.N, n)
	if err := pt.Scatter(f, PlaneE, d.fineE); err != nil {
		return nil, err
	}
	for r := range d.words {
		d.words[r] = int64(pt.LocalNz(r) * nn)
	}
	engine.ChargeScatter(f, d.words)
	if be, err := lp.Dispatch(it, func(r int) *microcode.Instr {
		return d.slabs[r].correct
	}, -1); be != nil || err != nil {
		return be, err
	}
	if be, err := lp.Dispatch(it, func(r int) *microcode.Instr {
		return d.slabs[r].copyVU
	}, -1); be != nil || err != nil {
		return be, err
	}
	return d.smooth(lp, it, PostSweeps)
}

// Run iterates distributed V-cycles on engine.Run until the combined
// fine-grid residual drops below tolerance, then assembles the global
// field from the owned slab planes. Permanent node deaths are
// recovered through the engine when the fault plan carries any; the
// result is bit-identical to the fault-free run, only the clocks grow.
func (d *Distributed) Run() (*DistResult, error) {
	dc := d.dc
	er, err := engine.Run(&engine.Config{
		Fabric: dc.Fabric, Part: d.Part, Workers: dc.Workers,
		ResidualFU: arch.FUID(11), // T4 slot 2: the residual reduce
		Faults:     dc.Faults,
		Observe:    dc.Observe,
		Obs:        dc.Obs,
		Step:       d.step,
		MaxSweeps:  dc.MaxCycles,
		Tol:        dc.Tol,
		State:      []int{jacobi.PlaneU},
		Rebuild:    d.build,
	})
	if err != nil {
		return nil, err
	}
	res := &DistResult{
		VCycles: er.Sweeps, Residual: er.Residual, Converged: er.Converged,
		ResidualSeries: er.Series, Faults: er.Faults, Recovery: er.Recovery,
	}
	res.U = make([]float64, dc.N*dc.N*dc.N)
	if err := d.Part.Gather(dc.Fabric, jacobi.PlaneU, res.U); err != nil {
		return nil, err
	}
	var tot engine.NodeTotals
	for r := 0; r < dc.Fabric.P(); r++ {
		tot.AddNode(dc.Fabric.Node(r))
	}
	res.TotalFLOPs, res.PlanCache = tot.FLOPs, tot.PlanCache
	if !res.Converged {
		return res, fmt.Errorf("multigrid: no convergence in %d V-cycles (residual %g)", res.VCycles, res.Residual)
	}
	return res, nil
}
