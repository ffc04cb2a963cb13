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
// V-cycle c. Degraded-mode recovery is the engine's protocol. When the
// fault plan carries a permanent kill, the engine's buddy hook mirrors
// the global fine iterate to the host at the top of every cycle (free
// in simulated time). A rank that dies mid-cycle reaches the Recover
// hook, which repairs the ring through the fabric (hot spare or
// shrinking re-partition), rebuilds the slabs and the coarse chain
// over the survivors and scatters the mirrored iterate back; the
// engine then replays the interrupted cycle. The fine U is the whole
// cross-cycle state — residual, correction and coarse grids are
// recomputed inside each cycle — so the replayed trajectory is
// bit-identical to the fault-free run.
type Distributed struct {
	Fabric engine.Fabric
	Cfg    arch.Config
	Part   *engine.Partition

	// Pre and Post mirror Solver: smoothing sweeps around the
	// coarse-grid correction, both even.
	Pre, Post int
	Tol       float64
	MaxCycles int

	dc     DistConfig
	slabs  []*Level // per-rank fine-grid slab levels
	coarse *Solver  // coarse chain on rank 0's node; nil when levels=1
	n      int
	u0     []float64 // global fine initial guess (boundary assembly)

	// mirror is the global fine iterate at the top of V-cycle
	// mirrorCycle, with the residual series up to it: the buddy
	// mirror recovery restores.
	mirror       []float64
	mirrorCycle  int
	mirrorSeries []float64

	// Host-transfer scratch, reused every cycle.
	fineR []float64
	zeroU []float64
	words []int64
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
	// Workers bounds the host worker pool, as in hypercube.Machine.
	Workers int
	// Faults injects a deterministic fault plan into the engine loop;
	// an event's sweep names the V-cycle it fires in. Transient faults
	// retry within the engine's fixed budget; a permanent kill arms the
	// cycle-boundary mirror and the ring-repair recovery path.
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
	gp := jacobi.NewModelProblem(n, dc.Tol, 1)
	d := &Distributed{
		Fabric: dc.Fabric, Cfg: dc.Cfg, dc: dc,
		Pre: 2, Post: 2, Tol: dc.Tol, MaxCycles: dc.MaxCycles,
		n: n, u0: append([]float64(nil), gp.U0...),
		fineR: make([]float64, n*n*n),
	}
	if err := d.build(); err != nil {
		return nil, err
	}
	return d, nil
}

// build (re)constructs everything that depends on the current ring:
// the partition, the per-rank slab levels and their compiled
// pipelines, and the coarse chain on rank 0's node.
// Called once at construction and again after a ring repair, when the
// rank count or the slab boundaries may have changed.
func (d *Distributed) build() error {
	dc := d.dc
	n := d.n
	p := dc.Fabric.P()
	part, err := engine.NewPartition(p, n, n)
	if err != nil {
		return err
	}
	// The global fine problem, built exactly like the single-node
	// solver's finest level: model problem, ω-damped interior mask.
	gp := jacobi.NewModelProblem(n, dc.Tol, 1)
	gp.H = 1 / float64(n-1)
	d.Part = part
	d.slabs = make([]*Level, p)
	d.words = make([]int64, p)
	// Compile each distinct slab once: a level's five instructions are
	// a pure function of the machine and its two editor scripts, so a
	// rank whose scripts match an earlier rank's shares its code.
	gen := codegen.New(dc.Fabric.Node(0).Inv)
	compiled := map[string]*Level{}
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
		key := lp.Script() + auxScript(lp, dc.Tol)
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
		d.coarse, err = NewOnNode(dc.Cfg, dc.Fabric.Node(0), nc, dc.Levels-1, dc.Tol, dc.MaxCycles, base)
		if err != nil {
			return err
		}
		d.zeroU = make([]float64, d.coarse.Levels[0].P.Cells())
	}
	return nil
}

// engineConfig builds the engine configuration for one loop
// generation, resuming at V-cycle start with the given residual
// series.
func (d *Distributed) engineConfig(start int, series []float64) *engine.Config {
	dc := d.dc
	cfg := &engine.Config{
		Fabric: dc.Fabric, Part: d.Part, Workers: dc.Workers,
		ResidualFU:  arch.FUID(11), // T4 slot 2: the residual reduce
		Faults:      dc.Faults,
		Observe:     dc.Observe,
		Obs:         dc.Obs,
		Step:        d.step,
		MaxSweeps:   d.MaxCycles,
		Tol:         d.Tol,
		StartSweep:  start,
		StartSeries: series,
	}
	if dc.Faults.HasPermanent() {
		cfg.BuddyEvery, cfg.Buddy, cfg.Recover = 1, d.mirrorFine, d.recoverDead
	}
	return cfg
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
		return d.smooth(lp, it, d.Pre+d.Post)
	}
	if be, err := d.smooth(lp, it, d.Pre); be != nil || err != nil {
		return be, err
	}
	if be, err := d.residual(lp, it); be != nil || err != nil {
		return be, err
	}
	// Gather the owned residual planes to the host (boundary planes
	// stay zero; restriction never reads them), restrict, and seed the
	// coarse solve on rank 0.
	f := d.Fabric
	nn := d.n * d.n
	pt := d.Part
	for r := 0; r < f.P(); r++ {
		lo := pt.Lo[r]
		if err := f.Node(r).ReadWordsInto(PlaneR, int64(nn), d.fineR[lo*nn:(lo+pt.Planes[r])*nn]); err != nil {
			return nil, err
		}
		d.words[r] = int64(pt.Planes[r] * nn)
	}
	engine.ChargeScatter(f, d.words)
	coarse := d.coarse.Levels[0]
	cf := Restrict(d.fineR, d.n, coarse.P.N)
	nd0 := f.Node(0)
	if err := nd0.WriteWords(jacobi.PlaneF, coarse.P.VarBase, cf); err != nil {
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
	cu, err := nd0.ReadWords(jacobi.PlaneU, coarse.P.VarBase, coarse.P.Cells())
	if err != nil {
		return nil, err
	}
	// Prolong the correction and scatter each rank's whole slab —
	// ghost planes included, so the correction leaves them globally
	// consistent and no exchange is needed before post-smoothing.
	e := Prolong(cu, coarse.P.N, d.n)
	for r := 0; r < f.P(); r++ {
		lo := pt.Lo[r]
		if err := f.Node(r).WriteWords(PlaneE, 0, e[(lo-1)*nn:(lo+pt.Planes[r]+1)*nn]); err != nil {
			return nil, err
		}
		d.words[r] = int64((pt.Planes[r] + 2) * nn)
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
	return d.smooth(lp, it, d.Post)
}

// fineU assembles the global fine iterate into u (allocated when nil):
// each rank's owned interior planes plus the fixed boundary planes
// from the initial guess.
func (d *Distributed) fineU(u []float64) ([]float64, error) {
	nn := d.n * d.n
	if u == nil {
		u = make([]float64, d.n*nn)
		copy(u[:nn], d.u0[:nn])
		copy(u[(d.n-1)*nn:], d.u0[(d.n-1)*nn:])
	}
	for r := 0; r < d.Fabric.P(); r++ {
		lo := d.Part.Lo[r]
		if err := d.Fabric.Node(r).ReadWordsInto(jacobi.PlaneU, int64(nn), u[lo*nn:(lo+d.Part.Planes[r])*nn]); err != nil {
			return nil, err
		}
	}
	return u, nil
}

// mirrorFine is the engine's buddy hook: it snapshots the global fine
// iterate to the host at the top of V-cycle `cycle`. Host-side
// bookkeeping, zero simulated cycles — the exact analogue of the
// Jacobi driver's buddy mirror.
func (d *Distributed) mirrorFine(cycle int, series []float64) error {
	u, err := d.fineU(d.mirror)
	if err != nil {
		return err
	}
	d.mirror, d.mirrorCycle = u, cycle
	d.mirrorSeries = append(d.mirrorSeries[:0], series...)
	return nil
}

// ringRepair is what recovery needs from the fabric: fill or retire
// the dead slots (hypercube.Machine implements it with hot spares and
// ring shrinking).
type ringRepair interface {
	RecoverRanks(dead []int) (spared, shrunk int, err error)
}

// recoverDead is the engine's permanent-loss hook: it repairs the
// ring, rebuilds the solver over the surviving ranks and scatters the
// cycle-boundary mirror back into the slabs. The engine then replays
// the interrupted cycle; the fault plan's firing counters persist
// across the rebuild, so the replay does not re-suffer the death.
func (d *Distributed) recoverDead(dre *engine.DeadRankError) (*engine.Config, *engine.RecoveryInfo, error) {
	rr, ok := d.Fabric.(ringRepair)
	if !ok {
		return nil, nil, fmt.Errorf("multigrid: fabric cannot repair dead ranks")
	}
	spared, shrunk, err := rr.RecoverRanks(dre.Ranks)
	if err != nil {
		return nil, nil, err
	}
	if err := d.build(); err != nil {
		return nil, nil, err
	}
	if err := engine.RestoreSlabs(d.Fabric, d.Part, dre.Ranks, shrunk > 0,
		[]int{jacobi.PlaneU}, d.mirror); err != nil {
		return nil, nil, err
	}
	info := &engine.RecoveryInfo{Source: "buddy", ResumeSweep: d.mirrorCycle, Spared: spared, Shrunk: shrunk}
	return d.engineConfig(d.mirrorCycle, d.mirrorSeries), info, nil
}

// Run iterates distributed V-cycles on engine.Run until the combined
// fine-grid residual drops below tolerance, then assembles the global
// field from the owned slab planes. Permanent node deaths are
// recovered through the engine when the fault plan carries any (see
// recoverDead); the result is bit-identical to the fault-free run,
// only the clocks grow.
func (d *Distributed) Run() (*DistResult, error) {
	er, err := engine.Run(d.engineConfig(0, nil))
	if err != nil {
		return nil, err
	}
	res := &DistResult{
		VCycles: er.Sweeps, Residual: er.Residual, Converged: er.Converged,
		ResidualSeries: er.Series, Faults: er.Faults, Recovery: er.Recovery,
	}
	if res.U, err = d.fineU(nil); err != nil {
		return nil, err
	}
	var tot engine.NodeTotals
	for r := 0; r < d.Fabric.P(); r++ {
		tot.AddNode(d.Fabric.Node(r))
	}
	res.TotalFLOPs, res.PlanCache = tot.FLOPs, tot.PlanCache
	if !res.Converged {
		return res, fmt.Errorf("multigrid: no convergence in %d V-cycles (residual %g)", res.VCycles, res.Residual)
	}
	return res, nil
}
