package hypercube

import (
	"fmt"
	"sort"

	"repro/internal/arch"
	"repro/internal/codegen"
	"repro/internal/diag"
	"repro/internal/engine"
	"repro/internal/jacobi"
	"repro/internal/microcode"
)

// Degraded-mode recovery: the machine half of surviving permanent node
// loss. The engine runs the protocol (see engine.Run); the machine
// provides the spare pool and the ring repair behind the fabric's
// RecoverRanks — a hot spare adopts the dead slot's hypercube address,
// or, with the spare pool empty, the slot is deleted and the engine
// re-partitions the grid over the survivors — and SolveJacobi supplies
// the slab rebuild. Both the restored state and the recovery clocks
// are pure functions of the fault plan, so recovered runs stay
// bit-identical to fault-free runs in grids and residual series at any
// survivor count.

// AddSpares provisions n cold standby boards for degraded-mode
// recovery. Spares are idle until a permanent kill fires: they cost no
// simulated cycles and join no aggregation before activation. Each is
// a peer of the machine's boards, so an activated spare reuses the
// plans they decoded. The pool holds at most maxBoards spares; a
// negative n, or one that would overfill the pool, is an R040
// diagnostic before any board is built.
func (m *Machine) AddSpares(n int) error {
	if n < 0 || n > maxBoards-len(m.Spares) {
		return diag.Errorf(diag.RuleFaultPlan, "hypercube: cannot add %d spares to a pool of %d: the pool holds 0..%d boards",
			n, len(m.Spares), maxBoards)
	}
	for i := 0; i < n; i++ {
		m.Spares = append(m.Spares, m.Nodes[0].NewPeer())
	}
	return nil
}

// Liveness is the machine's survivor view.
type Liveness struct {
	// Live is the current ring size (ranks still solving).
	Live int
	// DeadAddrs lists the hypercube addresses of permanently lost
	// boards, in the order they died.
	DeadAddrs []int
	// SparesFree and SparesUsed count the standby pool.
	SparesFree int
	SparesUsed int
}

// Liveness reports the machine's survivor view.
func (m *Machine) Liveness() Liveness {
	return Liveness{
		Live:       len(m.ring),
		DeadAddrs:  append([]int(nil), m.deadAddrs...),
		SparesFree: len(m.Spares),
		SparesUsed: len(m.activated),
	}
}

// RecoverRanks repairs the ring after the given ring ranks died
// permanently: spares (when available) take over the lowest dead slots
// first, keeping the slot's hypercube address; the remaining dead
// slots are deleted, shrinking the ring. It returns how many slots
// were spared and how many shrunk. The caller owns re-partitioning and
// state restoration; this only fixes the rank → board mapping, the
// combine pricing and the observability shards.
func (m *Machine) RecoverRanks(dead []int) (spared, shrunk int, err error) {
	p := len(m.ring)
	seen := make(map[int]bool, len(dead))
	for _, d := range dead {
		if d < 0 || d >= p {
			return 0, 0, fmt.Errorf("hypercube: dead rank %d outside %d live ranks", d, p)
		}
		if seen[d] {
			return 0, 0, fmt.Errorf("hypercube: dead rank %d listed twice", d)
		}
		seen[d] = true
	}
	sorted := append([]int(nil), dead...)
	sort.Ints(sorted)
	var retire []int
	for _, d := range sorted {
		if len(m.Spares) == 0 {
			retire = append(retire, d)
			continue
		}
		sp := m.Spares[0]
		m.Spares = m.Spares[1:]
		sp.TrapCfg = m.Trap
		m.deadAddrs = append(m.deadAddrs, m.ringAddr[d])
		m.ring[d] = sp
		m.activated = append(m.activated, sp)
		spared++
	}
	// Delete retired slots highest-first so lower indices stay valid.
	for i := len(retire) - 1; i >= 0; i-- {
		d := retire[i]
		m.deadAddrs = append(m.deadAddrs, m.ringAddr[d])
		m.ring = append(m.ring[:d], m.ring[d+1:]...)
		m.ringAddr = append(m.ringAddr[:d], m.ringAddr[d+1:]...)
		shrunk++
	}
	if len(m.ring) == 0 {
		return spared, shrunk, fmt.Errorf("hypercube: no surviving ranks")
	}
	m.combineHops = m.Topo.CombineSteps(m.ringAddr)
	m.ArmObs()
	return spared, shrunk, nil
}

// jacobiSolve is the partition-dependent state of one SolveJacobi
// call, swappable mid-run: recovery rebuilds part/fwd/bwd over the
// repaired ring, and every engine hook reads them through this struct
// at call time, so a resumed generation sees the new shape.
type jacobiSolve struct {
	m      *Machine
	global *jacobi.Problem

	part     *engine.Partition
	fwd, bwd []*microcode.Instr
	// fwdAt and bwdAt are the dispatch lookups, bound once per solve so
	// sweeps stay allocation-free; they read fwd/bwd at call time.
	fwdAt, bwdAt func(rank int) *microcode.Instr

	// Restore bases (from m.Restore), added to live engine counters.
	base     engine.FaultStats
	nodeBase engine.NodeTotals
}

// newJacobiSolve starts the state of one SolveJacobi call, binding its
// dispatch lookups.
func newJacobiSolve(m *Machine, global *jacobi.Problem) *jacobiSolve {
	s := &jacobiSolve{m: m, global: global}
	s.fwdAt = func(r int) *microcode.Instr { return s.fwd[r] }
	s.bwdAt = func(r int) *microcode.Instr { return s.bwd[r] }
	return s
}

// slabCode is one slab's compiled sweep pair.
type slabCode struct{ fwd, bwd *microcode.Instr }

// build partitions the problem, compiles both sweep pipelines once per
// distinct slab and loads the slabs onto the ring. A compile is a pure
// function of the machine and the slab's editor script, which is a
// function of the slab's jacobi.ScriptKey. So every rank whose key
// matches another's shares its instructions, and so does a later build
// on this machine: it looks each key up in the previous build's
// compiles first, then keeps its own. Loading rewrites PlaneU with the
// initial guess, so a rebuild mid-run (the engine's Rebuild hook after
// a recovery) must be followed by an iterate restore, which the engine
// does.
func (s *jacobiSolve) build(part *engine.Partition) error {
	m := s.m
	inv, err := arch.NewInventory(m.Cfg)
	if err != nil {
		return err
	}
	gen := codegen.New(inv)
	locals := make([]*jacobi.Problem, part.P)
	fwd := make([]*microcode.Instr, part.P)
	bwd := make([]*microcode.Instr, part.P)
	slabs := map[jacobi.ScriptKey]slabCode{}
	for r := 0; r < part.P; r++ {
		lp, err := part.Local(m.Cfg, s.global, r)
		if err != nil {
			return err
		}
		locals[r] = lp
		key := lp.ScriptKey()
		c, ok := slabs[key]
		if !ok {
			c, ok = m.slabs[key]
		}
		if !ok {
			if c.fwd, c.bwd, err = lp.Sweeps(gen); err != nil {
				return err
			}
		}
		slabs[key] = c
		fwd[r], bwd[r] = c.fwd, c.bwd
	}
	fab := m.Fabric()
	if err := engine.ParallelFor(m.Workers, part.P, func(r int) error {
		return locals[r].Load(fab.Node(r))
	}); err != nil {
		return err
	}
	s.part, s.fwd, s.bwd = part, fwd, bwd
	m.slabs = slabs
	return nil
}

// engineConfig builds the engine configuration of the solve, resuming
// from resume when it is non-nil. All hooks read the solve state
// through s, so the generation the engine resumes after a recovery
// drives the rebuilt partition.
func (s *jacobiSolve) engineConfig(resume *engine.Snapshot) *engine.Config {
	m := s.m
	cfg := &engine.Config{
		Fabric: m.Fabric(), Part: s.part, Workers: m.Workers,
		Faults: m.Faults, Obs: m.Obs,
		ResidualFU: arch.FUID(11), // T4 slot 2 under the default triplet layout
		Step:       s.step,
		MaxSweeps:  s.global.MaxIter, StopAfter: m.StopAfter, Tol: s.global.Tol,
		State:           []int{jacobi.PlaneU, jacobi.PlaneV},
		CheckpointEvery: m.CheckpointEvery,
		Resume:          resume,
		Rebuild:         s.build,
	}
	if m.CheckpointSink != nil {
		cfg.Take = s.take
	}
	return cfg
}

// step is the engine's iteration hook: one sweep, forward on even
// iterations (writing v) and backward on odd ones (writing u), whose
// written plane is the one exchanged after the combine.
func (s *jacobiSolve) step(lp *engine.Loop, it int) (int, *engine.BudgetError, error) {
	plane, instr := jacobi.PlaneV, s.fwdAt
	if it%2 == 1 {
		plane, instr = jacobi.PlaneU, s.bwdAt
	}
	be, err := lp.Dispatch(it, instr, plane)
	return plane, be, err
}

// take is the engine's checkpoint hook: it copies the snapshot into a
// Checkpoint and hands it to the sink.
func (s *jacobiSolve) take(snap *engine.Snapshot, live engine.FaultStats) error {
	faults := s.base
	faults.Add(live)
	if err := s.m.CheckpointSink(s.m.checkpoint(snap, s.part, faults, s.nodeBase)); err != nil {
		return fmt.Errorf("hypercube: checkpoint sink at sweep %d: %w", snap.Sweep, err)
	}
	return nil
}
