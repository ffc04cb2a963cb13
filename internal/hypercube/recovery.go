package hypercube

import (
	"fmt"
	"sort"

	"repro/internal/arch"
	"repro/internal/codegen"
	"repro/internal/engine"
	"repro/internal/jacobi"
	"repro/internal/microcode"
	"repro/internal/sim"
)

// Degraded-mode recovery: the machine half of surviving permanent node
// loss. The engine detects a dead rank at a dispatch barrier and hands
// this client a DeadRankError; the client repairs the ring — a hot
// spare adopts the dead slot's hypercube address, or, with the spare
// pool empty, the slot is retired and the surviving ranks re-partition
// the grid — restores the iterate from the in-memory buddy mirror (or
// the last checkpoint), and resumes the solve from that sweep
// boundary. Both the restored state and the recovery clocks are pure
// functions of the fault plan, so recovered runs stay bit-identical to
// fault-free runs in grids and residual series at any survivor count.

// AddSpares provisions n cold standby boards for degraded-mode
// recovery. Spares are idle until a permanent kill fires: they cost no
// simulated cycles and join no aggregation before activation.
func (m *Machine) AddSpares(n int) error {
	for i := 0; i < n; i++ {
		nd, err := sim.NewNode(m.Cfg)
		if err != nil {
			return err
		}
		m.Spares = append(m.Spares, nd)
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

// buddyStore is the in-memory buddy mirror: at armed sweep boundaries
// every rank's full local iterate (both planes, ghosts included) is
// mirrored to its ring buddy — modeled host-side as one store, with
// availability gated on the buddy partner (rank+1 mod P) surviving.
// Like checkpoints, mirrors are host-side bookkeeping: they never move
// the simulated clocks, so a clean run with mirroring armed has
// bit-identical cycle counts to one without.
type buddyStore struct {
	valid  bool
	sweep  int
	series []float64
	part   *engine.Partition
	u, v   [][]float64
}

// take mirrors the current sweep-boundary state. Buffers are reused
// across sweeps of one partition generation.
func (b *buddyStore) take(m *Machine, part *engine.Partition, sweep int, series []float64) error {
	if b.part != part {
		nn := part.NN()
		b.u = make([][]float64, part.P)
		b.v = make([][]float64, part.P)
		for r := 0; r < part.P; r++ {
			w := (part.Planes[r] + 2) * nn
			b.u[r] = make([]float64, w)
			b.v[r] = make([]float64, w)
		}
		b.part = part
	}
	for r := 0; r < part.P; r++ {
		if err := m.ring[r].ReadWordsInto(jacobi.PlaneU, 0, b.u[r]); err != nil {
			return err
		}
		if err := m.ring[r].ReadWordsInto(jacobi.PlaneV, 0, b.v[r]); err != nil {
			return err
		}
	}
	b.sweep = sweep
	b.series = append(b.series[:0], series...)
	b.valid = true
	return nil
}

// available reports whether the mirror can restore a run that lost the
// given ranks of the given partition: the mirror must be from that
// partition generation, and every dead rank's buddy partner must have
// survived (the partner holds the mirror).
func (b *buddyStore) available(part *engine.Partition, dead []int) bool {
	if !b.valid || b.part != part || part.P < 2 {
		return false
	}
	isDead := make(map[int]bool, len(dead))
	for _, d := range dead {
		isDead[d] = true
	}
	for _, d := range dead {
		if d < 0 || d >= part.P || isDead[(d+1)%part.P] {
			return false
		}
	}
	return true
}

// assembleGlobal rebuilds a global N×N×Nz plane from per-rank local
// grids: owned planes from each rank, the global boundary planes from
// the edge ranks' outer ghost planes.
func assembleGlobal(part *engine.Partition, locals [][]float64) []float64 {
	nn := part.NN()
	g := make([]float64, nn*part.Nz)
	copy(g[:nn], locals[0][:nn])
	last := part.P - 1
	copy(g[(part.Nz-1)*nn:], locals[last][(part.Planes[last]+1)*nn:(part.Planes[last]+2)*nn])
	for r := 0; r < part.P; r++ {
		copy(g[part.Lo[r]*nn:(part.Lo[r]+part.Planes[r])*nn], locals[r][nn:(part.Planes[r]+1)*nn])
	}
	return g
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

	buddy buddyStore

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
// function of the machine and the slab's editor script, so every rank
// whose script matches another's shares its instructions, and so does
// a later build on this machine: it looks each script up in the
// previous build's compiles first, then keeps its own. Loading
// rewrites PlaneU with the initial guess, so a rebuild mid-run must be
// followed by an iterate restore.
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
	slabs := map[string]slabCode{}
	for r := 0; r < part.P; r++ {
		lp, err := part.Local(m.Cfg, s.global, r)
		if err != nil {
			return err
		}
		locals[r] = lp
		script := lp.Script()
		c, ok := slabs[script]
		if !ok {
			c, ok = m.slabs[script]
		}
		if !ok {
			if c.fwd, c.bwd, err = lp.Sweeps(gen); err != nil {
				return err
			}
		}
		slabs[script] = c
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

// buddyEvery resolves the machine's BuddyEvery policy for this solve.
func (s *jacobiSolve) buddyEvery() int {
	m := s.m
	switch {
	case m.BuddyEvery > 0:
		return m.BuddyEvery
	case m.BuddyEvery < 0:
		return 0
	case m.Faults.HasPermanent():
		return 1
	}
	return 0
}

// engineConfig builds the engine configuration for one loop
// generation. All hooks read the solve state through s, so the config
// returned after a recovery drives the rebuilt partition.
func (s *jacobiSolve) engineConfig(startSweep int, series []float64, skipAt int) *engine.Config {
	m := s.m
	cfg := &engine.Config{
		Fabric: m.Fabric(), Part: s.part, Workers: m.Workers,
		Faults: m.Faults, Obs: m.Obs,
		ResidualFU: arch.FUID(11), // T4 slot 2 under the default triplet layout
		Step:       s.step,
		MaxSweeps:  s.global.MaxIter, StopAfter: m.StopAfter, Tol: s.global.Tol,
		CheckpointEvery: m.CheckpointEvery,
		StartSweep:      startSweep, StartSeries: series, SkipSnapshotAt: skipAt,
		Take:     s.take,
		Rollback: s.rollback,
	}
	if be := s.buddyEvery(); be > 0 {
		cfg.BuddyEvery = be
		cfg.Buddy = s.mirror
	}
	if m.Faults.HasPermanent() {
		cfg.Recover = s.recover
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

// take is the engine's checkpoint hook.
func (s *jacobiSolve) take(sweep int, series []float64, live engine.FaultStats) error {
	m := s.m
	combined := s.base
	combined.Add(live)
	ck, err := m.snapshot(sweep, s.part, s.global, series, combined, s.nodeBase)
	if err != nil {
		return err
	}
	m.LastCheckpoint = ck
	if m.CheckpointSink != nil {
		if err := m.CheckpointSink(ck); err != nil {
			return fmt.Errorf("hypercube: checkpoint sink at sweep %d: %w", sweep, err)
		}
	}
	return nil
}

// rollback is the engine's retry-exhaustion hook.
func (s *jacobiSolve) rollback() (int, []float64, bool, error) {
	m := s.m
	ck := m.LastCheckpoint
	if ck == nil {
		return 0, nil, false, nil
	}
	if err := ck.compatible(s.part); err != nil {
		return 0, nil, false, err
	}
	if err := m.applyCheckpoint(ck); err != nil {
		return 0, nil, false, err
	}
	return ck.Sweep, ck.Residuals, true, nil
}

// mirror is the engine's buddy hook.
func (s *jacobiSolve) mirror(sweep int, series []float64) error {
	return s.buddy.take(s.m, s.part, sweep, series)
}

// recover is the engine's permanent-loss hook: pick the state source,
// repair the ring, rebuild the partition and code, restore the
// iterate, price the scatter, and hand the engine the next-generation
// configuration.
func (s *jacobiSolve) recover(dre *engine.DeadRankError) (*engine.Config, *engine.RecoveryInfo, error) {
	m := s.m
	oldPart := s.part

	var gu, gv []float64
	var resume int
	var series []float64
	var source string
	switch {
	case s.buddy.available(oldPart, dre.Ranks):
		gu = assembleGlobal(s.buddy.part, s.buddy.u)
		gv = assembleGlobal(s.buddy.part, s.buddy.v)
		resume, series, source = s.buddy.sweep, s.buddy.series, "buddy"
	case m.LastCheckpoint != nil:
		ck := m.LastCheckpoint
		if ck.P != oldPart.P || ck.N != oldPart.N || ck.Nz != oldPart.Nz {
			return nil, nil, fmt.Errorf("hypercube: checkpoint shape P=%d N=%d Nz=%d cannot restore a P=%d N=%d Nz=%d solve",
				ck.P, ck.N, ck.Nz, oldPart.P, oldPart.N, oldPart.Nz)
		}
		ckPart, err := ck.partition()
		if err != nil {
			return nil, nil, err
		}
		if err := ck.compatible(ckPart); err != nil {
			return nil, nil, err
		}
		gu = assembleGlobal(ckPart, ck.U)
		gv = assembleGlobal(ckPart, ck.V)
		resume, series, source = ck.Sweep, ck.Residuals, "checkpoint"
	default:
		return nil, nil, fmt.Errorf("hypercube: rank(s) %v died with no buddy mirror and no checkpoint to restore from", dre.Ranks)
	}

	spared, shrunk, err := m.RecoverRanks(dre.Ranks)
	if err != nil {
		return nil, nil, err
	}
	newPart := oldPart
	if shrunk > 0 {
		if newPart, err = engine.NewPartition(len(m.ring), oldPart.N, oldPart.Nz); err != nil {
			return nil, nil, err
		}
	}
	if err := s.build(newPart); err != nil {
		return nil, nil, err
	}

	// build reloaded every slab's initial guess, so every rank gets
	// its full local grids back.
	if err := engine.RestoreSlabs(m.Fabric(), newPart, dre.Ranks, shrunk > 0,
		[]int{jacobi.PlaneU, jacobi.PlaneV}, gu, gv); err != nil {
		return nil, nil, err
	}

	// A stale pre-recovery checkpoint can no longer restore the new
	// shape, so synthesize a fresh one at the resume boundary (internal
	// only — not sent to the sink; its counters are the restore base,
	// which rollback never reads).
	if m.CheckpointEvery > 0 || m.LastCheckpoint != nil {
		ck, err := m.snapshot(resume, newPart, s.global, series, s.base, s.nodeBase)
		if err != nil {
			return nil, nil, err
		}
		m.LastCheckpoint = ck
	}

	info := &engine.RecoveryInfo{Source: source, ResumeSweep: resume, Spared: spared, Shrunk: shrunk}
	return s.engineConfig(resume, series, resume), info, nil
}
