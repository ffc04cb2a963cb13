// Package hypercube models the multi-node NSC: simulated nodes
// connected by hyperspace routers (§1, §2). The interconnect geometry
// lives in internal/topo — the paper's machine is the hypercube fabric
// (a Gray-code ring), but the same Machine runs over the mesh and torus
// fabrics of related lattice computers; the cost model is per-hop
// latency plus bandwidth-limited transfer, from the arch configuration,
// with the hop counts and combine pricing supplied by the topology.
// The machine speaks ring ranks only.
//
// The package also provides the multi-node point-Jacobi driver used by
// the scaling experiment (P2): 1-D domain decomposition along k with
// ghost-plane exchange between ring neighbours (one hop on every
// pristine embedding) and a residual combine over the topology's tree.
// The sweep loop itself — partitioning, halo exchange, convergence
// reduction, fault injection, retry and checkpoint rollback — lives in
// internal/engine; SolveJacobi is a thin client that adapts the
// machine to the engine's Fabric interface, compiles each distinct
// slab once (ranks with the same slab, and later solves on the same
// machine, share its instructions), and supplies the scheme (the sweep
// Step, checkpoint and recovery hooks).
package hypercube

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"strings"

	"repro/internal/arch"
	"repro/internal/engine"
	"repro/internal/jacobi"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Machine is an interconnected ensemble of simulated NSC nodes — a
// hypercube by default, or any fabric from internal/topo.
type Machine struct {
	Cfg arch.Config
	// Dim is ⌈log₂P⌉ — the hypercube dimension when the fabric is the
	// hypercube, and still the residual-combine round count otherwise.
	Dim int
	// Topo is the interconnect the machine is built over; it fixes the
	// rank embedding, hop metric and combine pricing.
	Topo  topo.Topology
	Nodes []*sim.Node

	// CommCycles accumulates router time; MachineCycles accumulates the
	// critical-path time (max node compute per step + communication).
	CommCycles    int64
	MachineCycles int64

	// StopAfter, when positive, runs SolveJacobi for exactly that many
	// sweeps regardless of the residual — for performance measurements
	// where convergence is not the point.
	StopAfter int

	// Workers bounds the host-side goroutine pool that dispatches
	// per-node work in SolveJacobi: 0 or 1 runs sequentially, larger
	// values run up to that many node sweeps concurrently, and -1 uses
	// GOMAXPROCS. Simulated results are bit-identical at every setting:
	// nodes share no mutable simulator state, and all cycle/FLOP
	// accounting is merged in rank order after each barrier.
	Workers int

	// Faults, when non-nil, injects the plan's deterministic faults
	// into SolveJacobi. Nil (the default) keeps the solve loop on the
	// exact fault-free path: no extra simulated cycles, no counters.
	// An empty plan (engine.MustFaultPlan()) injects nothing but runs
	// the engine's pairwise halo schedule, the reference for the
	// overlapped one: results and simulated clocks are identical.
	Faults *engine.FaultPlan
	// CheckpointEvery, when positive, snapshots the solve at every
	// sweep boundary divisible by it (sweep 0 included, so a restore
	// point always exists once the solve starts).
	CheckpointEvery int
	// CheckpointSink, when non-nil, receives every snapshot as it is
	// taken — e.g. SaveCheckpointFile for crash-consistent persistence.
	CheckpointSink func(*Checkpoint) error
	// LastCheckpoint is the most recent snapshot; retry-budget
	// exhaustion rolls the solve back to it.
	LastCheckpoint *Checkpoint
	// Restore, when non-nil, makes the next SolveJacobi resume from
	// this snapshot (typically loaded from disk into a fresh machine)
	// instead of the problem's initial guess.
	Restore *Checkpoint
	// FaultCounters accumulates fault/recovery counters across
	// completed solves on this machine.
	FaultCounters engine.FaultStats

	// Trap is the node-level exception policy, applied to every node at
	// the start of each solve. The zero value (policy off) keeps the
	// exact seed behaviour.
	Trap arch.TrapConfig

	// Obs, when non-nil, arms the unified observability layer on every
	// solve: the engine loop's phase spans and counters land on tracer
	// shard 0 and each node's dispatch/trap/ECC stream lands on shard
	// rank+1 (ring rank order, so a Perfetto track per rank). Nil keeps
	// every instrumented path on its zero-cost branch.
	Obs *obs.Obs

	// Spares holds cold standby boards (see AddSpares). Degraded-mode
	// recovery wires one into a permanently dead rank's slot — the spare
	// adopts the slot's hypercube address — before falling back to a
	// shrinking re-partition when the pool is empty.
	Spares []*sim.Node
	// BuddyEvery controls the in-memory buddy mirror that backs
	// degraded-mode recovery: 0 (the default) arms it every sweep
	// exactly when the fault plan contains a permanent kill, a positive
	// value arms it at that sweep stride unconditionally, and a negative
	// value disables it (recovery then depends on LastCheckpoint).
	// Mirrors are host-side, like checkpoints: they never move the
	// simulated clocks.
	BuddyEvery int
	// RecoveryCounters accumulates degraded-mode recovery stats across
	// completed solves on this machine.
	RecoveryCounters engine.RecoveryStats

	// combineHops is the per-round residual-combine pricing from the
	// topology, recomputed whenever recovery reshapes the ring.
	combineHops []int

	// ring[r] is the live node serving ring rank r and ringAddr[r] its
	// physical address — Topo.Addr(r) at construction, so neighbours
	// are one hop apart. Recovery edits these in place: a spare takes
	// over the dead slot (same address), a shrink deletes the slot, so
	// survivors may then sit more than one hop from their new ring
	// neighbours (the engine prices each pair at its real distance).
	ring     []*sim.Node
	ringAddr []int
	// activated lists spares wired in by recovery (their FLOP, cache and
	// trap counters join the per-solve aggregations); deadAddrs the
	// hypercube addresses of the boards lost.
	activated []*sim.Node
	deadAddrs []int
	// slabs holds the last Jacobi build's compiled sweeps by slab
	// script, so a later solve compiles only slabs it has not seen.
	slabs map[string]slabCode
}

// New builds a hypercube of 2^dim nodes.
func New(cfg arch.Config, dim int) (*Machine, error) {
	if dim < 0 || dim > 10 {
		return nil, fmt.Errorf("hypercube: dimension %d out of range", dim)
	}
	t, err := topo.NewHypercube(dim)
	if err != nil {
		return nil, err
	}
	return NewWithTopology(cfg, t)
}

// NewWithTopology builds a machine of t.P() nodes over an arbitrary
// fabric. The topology fixes which physical node serves each ring rank,
// the hop metric and the combine-tree pricing; the solver data movement
// is identical across fabrics, so results are bit for bit the same and
// only the simulated comm clocks differ.
func NewWithTopology(cfg arch.Config, t topo.Topology) (*Machine, error) {
	if t == nil {
		return nil, fmt.Errorf("hypercube: nil topology")
	}
	p := t.P()
	if p < 1 || p > 1<<10 {
		return nil, fmt.Errorf("hypercube: %s node count %d out of range", t.Name(), p)
	}
	m := &Machine{Cfg: cfg, Dim: ringDim(p), Topo: t}
	for i := 0; i < p; i++ {
		n, err := sim.NewNode(cfg)
		if err != nil {
			return nil, err
		}
		m.Nodes = append(m.Nodes, n)
	}
	m.ring = make([]*sim.Node, p)
	m.ringAddr = make([]int, p)
	for r := 0; r < p; r++ {
		a := t.Addr(r)
		if a < 0 || a >= p {
			return nil, fmt.Errorf("hypercube: %s embeds rank %d at address %d outside %d nodes",
				t.Name(), r, a, p)
		}
		m.ring[r] = m.Nodes[a]
		m.ringAddr[r] = a
	}
	m.combineHops = t.CombineSteps(m.ringAddr)
	return m, nil
}

// P returns the live rank count: the constructed node count until a
// permanent node loss shrinks the ring.
func (m *Machine) P() int { return len(m.ring) }

// checkRank validates a live ring rank.
func (m *Machine) checkRank(what string, r int) error {
	if r < 0 || r >= m.P() {
		return fmt.Errorf("hypercube: %s node %d outside %d nodes", what, r, m.P())
	}
	return nil
}

// SendCost models one message: per-hop router latency plus
// bandwidth-limited payload time.
func (m *Machine) SendCost(bytes int64, hops int) int64 {
	if hops == 0 {
		return 0
	}
	bw := int64(m.Cfg.RouterBytesPerCycle)
	return int64(hops*m.Cfg.RouterHopCycles) + (bytes+bw-1)/bw
}

// fabric adapts the Machine to engine.Fabric: engine ring ranks map to
// live boards through the machine's ring table — the topology's
// embedding at construction, so ring neighbours are one hop apart, and
// whatever recovery left behind after a permanent node loss — and the
// clocks land on the machine's counters.
type fabric struct{ m *Machine }

func (f fabric) P() int               { return len(f.m.ring) }
func (f fabric) Topology() string     { return f.m.Topo.Name() }
func (f fabric) CombineHops() []int   { return f.m.combineHops }
func (f fabric) Node(r int) *sim.Node { return f.m.ring[r] }
func (f fabric) WordBytes() int       { return f.m.Cfg.WordBytes }
func (f fabric) SendCost(bytes int64, h int) int64 {
	return f.m.SendCost(bytes, h)
}

// Hops implements engine.Fabric over live ring ranks. The engine only
// prices ranks below P (see the Fabric contract), so a violation is a
// caller bug and panics rather than silently pricing a message to a
// node that does not exist. Every live address was validated at
// construction or recovery, so a topology error is a bug too.
func (f fabric) Hops(from, to int) int {
	p := len(f.m.ring)
	if from < 0 || from >= p || to < 0 || to >= p {
		panic(fmt.Sprintf("hypercube: fabric hops %d->%d outside %d live ranks", from, to, p))
	}
	h, err := f.m.Topo.Hops(f.m.ringAddr[from], f.m.ringAddr[to])
	if err != nil {
		panic(fmt.Sprintf("hypercube: validated address failed topology metric: %v", err))
	}
	return h
}

// Copy implements engine.Fabric: it moves count words between two
// ranks' planes and prices the message over the pair's hop count.
// Plane and word-range errors come back from the nodes unpriced.
func (f fabric) Copy(fromRank, fromPlane int, fromAddr int64,
	toRank, toPlane int, toAddr int64, count int) (int64, error) {
	data, err := f.m.ring[fromRank].ReadWords(fromPlane, fromAddr, count)
	if err != nil {
		return 0, err
	}
	if err := f.m.ring[toRank].WriteWords(toPlane, toAddr, data); err != nil {
		return 0, err
	}
	return f.m.SendCost(int64(count)*int64(f.m.Cfg.WordBytes), f.Hops(fromRank, toRank)), nil
}
func (f fabric) Corrupt(r, plane int, addr int64, count int) error {
	return f.m.corruptNode(f.m.ring[r], plane, addr, count)
}
func (f fabric) AddMachineCycles(c int64) { f.m.MachineCycles += c }
func (f fabric) AddCommCycles(c int64)    { f.m.CommCycles += c }

// RecoverRanks lets engine clients that only hold the Fabric (the
// distributed multigrid) reach the machine's ring repair through a
// type assertion.
func (f fabric) RecoverRanks(dead []int) (spared, shrunk int, err error) {
	return f.m.RecoverRanks(dead)
}

// ringDim returns the recursive-doubling round count for p ranks:
// ⌈log₂p⌉, which equals the hypercube dimension while the ring is
// full.
func ringDim(p int) int {
	if p <= 1 {
		return 0
	}
	return bits.Len(uint(p - 1))
}

// Fabric returns the engine's view of this machine: ring-rank node
// access through the topology's embedding plus the router cost model.
// Engine clients (SolveJacobi, the distributed multigrid) run on it.
func (m *Machine) Fabric() engine.Fabric { return fabric{m} }

// ArmObs points every node's observability hook at the machine's Obs
// (or detaches them when Obs is nil). Shard 0 is the engine's phase
// track, so ring rank r records on shard r+1 — one Perfetto track per
// rank, in ring order.
func (m *Machine) ArmObs() {
	for r, nd := range m.ring {
		nd.Obs = m.Obs
		nd.ObsID = r + 1
	}
}

// JacobiResult reports a multi-node solve.
type JacobiResult struct {
	U          []float64 // assembled global field
	Iterations int
	Converged  bool
	Residual   float64
	// ResidualSeries holds the combined max-residual after every
	// iteration, in order — the convergence history, and the signal the
	// parallel-equivalence tests compare bit for bit.
	ResidualSeries []float64
	// Cycles is the machine critical path: per-iteration max node time
	// plus exchange and combine communication (including retry backoff
	// and stall time when faults were injected).
	Cycles int64
	// TotalFLOPs across all nodes.
	TotalFLOPs int64
	GFLOPS     float64
	// PlanCache aggregates the nodes' decoded-instruction cache
	// counters: with the decode-once engine each node compiles its two
	// sweep instructions exactly once however many iterations run. A
	// run restored from a checkpoint carries the snapshot's counters
	// forward.
	PlanCache sim.PlanCacheStats
	// Faults counts injected faults and the recovery work they caused;
	// all-zero on fault-free runs.
	Faults engine.FaultStats
	// Traps aggregates the nodes' exception counters in rank order
	// (plus any counters carried in from a restored checkpoint), so
	// parallel runs report identical totals.
	Traps sim.TrapStats
	// Recovery counts degraded-mode recoveries: permanent node losses
	// survived by hot spares or a shrinking re-partition. All-zero
	// unless a kill-forever fault fired.
	Recovery engine.RecoveryStats
}

// SolveJacobi runs the paper's example problem on the hypercube with a
// 1-D decomposition along k. The global grid is N×N×Nz; the Nz−2
// interior planes must divide evenly by the node count. Each node
// programs its slab through the same visual-environment pipelines as
// the single-node solver (ghost planes enter as masked-off boundary);
// the engine then drives the sweep → combine → exchange loop, with
// this client supplying the per-sweep instructions and the
// checkpoint/rollback hooks.
//
// When a FaultPlan is armed, faulted operations retry within the
// engine's fixed budget; a retry budget that exhausts rolls the solve
// back to LastCheckpoint (when one exists and the restore budget
// allows) instead of failing. A permanent kill (FaultKillForever) instead
// triggers degraded-mode recovery: the dead slot is refilled from the
// spare pool or retired by a shrinking re-partition, the iterate is
// restored from the buddy mirror (or LastCheckpoint), and the solve
// resumes. Recovered runs produce bit-identical grids and residual
// histories to fault-free runs; only the cycle counts grow.
func (m *Machine) SolveJacobi(global *jacobi.Problem) (*JacobiResult, error) {
	p := m.P()
	for _, nd := range m.participants() {
		nd.TrapCfg = m.Trap
	}
	m.ArmObs()
	inner := global.Nz - 2
	if inner <= 0 || inner%p != 0 {
		return nil, fmt.Errorf("hypercube: %d interior planes do not divide across %d nodes", inner, p)
	}
	n, nn := global.N, global.N*global.N
	part, err := engine.NewPartition(p, n, global.Nz)
	if err != nil {
		return nil, err
	}
	s := newJacobiSolve(m, global)
	if err := s.build(part); err != nil {
		return nil, err
	}

	var startSeries []float64
	startIt, skipAt := 0, -1
	if ck := m.Restore; ck != nil {
		if err := ck.compatible(part); err != nil {
			return nil, err
		}
		if err := m.applyCheckpoint(ck); err != nil {
			return nil, err
		}
		startIt, skipAt = ck.Sweep, ck.Sweep
		startSeries = ck.Residuals
		m.MachineCycles, m.CommCycles = ck.MachineCycles, ck.CommCycles
		m.Faults.SetFired(ck.FaultFired)
		s.base = ck.Faults
		s.nodeBase = engine.NodeTotals{PlanCache: ck.PlanCache, Traps: ck.Traps}
		m.LastCheckpoint = ck
	}

	er, err := engine.Run(s.engineConfig(startIt, startSeries, skipAt))
	if err != nil {
		return nil, err
	}
	part = s.part // recovery may have re-partitioned

	// Assemble the global field from the owned planes; the global
	// boundary planes keep their initial values.
	res := &JacobiResult{
		Iterations: er.Sweeps, Converged: er.Converged,
		Residual: er.Residual, ResidualSeries: er.Series,
		U: make([]float64, len(global.U0)),
	}
	finalPlane := jacobi.PlaneU
	if res.Iterations%2 == 1 {
		finalPlane = jacobi.PlaneV
	}
	copy(res.U[:nn], global.U0[:nn])
	copy(res.U[(global.Nz-1)*nn:], global.U0[(global.Nz-1)*nn:])
	for r := 0; r < part.P; r++ {
		data, err := m.ring[r].ReadWords(finalPlane, int64(nn), part.Planes[r]*nn)
		if err != nil {
			return nil, err
		}
		copy(res.U[part.Lo[r]*nn:(part.Lo[r]+part.Planes[r])*nn], data)
	}
	tot := s.nodeBase
	for _, nd := range m.participants() {
		tot.AddNode(nd)
	}
	res.TotalFLOPs, res.PlanCache, res.Traps = tot.FLOPs, tot.PlanCache, tot.Traps
	res.Faults = s.base
	res.Faults.Add(er.Faults)
	m.FaultCounters.Add(er.Faults)
	res.Recovery = er.Recovery
	m.RecoveryCounters.Add(er.Recovery)
	res.Cycles = m.MachineCycles
	if res.Cycles > 0 {
		res.GFLOPS = float64(res.TotalFLOPs) / (float64(res.Cycles) / m.Cfg.ClockHz) / 1e9
	}
	if m.StopAfter == 0 && !res.Converged && res.Iterations >= global.MaxIter {
		return res, fmt.Errorf("hypercube: no convergence in %d iterations (residual %g)", res.Iterations, res.Residual)
	}
	return res, nil
}

// participants returns every board that has run work for this machine:
// the constructed nodes plus any activated spares. Counter
// aggregations (FLOPs, plan cache, traps) run over this set so a dead
// board's pre-death work and a spare's post-activation work are both
// reported.
func (m *Machine) participants() []*sim.Node {
	if len(m.activated) == 0 {
		return m.Nodes
	}
	return append(append([]*sim.Node(nil), m.Nodes...), m.activated...)
}

// corruptNode bit-flips count words at plane/addr of a node —
// deterministic payload corruption (sign plus scattered mantissa bits).
func (m *Machine) corruptNode(nd *sim.Node, plane int, addr int64, count int) error {
	data, err := nd.ReadWords(plane, addr, count)
	if err != nil {
		return err
	}
	for i, v := range data {
		data[i] = math.Float64frombits(math.Float64bits(v) ^ 0x8000000000000421)
	}
	return nd.WriteWords(plane, addr, data)
}

// snapshot captures a sweep-boundary checkpoint: every rank's u and v
// planes, the residual history, the machine clocks and the fault/plan
// counters. An uneven partition (the shape a shrink leaves behind)
// records its per-rank plane counts and serializes as version 3.
func (m *Machine) snapshot(it int, part *engine.Partition, global *jacobi.Problem,
	series []float64, faults engine.FaultStats, base engine.NodeTotals) (*Checkpoint, error) {
	nn := global.N * global.N
	ck := &Checkpoint{
		Sweep: it, P: part.P, N: global.N, Nz: global.Nz,
		Topology:      m.Topo.Name(),
		Residuals:     append([]float64(nil), series...),
		MachineCycles: m.MachineCycles,
		CommCycles:    m.CommCycles,
		Faults:        faults,
		FaultFired:    m.Faults.FiredSnapshot(),
	}
	if part.Uniform() {
		ck.Slab = part.Planes[0]
	} else {
		ck.Planes = append([]int(nil), part.Planes...)
	}
	for r := 0; r < part.P; r++ {
		words := (part.Planes[r] + 2) * nn
		u, err := m.ring[r].ReadWords(jacobi.PlaneU, 0, words)
		if err != nil {
			return nil, err
		}
		v, err := m.ring[r].ReadWords(jacobi.PlaneV, 0, words)
		if err != nil {
			return nil, err
		}
		ck.U = append(ck.U, u)
		ck.V = append(ck.V, v)
	}
	tot := base
	for _, nd := range m.participants() {
		tot.AddNode(nd)
	}
	ck.PlanCache, ck.Traps = tot.PlanCache, tot.Traps
	return ck, nil
}

// ValidateCheckpoint rejects snapshots whose header declares more
// ranks or larger planes than this machine provides — a forged or
// mismatched file must fail with a clear error, never an index panic
// or a partial restore.
func (m *Machine) ValidateCheckpoint(ck *Checkpoint) error {
	if ck.Topology != "" && ck.Topology != m.Topo.Name() {
		return fmt.Errorf("hypercube: checkpoint recorded topology %q, machine runs %q",
			ck.Topology, m.Topo.Name())
	}
	if ck.P > m.P() {
		return fmt.Errorf("hypercube: checkpoint declares %d ranks, machine has %d nodes", ck.P, m.P())
	}
	if len(ck.U) != ck.P || len(ck.V) != ck.P {
		return fmt.Errorf("hypercube: checkpoint holds %d/%d node grids, header declares %d ranks",
			len(ck.U), len(ck.V), ck.P)
	}
	if ck.Planes != nil && len(ck.Planes) != ck.P {
		return fmt.Errorf("hypercube: checkpoint carries %d plane counts, header declares %d ranks",
			len(ck.Planes), ck.P)
	}
	if w := int64(ck.maxPlaneWords()); w > m.Cfg.PlaneWords() {
		return fmt.Errorf("hypercube: checkpoint planes of %d words exceed the machine's %d-word planes",
			w, m.Cfg.PlaneWords())
	}
	return nil
}

// applyCheckpoint writes a snapshot's iterate planes back into the
// live ring's nodes.
func (m *Machine) applyCheckpoint(ck *Checkpoint) error {
	if err := m.ValidateCheckpoint(ck); err != nil {
		return err
	}
	for r := 0; r < ck.P; r++ {
		if err := m.ring[r].WriteWords(jacobi.PlaneU, 0, ck.U[r]); err != nil {
			return err
		}
		if err := m.ring[r].WriteWords(jacobi.PlaneV, 0, ck.V[r]); err != nil {
			return err
		}
	}
	return nil
}

// InjectECC arms seeded memory-plane ECC events on ring rank r.
func (m *Machine) InjectECC(r int, faults ...sim.ECCFault) error {
	if err := m.checkRank("ECC fault", r); err != nil {
		return err
	}
	return m.ring[r].InjectECC(faults...)
}

// RankECCFault is one parsed -ecc-faults entry: an ECC event aimed at
// a ring rank.
type RankECCFault struct {
	Rank  int
	Fault sim.ECCFault
}

// ParseRankECCFaults parses the nscsim -ecc-faults syntax: a
// comma-separated list of "rank:plane:addr:single|double".
func ParseRankECCFaults(spec string) ([]RankECCFault, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var out []RankECCFault
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		i := strings.Index(tok, ":")
		if i < 0 {
			return nil, fmt.Errorf("hypercube: ECC fault %q: want rank:plane:addr:single|double", tok)
		}
		rank, err := strconv.Atoi(tok[:i])
		if err != nil {
			return nil, fmt.Errorf("hypercube: ECC fault rank %q: %w", tok[:i], err)
		}
		fs, err := sim.ParseECCFaults(tok[i+1:])
		if err != nil || len(fs) != 1 {
			return nil, fmt.Errorf("hypercube: ECC fault %q: want rank:plane:addr:single|double", tok)
		}
		out = append(out, RankECCFault{Rank: rank, Fault: fs[0]})
	}
	return out, nil
}

// PeakGFLOPS returns the machine's aggregate peak rate over the
// installed boards (dead boards included — the hardware exists even
// when degraded).
func (m *Machine) PeakGFLOPS() float64 {
	return float64(len(m.Nodes)) * m.Cfg.PeakFLOPS() / 1e9
}

// TotalMemoryBytes returns the machine's aggregate installed memory.
func (m *Machine) TotalMemoryBytes() int64 {
	return int64(len(m.Nodes)) * m.Cfg.NodeMemoryBytes()
}

// Efficiency returns achieved/peak for a result.
func (r *JacobiResult) Efficiency(m *Machine) float64 {
	peak := m.PeakGFLOPS()
	if peak == 0 {
		return 0
	}
	return r.GFLOPS / peak
}
