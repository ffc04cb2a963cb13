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
// reduction, fault injection, retry, and taking, keeping and restoring
// checkpoints — lives in internal/engine, and so does the slab map:
// engine.Partition alone decides which global planes each rank holds
// and moves them between the ring and the global grid. SolveJacobi is a
// thin client that adapts the machine to the engine's Fabric
// interface, compiles each distinct slab once (ranks with the same
// slab, and later solves on the same machine, share its instructions;
// the boards, peers of one another, share one plan table, so the
// machine decodes each distinct instruction once), supplies the scheme — the sweep Step, the state planes and slab
// rebuild the engine's recovery protocol needs, and the on-disk
// Checkpoint, which holds an engine snapshot with the counters a
// restart carries — and gathers the result through the partition.
package hypercube

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/arch"
	"repro/internal/diag"
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
	// values run up to that many node sweeps concurrently, the calling
	// goroutine included, and -1 uses GOMAXPROCS. Helpers beyond
	// GOMAXPROCS are not started. Simulated results are bit-identical
	// at every setting: the only simulator state nodes share is their
	// plan table, which hands every node the same immutable plan for an
	// instruction, and all cycle/FLOP accounting is merged in rank
	// order after each barrier.
	Workers int

	// Faults, when non-nil, injects the plan's deterministic faults
	// into SolveJacobi. They cost simulated cycles and count in
	// FaultCounters; a solve that recovers from them matches the
	// fault-free grid bit for bit. Nil (the default) and an empty plan
	// (engine.MustFaultPlan()) both inject nothing: no extra simulated
	// cycles, no counters.
	Faults *engine.FaultPlan
	// CheckpointEvery, when positive, makes the engine checkpoint the
	// solve at every sweep boundary divisible by it (sweep 0 included,
	// so a restore point always exists once the solve starts) and keep
	// the latest for rollback and recovery.
	CheckpointEvery int
	// CheckpointSink, when non-nil, receives every checkpoint as it is
	// taken — e.g. SaveCheckpointFile for crash-consistent persistence.
	CheckpointSink func(*Checkpoint) error
	// Restore, when non-nil, makes the next SolveJacobi resume from
	// this snapshot (typically loaded from disk into a fresh machine)
	// instead of the problem's initial guess; the engine keeps it as
	// the solve's checkpoint until it takes a newer one. That solve
	// consumes it: once the snapshot passes its checks, SolveJacobi
	// clears Restore, so a later solve starts from its own U0 and the
	// clocks keep moving forward.
	Restore *Checkpoint
	// FaultCounters accumulates fault/recovery counters across
	// completed solves on this machine.
	FaultCounters engine.FaultStats

	// Trap is the node-level exception policy. SolveJacobi applies it
	// to every live node at its start and RecoverRanks to each spare it
	// wires in; a multigrid run over Fabric() leaves the live nodes'
	// TrapCfg as their caller set it. The zero value (policy off) keeps
	// the exact seed behaviour.
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
	// script key, so a later solve compiles only slabs it has not seen.
	slabs map[jacobi.ScriptKey]slabCode
}

// maxBoards bounds a machine's node count, and separately its spare
// pool.
const maxBoards = 1 << 10

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
	if p < 1 || p > maxBoards {
		return nil, fmt.Errorf("hypercube: %s node count %d out of range", t.Name(), p)
	}
	first, err := sim.NewNode(cfg)
	if err != nil {
		return nil, err
	}
	// Every later board is a peer of the first: the machine's nodes
	// share one plan table, so it decodes each instruction once.
	m := &Machine{Cfg: cfg, Topo: t, Nodes: make([]*sim.Node, p)}
	m.Nodes[0] = first
	for i := 1; i < p; i++ {
		m.Nodes[i] = first.NewPeer()
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

func (f fabric) AddMachineCycles(c int64) { f.m.MachineCycles += c }
func (f fabric) AddCommCycles(c int64)    { f.m.CommCycles += c }

func (f fabric) RecoverRanks(dead []int) (spared, shrunk int, err error) {
	return f.m.RecoverRanks(dead)
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
// 1-D decomposition along k. The global grid is N×N×Nz; engine.Partition
// splits its Nz−2 interior planes across the live ranks, at least one
// each, the first (Nz−2) mod P ranks taking one more. Each node
// programs its slab through the same visual-environment pipelines as
// the single-node solver (ghost planes enter as masked-off boundary);
// the engine then drives the sweep → combine → exchange loop, with
// this client supplying the per-sweep instructions and persisting the
// engine's checkpoints through CheckpointSink. The result's U is
// gathered from the ring by the partition's slab map, boundary planes
// included, so it matches Problem.Reference bit for bit.
//
// When a FaultPlan is armed, faulted operations retry within the
// engine's fixed budget; a retry budget that exhausts rolls the solve
// back to the engine's latest checkpoint (when one exists and the
// restore budget allows) instead of failing. A permanent kill
// (FaultKillForever) instead triggers the engine's degraded-mode
// recovery: the dead slot is refilled from the spare pool or deleted
// by a shrinking re-partition, the iterate is restored from the buddy
// mirror (or that checkpoint), and the solve resumes. Recovered runs
// produce bit-identical grids and residual histories to fault-free
// runs; only the cycle counts grow. The engine keeps checkpoints per
// solve, starting from the one Restore names, so rollback and recovery
// never reach an earlier solve's iterate.
func (m *Machine) SolveJacobi(global *jacobi.Problem) (*JacobiResult, error) {
	for _, nd := range m.participants() {
		nd.TrapCfg = m.Trap
	}
	m.ArmObs()
	part, err := engine.NewPartition(m.P(), global.N, global.Nz)
	if err != nil {
		return nil, err
	}
	s := newJacobiSolve(m, global)
	if err := s.build(part); err != nil {
		return nil, err
	}

	var resume *engine.Snapshot
	if ck := m.Restore; ck != nil {
		if err := ck.compatible(m.Topo.Name(), part); err != nil {
			return nil, err
		}
		resume = ck.resume()
		m.Restore = nil // consumed: the next solve starts from its U0
		m.MachineCycles, m.CommCycles = ck.MachineCycles, ck.CommCycles
		m.Faults.SetFired(ck.FaultFired)
		s.base = ck.Faults
		s.nodeBase = engine.NodeTotals{PlanCache: ck.PlanCache, Traps: ck.Traps}
	}

	er, err := engine.Run(s.engineConfig(resume))
	if err != nil {
		return nil, err
	}

	res := &JacobiResult{
		Iterations: er.Sweeps, Converged: er.Converged,
		Residual: er.Residual, ResidualSeries: er.Series,
		U: make([]float64, global.Cells()),
	}
	finalPlane := jacobi.PlaneU
	if res.Iterations%2 == 1 {
		finalPlane = jacobi.PlaneV
	}
	// s.part: recovery may have re-partitioned.
	if err := s.part.Gather(m.Fabric(), finalPlane, res.U); err != nil {
		return nil, err
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

// checkpoint copies an engine snapshot of the u and v planes over
// part into a Checkpoint, with the machine clocks and the fault, plan
// and trap counters. It clones the images and the series: the sink may
// keep what it is handed, and the engine keeps the snapshot.
func (m *Machine) checkpoint(snap *engine.Snapshot, part *engine.Partition,
	faults engine.FaultStats, base engine.NodeTotals) *Checkpoint {
	tot := base
	for _, nd := range m.participants() {
		tot.AddNode(nd)
	}
	return &Checkpoint{
		Sweep: snap.Sweep, Topology: m.Topo.Name(), N: part.N, Nz: part.Nz,
		Residuals:     append([]float64(nil), snap.Series...),
		MachineCycles: m.MachineCycles,
		CommCycles:    m.CommCycles,
		Faults:        faults,
		PlanCache:     tot.PlanCache,
		Traps:         tot.Traps,
		FaultFired:    m.Faults.FiredSnapshot(),
		U:             slices.Clone(snap.Images[0]),
		V:             slices.Clone(snap.Images[1]),
	}
}

// InjectECC arms seeded memory-plane ECC events on ring rank r. A rank
// outside the ring, or an event outside the node's planes, is a typed
// diagnostic (diag.RuleFaultPlan) naming the bad rank, plane or
// address.
func (m *Machine) InjectECC(r int, faults ...sim.ECCFault) error {
	if r < 0 || r >= m.P() {
		return diag.Errorf(diag.RuleFaultPlan, "hypercube: ECC fault names rank %d, but the %d-rank machine's ranks are 0..%d", r, m.P(), m.P()-1)
	}
	if err := m.ring[r].InjectECC(faults...); err != nil {
		return diag.Errorf(diag.RuleFaultPlan, "hypercube: rank %d: %w", r, err)
	}
	return nil
}

// RankECCFault is one parsed -ecc-faults entry: an ECC event aimed at
// a ring rank.
type RankECCFault struct {
	Rank  int
	Fault sim.ECCFault
}

// ParseRankECCFaults parses the nscsim -ecc-faults syntax: a
// comma-separated list of "rank:plane:addr:single|double". Errors are
// typed diagnostics (diag.RuleFaultPlan) naming the bad field.
func ParseRankECCFaults(spec string) ([]RankECCFault, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var out []RankECCFault
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		rank, event, ok := strings.Cut(tok, ":")
		if !ok {
			return nil, diag.Errorf(diag.RuleFaultPlan, "hypercube: ECC fault %q: want rank:plane:addr:single|double", tok)
		}
		r, err := strconv.Atoi(rank)
		if err != nil {
			return nil, diag.Errorf(diag.RuleFaultPlan, "hypercube: ECC fault rank %q: %w", rank, err)
		}
		f, err := sim.ParseECCFault(event)
		if err != nil {
			return nil, diag.Errorf(diag.RuleFaultPlan, "hypercube: ECC fault %q: %w", tok, err)
		}
		out = append(out, RankECCFault{Rank: r, Fault: f})
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
