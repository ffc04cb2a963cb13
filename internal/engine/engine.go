// Package engine is the distributed solver runtime extracted from the
// hypercube Jacobi driver: the reusable parallel skeleton — slab
// partitioning and a phase-structured sweep loop (dispatch → combine →
// exchange) with fault injection, bounded retry, checkpoint hooks and
// rank-ordered stat merges — separated from any particular numerical
// scheme, so that Jacobi, multigrid and future workloads (SOR,
// red-black, new stencils) are small clients of one substrate instead
// of copies of a 400-line loop. Clients compile their slab
// instructions before the loop starts; the engine generates no code.
//
// The engine addresses ranks on a ring; the Fabric interface maps ring
// ranks onto real machine topology (the hypercube adapter routes them
// through the Gray code so ring neighbours are one hop apart) and owns
// the cost model and the machine-wide clocks. All per-rank work runs
// through a bounded worker pool; every accumulator update happens
// either under a single goroutine per rank or host-side after a
// barrier, merged in rank order, so results are bit-identical at every
// worker count.
//
// On the fault-free path the loop overlaps halo exchange with interior
// computation: each rank gathers its outgoing ghost faces into pooled
// buffers inside the dispatch barrier (right after its own sweep, while
// other ranks are still computing), and the exchange phase is then a
// single scatter barrier in which every rank writes only its own ghost
// planes. Whenever a fault plan is armed the loop keeps the seed's
// two-parity pairwise schedule instead, because fault triggering and
// retry accounting are defined per pair; an empty plan
// (MustFaultPlan()) runs that schedule with nothing to inject, which
// makes it the reference the overlap is measured against. The
// simulated cost model of the two schedules is identical — overlap is
// a host-time optimization, measured by BenchmarkEngineOverlap.
package engine

import (
	"errors"
	"fmt"

	"repro/internal/arch"
	"repro/internal/microcode"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Fabric is the machine substrate the engine runs on: rank-addressed
// node access, the message cost model, and the machine-wide clocks.
// Ranks are ring ranks; the implementation maps them to physical
// topology through an internal/topo embedding (the hypercube machine
// uses the Gray code; mesh and torus machines a snake walk).
type Fabric interface {
	// P returns the rank count.
	P() int
	// Node returns the simulated node behind a ring rank.
	Node(rank int) *sim.Node
	// WordBytes is the payload size of one word.
	WordBytes() int
	// SendCost prices one message of `bytes` over `hops` hops.
	SendCost(bytes int64, hops int) int64
	// Hops returns the path length between two ring ranks.
	//
	// Invariant: both ranks must be live (0 ≤ r < P). NewLoop checks
	// the partition against P; the loop then prices only the ring pairs
	// (r, r+1) with r+1 < P, and ChargeScatter only ranks below P — so,
	// unlike topo.Topology.Hops, this carries no error return.
	// Implementations must panic on a violation rather than return a
	// garbage distance.
	Hops(from, to int) int
	// Topology names the physical fabric ("hypercube", "mesh2d",
	// "torus2d") for observability tags and reports.
	Topology() string
	// CombineHops returns the per-round critical-path hop counts of the
	// residual-combine tree over the live ranks: the loop charges one
	// word-sized message over CombineHops()[d] hops for round d. Empty
	// when P is 1.
	CombineHops() []int
	// Copy moves count words between ranks' planes, returning the
	// router cost without touching the shared clocks, so concurrent
	// transfers over disjoint pairs can defer accounting to a
	// deterministic rank-order merge.
	Copy(fromRank, fromPlane int, fromAddr int64,
		toRank, toPlane int, toAddr int64, count int) (int64, error)
	// Corrupt bit-flips count words on a rank (fault injection).
	Corrupt(rank, plane int, addr int64, count int) error
	// AddMachineCycles charges the machine critical path; AddCommCycles
	// the aggregate router load.
	AddMachineCycles(cycles int64)
	AddCommCycles(cycles int64)
	// RecoverRanks repairs the ring after the given ring ranks died
	// permanently: a hot spare takes over a dead slot, or the slot is
	// deleted and the ring shrinks. It returns how many slots were
	// spared and how many deleted; P reports the repaired ring.
	RecoverRanks(dead []int) (spared, shrunk int, err error)
}

// Config parameterizes a Loop (and Run, the iteration driver on top
// of it).
type Config struct {
	Fabric  Fabric
	Part    *Partition
	Workers int

	// Faults, when non-nil, arms deterministic fault injection. Faulted
	// operations retry within a fixed budget: three attempts each, and
	// four checkpoint restores per run.
	Faults *FaultPlan

	// ResidualFU is the reduce register the convergence combine reads.
	ResidualFU arch.FUID

	// Observe, when non-nil, receives one sample per completed phase
	// with the simulated cycles it added to the critical path. Called
	// host-side after each barrier; nil costs nothing.
	Observe func(phase string, sweep int, cycles int64)

	// Obs, when non-nil, routes the same per-phase samples into the
	// unified observability layer: an "engine.phase.<name>" counter and
	// ".cycles" histogram per phase, plus one span per phase on tracer
	// shard 0 whose timeline is the loop's accumulated simulated
	// critical path. Everything recorded is derived from simulated
	// cycles after a barrier, so metrics, spans and results are
	// bit-identical at every worker count.
	Obs *obs.Obs

	// The fields below drive Run; Loop-level clients ignore them.

	// Step runs iteration it up to the residual combine — one sweep
	// for Jacobi, one V-cycle plus the fine residual for multigrid —
	// through lp's phases, leaving each rank's residual in ResidualFU.
	// It names the plane Run exchanges after the combine (-1 for none).
	// A BudgetError rolls the run back exactly like one from a phase
	// Run drives itself; a DeadRankError starts recovery.
	Step func(lp *Loop, it int) (plane int, be *BudgetError, err error)

	// MaxSweeps bounds the loop; StopAfter, when positive, runs exactly
	// that many sweeps regardless of the residual; Tol is the
	// convergence threshold.
	MaxSweeps int
	StopAfter int
	Tol       float64

	// CheckpointEvery, when positive, invokes Take at every sweep
	// boundary divisible by it. StartSweep/StartSeries/SkipSnapshotAt
	// seed a run resumed from a checkpoint (SkipSnapshotAt must be -1
	// when not resuming — the resumed boundary holds no new progress).
	CheckpointEvery int
	StartSweep      int
	StartSeries     []float64
	SkipSnapshotAt  int

	// Take snapshots the client's state at a sweep boundary; live is
	// the loop's fault counters so far (the client adds its own base).
	// Rollback writes the latest snapshot onto the ring — after a retry
	// budget exhausts, or after a death the buddy mirror cannot cover —
	// and returns the sweep to resume from; ok=false means no snapshot
	// exists and the error surfaces instead.
	Take     func(sweep int, series []float64, live FaultStats) error
	Rollback func() (sweep int, series []float64, ok bool, err error)

	// State lists the planes that carry the iterate from one iteration
	// to the next, and Rebuild recompiles and reloads every rank's slab
	// over part, a repaired ring; sweep and series name the boundary the
	// run resumes at. When the plan holds a permanent kill and Rebuild
	// is set, Run mirrors State at every boundary and recovers dead
	// ranks (see recovery.go); otherwise a dead rank surfaces as an
	// error.
	State   []int
	Rebuild func(part *Partition, sweep int, series []float64) error
}

// Loop is the phase-structured sweep loop: Dispatch runs one
// instruction on every rank, CombineResidual reduces the convergence
// signal, Exchange swaps ghost faces between ring neighbours. All
// fault/retry/stat accounting lives here; clients sequence the phases,
// usually inside a Run Step hook.
type Loop struct {
	cfg *Config

	fst    FaultStats   // live counters, merged in rank order
	deltas []FaultStats // per-rank counter deltas (fault path only)
	budget []*BudgetError
	dead   []bool  // per-rank permanent-death slate (fault path only)
	sweep  []int64 // per-rank dispatch cycles
	cost   []int64 // per-pair exchange cost

	// halo holds each rank's outgoing faces on the overlapped path:
	// halo[2r] the down face (last owned plane), halo[2r+1] the up face
	// (first owned plane). Allocated once per loop and reused every
	// sweep.
	halo [][]float64

	// simTS is the loop's observability timeline: the simulated
	// critical-path cycles accumulated by observed phases, used as span
	// timestamps so traces replay the machine's time, not the host's.
	simTS int64
}

// NewLoop builds a loop over the configured fabric and partition.
func NewLoop(cfg *Config) (*Loop, error) {
	if cfg.Fabric == nil || cfg.Part == nil {
		return nil, fmt.Errorf("engine: loop needs a fabric and a partition")
	}
	p := cfg.Fabric.P()
	if cfg.Part.P != p {
		return nil, fmt.Errorf("engine: partition over %d ranks on a %d-rank fabric", cfg.Part.P, p)
	}
	lp := &Loop{
		cfg:   cfg,
		sweep: make([]int64, p),
		cost:  make([]int64, p),
	}
	if o := cfg.Obs; o != nil {
		o.Inc("engine.topology." + cfg.Fabric.Topology())
	}
	if cfg.Faults != nil {
		lp.deltas = make([]FaultStats, p)
		lp.budget = make([]*BudgetError, p)
		lp.dead = make([]bool, p)
	} else if p > 1 {
		lp.halo = make([][]float64, 2*p)
		for i := range lp.halo {
			lp.halo[i] = make([]float64, cfg.Part.NN())
		}
	}
	return lp, nil
}

// overlapped reports whether the gather/scatter halo path is active.
func (lp *Loop) overlapped() bool { return lp.halo != nil }

// Stats returns the loop's live fault counters.
func (lp *Loop) Stats() FaultStats { return lp.fst }

// mergeDeltas folds the per-rank counter deltas into the live counters
// in rank order, after a barrier.
func (lp *Loop) mergeDeltas() {
	for r := range lp.deltas {
		lp.fst.Add(lp.deltas[r])
		lp.deltas[r] = FaultStats{}
	}
}

// firstBudget resolves the per-rank budget errors deterministically:
// the lowest rank wins, and the slate is cleared.
func (lp *Loop) firstBudget() *BudgetError {
	var be *BudgetError
	for r := range lp.budget {
		if lp.budget[r] != nil && be == nil {
			be = lp.budget[r]
		}
		lp.budget[r] = nil
	}
	return be
}

// observe reports a completed phase to the configured observer and the
// unified observability layer. Called host-side after the phase's
// barrier, so span order on shard 0 is the loop's deterministic phase
// order.
func (lp *Loop) observe(phase string, sweep int, cycles int64) {
	if o := lp.cfg.Obs; o != nil {
		o.Inc("engine.phase." + phase)
		o.Observe("engine.phase."+phase+".cycles", cycles)
		o.Span(0, "engine", phase, lp.simTS, cycles, map[string]int64{"sweep": int64(sweep)})
		lp.simTS += cycles
	}
	if lp.cfg.Observe != nil {
		lp.cfg.Observe(phase, sweep, cycles)
	}
}

// Dispatch executes instr(r) on every rank across the worker pool and
// charges the critical path with the slowest rank. Each rank only
// mutates its own simulator state; cycle deltas land in a per-rank
// slice and merge after the barrier in rank order, keeping the clocks
// bit-identical to the sequential schedule. A killed dispatch retries
// with backoff; an exhausted budget is recorded per rank and resolved
// after the barrier, so counters stay deterministic at every worker
// count.
//
// gatherPlane >= 0 names the plane whose ghost faces the following
// Exchange will swap: on the overlapped path each rank copies its
// outgoing faces into the pooled halo buffers right after its own
// sweep, still inside the dispatch barrier, so the exchange phase
// needs only a single scatter barrier. Pass -1 for dispatches with no
// exchange to feed (residual, correction, copies).
func (lp *Loop) Dispatch(sweepNo int, instr func(rank int) *microcode.Instr, gatherPlane int) (*BudgetError, error) {
	cfg := lp.cfg
	f := cfg.Fabric
	p := f.P()
	gather := gatherPlane >= 0 && lp.overlapped()
	if err := ParallelFor(cfg.Workers, p, func(r int) error {
		nd := f.Node(r)
		var extra int64 // injected stall + backoff cycles
		if cfg.Faults != nil {
			fs := &lp.deltas[r]
			for attempt := 0; ; attempt++ {
				ev := cfg.Faults.trigger(sweepNo, PhaseDispatch, r)
				if ev == nil {
					break
				}
				fs.Injected++
				if ev.Kind == FaultStall {
					fs.Stalls++
					fs.StallCycles += ev.Stall
					extra += ev.Stall
					break
				}
				if ev.Kind == FaultKillForever {
					// Permanent death: no retry can help. Mark the rank on
					// the dead slate (resolved after the barrier, so the
					// surviving ranks' execution stays deterministic) and
					// charge only the work done before the board died.
					fs.Kills++
					lp.dead[r] = true
					lp.sweep[r] = extra
					return nil
				}
				fs.Kills++
				if attempt+1 >= maxAttempts {
					fs.Exhausted++
					lp.budget[r] = &BudgetError{Sweep: sweepNo, Phase: PhaseDispatch, Rank: r, Attempts: attempt + 1}
					lp.sweep[r] = extra
					return nil
				}
				fs.Retries++
				b := backoff(attempt)
				fs.BackoffCycles += b
				extra += b
			}
		}
		before := nd.Stats.Cycles
		if err := nd.Exec(instr(r)); err != nil {
			return fmt.Errorf("engine: node %d sweep %d: %w", r, sweepNo, err)
		}
		lp.sweep[r] = nd.Stats.Cycles - before + extra
		if gather {
			return lp.gather(r, gatherPlane)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	lp.mergeDeltas()
	var maxNode int64
	for r := 0; r < p; r++ {
		if lp.sweep[r] > maxNode {
			maxNode = lp.sweep[r]
		}
	}
	// The sweep costs the machine its time even when a budget error
	// aborts the iteration: the lost work still ran.
	f.AddMachineCycles(maxNode)
	lp.observe("dispatch", sweepNo, maxNode)
	if ranks := lp.deadSet(); ranks != nil {
		if o := cfg.Obs; o != nil {
			for _, r := range ranks {
				o.Inc("engine.recovery.dead_ranks")
				o.Event(0, "engine", "dead-rank", lp.simTS, "kill-forever",
					map[string]int64{"sweep": int64(sweepNo), "rank": int64(r)})
			}
		}
		return lp.firstBudget(), &DeadRankError{Sweep: sweepNo, Ranks: ranks}
	}
	return lp.firstBudget(), nil
}

// gather copies rank r's outgoing ghost faces into the pooled halo
// buffers. Only r touches its own node and its own buffer slots, so
// the copy is safe inside the dispatch barrier.
func (lp *Loop) gather(r, plane int) error {
	pt := lp.cfg.Part
	nd := lp.cfg.Fabric.Node(r)
	nn := pt.NN()
	if r+1 < pt.P { // down face: last owned plane
		if err := nd.ReadWordsInto(plane, int64(pt.Planes[r]*nn), lp.halo[2*r]); err != nil {
			return err
		}
	}
	if r > 0 { // up face: first owned plane
		if err := nd.ReadWordsInto(plane, int64(nn), lp.halo[2*r+1]); err != nil {
			return err
		}
	}
	return nil
}

// CombineResidual reads the per-rank reduce registers, combines them
// host-side (max is associative, so the max of local maxima is the
// global max bit for bit) and charges the combine tree the fabric's
// topology prescribes: one word-sized message per round, over that
// round's critical-path hop count (single-hop recursive doubling on the
// hypercube; real lattice distances on a mesh or torus). Lost or
// corrupted combine rounds re-send with backoff; the wasted round still
// crossed the wire, so it is charged too. A non-nil BudgetError means
// the combine's retry budget exhausted and the sweep must roll back or
// surface.
func (lp *Loop) CombineResidual(sweepNo int) (float64, *BudgetError) {
	cfg := lp.cfg
	f := cfg.Fabric
	p := f.P()
	worst := 0.0
	for r := 0; r < p; r++ {
		if v := f.Node(r).RedReg[cfg.ResidualFU]; v > worst {
			worst = v
		}
	}
	if p == 1 {
		return worst, nil
	}
	steps := f.CombineHops()
	combine := int64(0)
	var mergeBE *BudgetError
	for d := 0; d < len(steps) && mergeBE == nil; d++ {
		step := f.SendCost(int64(f.WordBytes()), steps[d])
		if cfg.Faults != nil {
			for attempt := 0; ; attempt++ {
				ev := cfg.Faults.trigger(sweepNo, PhaseMerge, d)
				if ev == nil {
					break
				}
				lp.fst.Injected++
				if ev.Kind == FaultStall {
					lp.fst.Stalls++
					lp.fst.StallCycles += ev.Stall
					combine += ev.Stall
					break
				}
				if ev.Kind == FaultCorrupt {
					lp.fst.Corruptions++
				} else {
					lp.fst.Kills++
				}
				if attempt+1 >= maxAttempts {
					lp.fst.Exhausted++
					mergeBE = &BudgetError{Sweep: sweepNo, Phase: PhaseMerge, Rank: d, Attempts: attempt + 1}
					break
				}
				lp.fst.Retries++
				b := backoff(attempt)
				lp.fst.BackoffCycles += b
				combine += step + b
			}
		}
		if mergeBE == nil {
			combine += step
		}
	}
	f.AddCommCycles(combine)
	f.AddMachineCycles(combine)
	lp.observe("combine", sweepNo, combine)
	return worst, mergeBE
}

// Exchange swaps ghost faces on `plane` between all ring neighbours:
// rank r sends its last owned plane down-ring and its first owned
// plane up-ring. Each pair (r, r+1) pays two face messages over its
// real distance, Fabric.Hops(r, r+1): one hop on a pristine ring, more
// once a shrink has deleted a slot between two survivors. All pairs
// exchange concurrently, so the machine's critical path grows by one
// one-hop pair's traffic plus the worst pair's excess over it (longer
// route, injected stall, backoff, resend), while CommCycles keeps the
// aggregate router load, merged in rank order.
//
// On the overlapped fault-free path the outgoing faces were already
// gathered during Dispatch, so this is a single barrier in which each
// rank writes only its own ghost planes. Under a fault plan, pair
// (r, r+1) touches exactly two nodes, so even-r pairs are mutually
// disjoint (as are odd-r pairs) and the exchange dispatches over the
// pool in two parity phases.
func (lp *Loop) Exchange(sweepNo, plane int) (*BudgetError, error) {
	cfg := lp.cfg
	f := cfg.Fabric
	pt := cfg.Part
	p := f.P()
	if p == 1 {
		lp.observe("exchange", sweepNo, 0)
		return nil, nil
	}
	nn := pt.NN()
	face := int64(nn) * int64(f.WordBytes())
	if lp.overlapped() {
		if err := ParallelFor(cfg.Workers, p, func(r int) error {
			nd := f.Node(r)
			if r > 0 { // low ghost from the left neighbour's down face
				if err := nd.WriteWords(plane, 0, lp.halo[2*(r-1)]); err != nil {
					return err
				}
			}
			if r+1 < p { // high ghost from the right neighbour's up face
				if err := nd.WriteWords(plane, int64((pt.Planes[r]+1)*nn), lp.halo[2*(r+1)+1]); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return nil, err
		}
		for r := 0; r+1 < p; r++ {
			lp.cost[r] = 2 * f.SendCost(face, f.Hops(r, r+1))
		}
	} else {
		for parity := 0; parity < 2; parity++ {
			if err := ParallelFor(cfg.Workers, parityPairs(p, parity), func(k int) error {
				return lp.exchangePair(sweepNo, parity+2*k, plane)
			}); err != nil {
				return nil, err
			}
		}
	}
	lp.mergeDeltas()
	pairClean := 2 * f.SendCost(face, 1)
	var worstExtra int64
	for r := 0; r+1 < p; r++ {
		f.AddCommCycles(lp.cost[r])
		worstExtra = max(worstExtra, lp.cost[r]-pairClean)
	}
	f.AddMachineCycles(pairClean + worstExtra)
	lp.observe("exchange", sweepNo, pairClean+worstExtra)
	return lp.firstBudget(), nil
}

// parityPairs counts the ring pairs (r, r+1) over p ranks whose lower
// rank r has the given parity; the k-th is r = parity+2k. No two pairs
// of one parity share a rank, so a parity class exchanges
// concurrently, and the two classes together cover every ring edge
// once per sweep.
func parityPairs(p, parity int) int { return (p - parity) / 2 }

// exchangePair performs one ring pair's ghost exchange under the fault
// plan: kills drop the messages before transfer, corruptions deliver a
// bit-flipped down payload that the modeled link CRC flags for
// re-send, stalls delay the pair. All costs (wasted transfers, backoff,
// stall) accumulate into the pair's cost slot for the rank-order merge.
func (lp *Loop) exchangePair(sweepNo, r, plane int) error {
	cfg := lp.cfg
	f := cfg.Fabric
	pt := cfg.Part
	nn := pt.NN()
	fs := &lp.deltas[r]
	total := int64(0)
	for attempt := 0; ; attempt++ {
		ev := cfg.Faults.trigger(sweepNo, PhaseExchange, r)
		corrupt := false
		if ev != nil {
			fs.Injected++
			switch ev.Kind {
			case FaultStall:
				fs.Stalls++
				fs.StallCycles += ev.Stall
				total += ev.Stall
				// The stalled transfer still completes below.
			case FaultKill:
				fs.Kills++
				if attempt+1 >= maxAttempts {
					fs.Exhausted++
					lp.budget[r] = &BudgetError{Sweep: sweepNo, Phase: PhaseExchange, Rank: r, Attempts: attempt + 1}
					lp.cost[r] = total
					return nil
				}
				fs.Retries++
				b := backoff(attempt)
				fs.BackoffCycles += b
				total += b
				continue // messages lost before any words moved
			case FaultCorrupt:
				corrupt = true
			}
		}
		down, err := f.Copy(r, plane, int64(pt.Planes[r]*nn), r+1, plane, 0, nn)
		if err != nil {
			return err
		}
		up, err := f.Copy(r+1, plane, int64(nn), r, plane, int64((pt.Planes[r]+1)*nn), nn)
		if err != nil {
			return err
		}
		total += down + up
		if corrupt {
			// The down payload arrived bit-flipped; the link CRC flags
			// it and the pair re-sends. The corrupted words really land
			// in the ghost plane until the retry scrubs them — exactly
			// the state a crash would leave behind.
			fs.Corruptions++
			if err := f.Corrupt(r+1, plane, 0, nn); err != nil {
				return err
			}
			if attempt+1 >= maxAttempts {
				fs.Exhausted++
				lp.budget[r] = &BudgetError{Sweep: sweepNo, Phase: PhaseExchange, Rank: r, Attempts: attempt + 1}
				lp.cost[r] = total
				return nil
			}
			fs.Retries++
			b := backoff(attempt)
			fs.BackoffCycles += b
			total += b
			continue
		}
		lp.cost[r] = total
		return nil
	}
}

// RunResult reports a Run.
type RunResult struct {
	Sweeps    int
	Converged bool
	Residual  float64
	Series    []float64
	// Faults holds the run's live counters (a restored base, if any, is
	// the client's to add).
	Faults FaultStats
	// Recovery counts degraded-mode recoveries (permanent node loss
	// survived via spares or shrinking re-partition); all-zero unless a
	// kill-forever fault fired and Run recovered from it.
	Recovery RecoveryStats
}

// NodeTotals are the simulator counters a solve reports, summed over
// the boards that ran it on top of any base restored from a
// checkpoint.
type NodeTotals struct {
	FLOPs     int64
	PlanCache sim.PlanCacheStats
	Traps     sim.TrapStats
}

// AddNode adds one node's FLOP, plan-cache and trap counters. Callers
// add nodes in a fixed order, so totals match at every worker count.
func (t *NodeTotals) AddNode(nd *sim.Node) {
	t.FLOPs += nd.Stats.FLOPs
	st := nd.PlanCacheStats()
	t.PlanCache.Hits += st.Hits
	t.PlanCache.Misses += st.Misses
	t.PlanCache.Entries += st.Entries
	t.Traps.Add(nd.TrapCounters)
}

// Run drives the iteration loop to convergence, the one loop every
// solver runs on: cfg.Step runs each iteration's phases up to the
// residual combine, then Run combines, tests convergence and exchanges
// the plane Step named. For Jacobi (one sweep per step) this is the
// exact phase order, accounting and rollback semantics of the original
// hypercube driver; multigrid runs one V-cycle per step on the same
// loop, fault coordinates and recovery protocol included. A retry
// budget that exhausts rolls the run back through cfg.Rollback (when a
// snapshot exists and MaxRestores allows); simulated time is not
// rolled back — the lost work cost real cycles.
//
// Permanent node loss (FaultKillForever) surfaces as a DeadRankError
// unless cfg.Rebuild is set, in which case Run recovers (see
// recovery.go) and re-enters the loop on the repaired ring — same
// observability timeline, fault counters accumulated across
// generations — at the restored iteration boundary. Each recovery
// consumes at least one fired plan event, so the rounds are bounded by
// the plan length.
//
// The plan is checked once, against the starting machine: an event
// naming a rank, exchange pair or combine round the machine does not
// have fails the run with an R040 diagnostic before the first sweep.
// Later generations are not re-checked, since a shrink lowers P.
func Run(cfg *Config) (*RunResult, error) {
	if err := cfg.Faults.checkRanks(cfg.Fabric); err != nil {
		return nil, err
	}
	var acc FaultStats
	var rec RecoveryStats
	var ts int64
	var mr *mirror
	if cfg.Rebuild != nil && cfg.Faults.HasPermanent() {
		mr = &mirror{}
	}
	for {
		res, tsEnd, dre, err := runOnce(cfg, ts, acc, mr)
		if err != nil {
			return nil, err
		}
		merged := acc
		merged.Add(res.Faults)
		res.Faults = merged
		res.Recovery = rec
		if dre == nil {
			return res, nil
		}
		if mr == nil || int(rec.Recoveries) >= len(cfg.Faults.Events) {
			// Not armed, or the backstop: a step that reports deaths the
			// plan never fired cannot spin the loop past one round per
			// plan event.
			return res, dre
		}
		acc, ts = res.Faults, tsEnd
		if cfg, err = mr.recover(cfg, dre, &rec, ts); err != nil {
			return nil, fmt.Errorf("engine: recovering from %w: %w", dre, err)
		}
	}
}

// runOnce drives one loop generation: from cfg.StartSweep until
// convergence, a terminal error, or a dead rank. ts0 seeds the
// observability timeline (continuous across recovery generations);
// base is the fault-counter accumulation of prior generations, merged
// into the live counters handed to Take so persisted checkpoints carry
// full totals. A dead rank is not an error here: runOnce returns it
// with the partial result (counters and timeline so far) for Run's
// recovery protocol. mr, when non-nil, is the buddy mirror runOnce
// refreshes at every boundary. On error the result is nil.
func runOnce(cfg *Config, ts0 int64, base FaultStats, mr *mirror) (*RunResult, int64, *DeadRankError, error) {
	lp, err := NewLoop(cfg)
	if err != nil {
		return nil, ts0, nil, err
	}
	lp.simTS = ts0
	res := &RunResult{
		Sweeps: cfg.StartSweep,
		Series: append([]float64(nil), cfg.StartSeries...),
	}
	skipAt := cfg.SkipSnapshotAt
	restores := 0
	rollback := func(be *BudgetError) (int, error) {
		if cfg.Rollback == nil || restores >= maxRestores {
			return 0, be
		}
		at, series, ok, err := cfg.Rollback()
		if err != nil {
			return 0, err
		}
		if !ok {
			return 0, be
		}
		restores++
		lp.fst.Restores++
		res.Sweeps = at
		res.Series = append(res.Series[:0], series...)
		skipAt = at
		return at, nil
	}

	for it := cfg.StartSweep; it < cfg.MaxSweeps; it++ {
		// Sweep-boundary snapshot.
		if cfg.CheckpointEvery > 0 && cfg.Take != nil && it%cfg.CheckpointEvery == 0 && it != skipAt {
			lp.fst.Checkpoints++
			live := base
			live.Add(lp.fst)
			if err := cfg.Take(it, res.Series, live); err != nil {
				return nil, lp.simTS, nil, err
			}
			// Snapshots are host-side and free in simulated time; the
			// zero-cycle phase still marks the boundary on the timeline.
			lp.observe("checkpoint", it, 0)
		}
		// Buddy mirror: host-side like Take, so it is free in simulated
		// time; the zero-cycle phase marks the boundary on the timeline.
		if mr != nil {
			if err := mr.take(cfg.Fabric, cfg.Part, cfg.State, it, res.Series); err != nil {
				return nil, lp.simTS, nil, err
			}
			lp.observe("buddy", it, 0)
		}

		plane, be, err := cfg.Step(lp, it)
		if err != nil {
			var dre *DeadRankError
			if errors.As(err, &dre) {
				res.Faults = lp.fst
				return res, lp.simTS, dre, nil
			}
			return nil, lp.simTS, nil, err
		}
		if be != nil {
			at, err := rollback(be)
			if err != nil {
				return nil, lp.simTS, nil, err
			}
			it = at - 1
			continue
		}
		res.Sweeps++

		worst, mergeBE := lp.CombineResidual(it)
		if mergeBE != nil {
			at, err := rollback(mergeBE)
			if err != nil {
				return nil, lp.simTS, nil, err
			}
			it = at - 1
			continue
		}
		res.Residual = worst
		res.Series = append(res.Series, worst)
		if cfg.StopAfter > 0 {
			if res.Sweeps >= cfg.StopAfter {
				res.Converged = worst < cfg.Tol
				break
			}
		} else if worst < cfg.Tol {
			res.Converged = true
			break
		}
		if plane < 0 {
			continue
		}

		ebe, err := lp.Exchange(it, plane)
		if err != nil {
			return nil, lp.simTS, nil, err
		}
		if ebe != nil {
			at, err := rollback(ebe)
			if err != nil {
				return nil, lp.simTS, nil, err
			}
			it = at - 1
			continue
		}
	}
	res.Faults = lp.fst
	return res, lp.simTS, nil, nil
}
