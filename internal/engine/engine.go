// Package engine is the distributed solver runtime extracted from the
// hypercube Jacobi driver: the reusable parallel skeleton — slab
// partitioning and a phase-structured sweep loop (dispatch → combine →
// exchange) with fault injection, bounded retry and checkpoint hooks —
// separated from any particular numerical scheme, so that Jacobi,
// multigrid and future workloads (SOR, red-black, new stencils) are
// small clients of one substrate instead of copies of a 400-line loop.
// Clients compile their slab instructions before the loop starts; the
// engine generates no code.
//
// The engine addresses ranks on a ring; the Fabric interface maps ring
// ranks onto real machine topology (the hypercube adapter routes them
// through the Gray code so ring neighbours are one hop apart) and owns
// the cost model and the machine-wide clocks. All per-rank work runs
// through a bounded worker pool, and each rank touches only its own
// node and its own slots inside a barrier. Fault events are played
// host-side, in rank order, before a phase's barrier, and the clocks
// are charged after it, so results are bit-identical at every worker
// count.
//
// The halo exchange overlaps with interior computation: each rank
// gathers its outgoing ghost faces into pooled buffers inside the
// dispatch barrier (right after its own sweep, while other ranks are
// still computing), and the exchange phase is then a single scatter
// barrier in which every rank writes only its own ghost planes. Faults
// change what an exchange costs, never which words it moves.
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

	fst   FaultStats // live counters
	sweep []int64    // per-rank dispatch cycles
	skip  []bool     // per-rank: dead or out of budget, so not dispatched

	// halo holds each rank's outgoing faces: halo[2r] the down face
	// (last owned plane), halo[2r+1] the up face (first owned plane).
	// Allocated once per loop and reused every sweep.
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
		skip:  make([]bool, p),
	}
	if o := cfg.Obs; o != nil {
		o.Inc("engine.topology." + cfg.Fabric.Topology())
	}
	if p > 1 {
		lp.halo = make([][]float64, 2*p)
		for i := range lp.halo {
			lp.halo[i] = make([]float64, cfg.Part.NN())
		}
	}
	return lp, nil
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

// attempt is what the fault plan did to one operation: its failed
// attempts by kind, the stall and backoff cycles they added, the
// BudgetError when the attempt budget ran out, and whether the node
// died for good.
type attempt struct {
	kills, corrupts int
	delay           int64
	be              *BudgetError
	dead            bool
}

// retry plays the plan's events at one fault point, counting each into
// the live FaultStats. Each attempt draws the point's next firing: with
// none left the attempt goes through, a stall delays it and lets it
// through, a kill or a corruption fails it, and a failed attempt
// retries after backoff until the budget runs out. A kill-forever ends
// the operation at once. The loop calls this host-side, in rank order,
// before each phase's barrier, so counters and clocks never depend on
// the worker count.
func (lp *Loop) retry(sweep int, ph Phase, rank int) (a attempt) {
	fs := &lp.fst
	for {
		ev := lp.cfg.Faults.trigger(sweep, ph, rank)
		if ev == nil {
			return a
		}
		fs.Injected++
		switch ev.Kind {
		case FaultStall:
			fs.Stalls++
			fs.StallCycles += ev.Stall
			a.delay += ev.Stall
			return a
		case FaultKillForever:
			fs.Kills++
			a.dead = true
			return a
		case FaultCorrupt:
			fs.Corruptions++
			a.corrupts++
		default:
			fs.Kills++
			a.kills++
		}
		failed := a.kills + a.corrupts
		if failed >= maxAttempts {
			fs.Exhausted++
			a.be = &BudgetError{Sweep: sweep, Phase: ph, Rank: rank, Attempts: failed}
			return a
		}
		fs.Retries++
		b := backoff(failed - 1)
		fs.BackoffCycles += b
		a.delay += b
	}
}

// Dispatch executes instr(r) on every rank across the worker pool and
// charges the critical path with the slowest rank. Each rank only
// mutates its own simulator state and its own cycle slot, so the clocks
// are bit-identical to the sequential schedule. A killed dispatch
// retries with backoff, charged to the rank's sweep; a rank that died
// or ran out of budget is not dispatched. The lowest such rank's
// BudgetError is returned, and dead ranks come back as a
// DeadRankError.
//
// gatherPlane >= 0 names the plane whose ghost faces the following
// Exchange will swap: each rank copies its outgoing faces into the
// pooled halo buffers right after its own sweep, still inside the
// dispatch barrier, so the exchange phase needs only a single scatter
// barrier. Pass -1 for dispatches with no exchange to feed (residual,
// correction, copies).
func (lp *Loop) Dispatch(sweepNo int, instr func(rank int) *microcode.Instr, gatherPlane int) (*BudgetError, error) {
	cfg := lp.cfg
	f := cfg.Fabric
	p := f.P()
	var be *BudgetError
	var dead []int
	for r := 0; r < p; r++ {
		a := lp.retry(sweepNo, PhaseDispatch, r)
		lp.sweep[r] = a.delay
		lp.skip[r] = a.dead || a.be != nil
		if a.dead {
			dead = append(dead, r)
		}
		if be == nil {
			be = a.be
		}
	}
	if err := ParallelFor(cfg.Workers, p, func(r int) error {
		if lp.skip[r] {
			return nil
		}
		nd := f.Node(r)
		before := nd.Stats.Cycles
		if err := nd.Exec(instr(r)); err != nil {
			return fmt.Errorf("engine: node %d sweep %d: %w", r, sweepNo, err)
		}
		lp.sweep[r] += nd.Stats.Cycles - before
		if gatherPlane >= 0 {
			return lp.gather(r, gatherPlane)
		}
		return nil
	}); err != nil {
		return nil, err
	}
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
	if dead == nil {
		return be, nil
	}
	if o := cfg.Obs; o != nil {
		for _, r := range dead {
			o.Inc("engine.recovery.dead_ranks")
			o.Event(0, "engine", "dead-rank", lp.simTS, "kill-forever",
				map[string]int64{"sweep": int64(sweepNo), "rank": int64(r)})
		}
	}
	return be, &DeadRankError{Sweep: sweepNo, Ranks: dead}
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
// crossed the wire, so it is charged too, except the one that exhausts
// the budget. A non-nil BudgetError means the combine's retry budget
// exhausted and the sweep must roll back or surface.
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
	var combine int64
	var be *BudgetError
	for d := 0; d < len(steps) && be == nil; d++ {
		a := lp.retry(sweepNo, PhaseMerge, d)
		// Every retried round and the round that got through are charged;
		// the round that exhausted the budget is not.
		sent := int64(a.kills + a.corrupts + 1)
		if a.be != nil {
			sent -= 2
		}
		be = a.be
		combine += a.delay + sent*f.SendCost(int64(f.WordBytes()), steps[d])
	}
	f.AddCommCycles(combine)
	f.AddMachineCycles(combine)
	lp.observe("combine", sweepNo, combine)
	return worst, be
}

// Exchange swaps ghost faces on `plane` between all ring neighbours:
// rank r sends its last owned plane down-ring and its first owned
// plane up-ring. The outgoing faces were gathered during Dispatch, so
// this is a single barrier in which each rank writes only its own
// ghost planes. Each pair (r, r+1) pays two face messages over its
// real distance, Fabric.Hops(r, r+1): one hop on a pristine ring, more
// once a shrink has deleted a slot between two survivors. A killed
// attempt sends nothing, a corrupted one pays its sends and re-sends,
// and a stall delays the pair; an exhausted pair is charged for the
// sends it made. All pairs exchange concurrently, so the machine's
// critical path grows by one one-hop pair's traffic plus the worst
// pair's excess over it, while CommCycles keeps the aggregate router
// load.
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
	pairClean := 2 * f.SendCost(face, 1)
	var comm, worstExtra int64
	var be *BudgetError
	for r := 0; r+1 < p; r++ {
		a := lp.retry(sweepNo, PhaseExchange, r)
		// Every corrupted attempt and the one that got through paid the
		// pair's two sends; a killed attempt sent nothing.
		sent := int64(a.corrupts + 1)
		if a.be != nil {
			sent--
		}
		cost := a.delay + sent*2*f.SendCost(face, f.Hops(r, r+1))
		comm += cost
		worstExtra = max(worstExtra, cost-pairClean)
		if be == nil {
			be = a.be
		}
	}
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
	f.AddCommCycles(comm)
	f.AddMachineCycles(pairClean + worstExtra)
	lp.observe("exchange", sweepNo, pairClean+worstExtra)
	return be, nil
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
