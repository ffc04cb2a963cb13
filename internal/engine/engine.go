// Package engine is the distributed solver runtime extracted from the
// hypercube Jacobi driver: the reusable parallel skeleton — slab
// partitioning and a phase-structured sweep loop (dispatch → combine →
// exchange) with fault injection, bounded retry, checkpoints and
// recovery — separated from any particular numerical scheme, so that
// Jacobi, multigrid and future workloads (SOR, red-black, new
// stencils) are small clients of one substrate instead of copies of a
// 400-line loop.
// Clients compile their slab instructions before the loop starts; the
// engine generates no code.
//
// The engine addresses ranks on a ring; the Fabric interface maps ring
// ranks onto real machine topology (the hypercube adapter routes them
// through the Gray code so ring neighbours are one hop apart) and owns
// the cost model and the machine-wide clocks. All per-rank work runs
// on a bounded worker pool that lives as long as the loop: the calling
// goroutine takes a share of every barrier, and its helpers spin
// between barriers instead of parking. Each rank touches only its own
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
	Fabric Fabric
	Part   *Partition
	// Workers bounds the goroutines that run a barrier's per-rank
	// work, the calling goroutine included: 0 or 1 runs every rank on
	// the caller and -1 means GOMAXPROCS. Helpers beyond GOMAXPROCS or
	// the rank count are not started. Results are bit-identical at
	// every setting.
	Workers int

	// Faults, when non-nil, arms deterministic fault injection. Faulted
	// operations retry within a fixed budget: three attempts each, and
	// four checkpoint restores per loop generation.
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

	// State lists the planes that carry the iterate from one iteration
	// to the next. Every restore point — a checkpoint, the buddy
	// mirror, Resume — is a Snapshot of them.
	State []int

	// CheckpointEvery, when positive, makes Run snapshot State at every
	// sweep boundary divisible by it and keep the latest: a retry
	// budget that runs out rolls the run back to it, and so does a
	// death the buddy mirror cannot cover. Take, when set, persists
	// each checkpoint as it is taken; live is the run's fault counters
	// so far (the client adds its own base). Take must not modify snap.
	CheckpointEvery int
	Take            func(snap *Snapshot, live FaultStats) error

	// Resume, when non-nil, is the boundary the run starts from: Run
	// writes it onto the ring, resumes at its sweep and series, and
	// keeps it as the checkpoint until it takes a newer one.
	Resume *Snapshot

	// Rebuild recompiles and reloads every rank's slab over part, a
	// repaired ring. When the plan holds a permanent kill and Rebuild
	// is set, Run mirrors State at every boundary and recovers dead
	// ranks (see recovery.go); otherwise a dead rank surfaces as an
	// error.
	Rebuild func(part *Partition) error
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

	// pool runs every barrier's per-rank work for the loop's whole
	// life. The barrier in flight is in cur, which the rank functions
	// bound once in NewLoop read, so a barrier allocates nothing.
	pool                      *pool
	cur                       barrier
	dispatchRank, scatterRank func(r int) error
}

// barrier is the phase a Loop's pool is running: its sweep, the
// dispatched instruction per rank, and the plane whose faces it
// gathers or scatters (-1 for none).
type barrier struct {
	sweep, plane int
	instr        func(rank int) *microcode.Instr
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
		pool:  newPool(cfg.Workers, p),
	}
	lp.dispatchRank, lp.scatterRank = lp.dispatch, lp.scatter
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
		b := arch.Backoff(failed - 1)
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
	lp.cur = barrier{sweep: sweepNo, plane: gatherPlane, instr: instr}
	if err := lp.pool.run(p, lp.dispatchRank); err != nil {
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

// dispatch runs rank r's share of the Dispatch barrier in lp.cur: its
// instruction, then the gather of its outgoing faces.
func (lp *Loop) dispatch(r int) error {
	if lp.skip[r] {
		return nil
	}
	b := &lp.cur
	nd := lp.cfg.Fabric.Node(r)
	before := nd.Stats.Cycles
	if err := nd.Exec(b.instr(r)); err != nil {
		return fmt.Errorf("engine: node %d sweep %d: %w", r, b.sweep, err)
	}
	lp.sweep[r] += nd.Stats.Cycles - before
	if b.plane >= 0 {
		return lp.gather(r, b.plane)
	}
	return nil
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
	lp.cur = barrier{sweep: sweepNo, plane: plane}
	if err := lp.pool.run(p, lp.scatterRank); err != nil {
		return nil, err
	}
	f.AddCommCycles(comm)
	f.AddMachineCycles(pairClean + worstExtra)
	lp.observe("exchange", sweepNo, pairClean+worstExtra)
	return be, nil
}

// scatter writes rank r's ghost planes of the Exchange barrier in
// lp.cur from its neighbours' gathered faces.
func (lp *Loop) scatter(r int) error {
	pt := lp.cfg.Part
	nd := lp.cfg.Fabric.Node(r)
	plane, nn := lp.cur.plane, pt.NN()
	if r > 0 { // low ghost from the left neighbour's down face
		if err := nd.WriteWords(plane, 0, lp.halo[2*(r-1)]); err != nil {
			return err
		}
	}
	if r+1 < pt.P { // high ghost from the right neighbour's up face
		if err := nd.WriteWords(plane, int64((pt.Planes[r]+1)*nn), lp.halo[2*(r+1)+1]); err != nil {
			return err
		}
	}
	return nil
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
// budget that exhausts rolls the run back to the kept checkpoint (when
// one exists and maxRestores allows); simulated time is not rolled
// back — the lost work cost real cycles.
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
	rn := &run{cfg: cfg, ck: cfg.Resume}
	if cfg.Rebuild != nil && cfg.Faults.HasPermanent() {
		rn.mr = &Snapshot{}
	}
	from := cfg.Resume
	for {
		res, dre, err := rn.once(from)
		if err != nil {
			return nil, err
		}
		if dre == nil {
			return res, nil
		}
		if rn.mr == nil || int(rn.rec.Recoveries) >= len(cfg.Faults.Events) {
			// Not armed, or the backstop: a step that reports deaths the
			// plan never fired cannot spin the loop past one round per
			// plan event.
			return res, dre
		}
		if from, err = rn.recover(dre); err != nil {
			return nil, fmt.Errorf("engine: recovering from %w: %w", dre, err)
		}
	}
}

// run is one Run across its loop generations: the configuration in
// force, the restore points, and what the generations so far
// accumulated — fault counters, recoveries and the observability
// timeline.
type run struct {
	cfg *Config
	// ck is the kept checkpoint (the latest taken, or Resume) and mr
	// the buddy mirror, nil unless recovery is armed.
	ck, mr *Snapshot
	acc    FaultStats
	rec    RecoveryStats
	ts     int64
}

// once drives one loop generation: from the boundary `from` holds (or
// sweep 0 when it is nil) until convergence, a terminal error, or a
// dead rank. A dead rank is not an error here: once returns it with
// the partial result for Run's recovery protocol. The result, like the
// live counters handed to Take, carries every generation's fault
// counters so far, so persisted checkpoints carry full totals. On
// error the result is nil.
func (rn *run) once(from *Snapshot) (*RunResult, *DeadRankError, error) {
	cfg := rn.cfg
	lp, err := NewLoop(cfg)
	if err != nil {
		return nil, nil, err
	}
	// The generation's last phase has run when once returns: its
	// helpers exit now, not at the end of their spin window.
	defer lp.pool.close()
	lp.simTS = rn.ts
	res := &RunResult{}
	// restore writes a snapshot onto the ring, free in simulated time,
	// and resumes at its boundary. That boundary holds no new progress,
	// so no checkpoint is taken there.
	skipAt := -1
	restore := func(s *Snapshot) error {
		if err := s.restore(cfg.Fabric, cfg.Part, cfg.State); err != nil {
			return err
		}
		res.Sweeps, skipAt = s.Sweep, s.Sweep
		res.Series = append(res.Series[:0], s.Series...)
		return nil
	}
	if from != nil {
		if err := restore(from); err != nil {
			return nil, nil, err
		}
	}
	restores := 0
	rollback := func(be *BudgetError) (int, error) {
		if rn.ck == nil || restores >= maxRestores {
			return 0, be
		}
		if err := restore(rn.ck); err != nil {
			return 0, err
		}
		restores++
		lp.fst.Restores++
		return rn.ck.Sweep, nil
	}

	for it := res.Sweeps; it < cfg.MaxSweeps; it++ {
		// Sweep-boundary checkpoint and buddy mirror: host-side, so free
		// in simulated time; the zero-cycle phases still mark the
		// boundary on the timeline.
		if cfg.CheckpointEvery > 0 && it%cfg.CheckpointEvery == 0 && it != skipAt {
			lp.fst.Checkpoints++
			ck := &Snapshot{}
			if err := lp.take(ck, it, res.Series); err != nil {
				return nil, nil, err
			}
			rn.ck = ck
			if cfg.Take != nil {
				live := rn.acc
				live.Add(lp.fst)
				if err := cfg.Take(ck, live); err != nil {
					return nil, nil, err
				}
			}
			lp.observe("checkpoint", it, 0)
		}
		if rn.mr != nil {
			if err := lp.take(rn.mr, it, res.Series); err != nil {
				return nil, nil, err
			}
			lp.observe("buddy", it, 0)
		}

		plane, be, err := cfg.Step(lp, it)
		if err != nil {
			var dre *DeadRankError
			if errors.As(err, &dre) {
				return rn.end(res, lp), dre, nil
			}
			return nil, nil, err
		}
		if be != nil {
			at, err := rollback(be)
			if err != nil {
				return nil, nil, err
			}
			it = at - 1
			continue
		}
		res.Sweeps++

		worst, mergeBE := lp.CombineResidual(it)
		if mergeBE != nil {
			at, err := rollback(mergeBE)
			if err != nil {
				return nil, nil, err
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
			return nil, nil, err
		}
		if ebe != nil {
			at, err := rollback(ebe)
			if err != nil {
				return nil, nil, err
			}
			it = at - 1
			continue
		}
	}
	return rn.end(res, lp), nil, nil
}

// end closes a generation: its counters and timeline join the run's,
// and res reports the run so far.
func (rn *run) end(res *RunResult, lp *Loop) *RunResult {
	rn.acc.Add(lp.fst)
	rn.ts = lp.simTS
	res.Faults, res.Recovery = rn.acc, rn.rec
	return res
}
