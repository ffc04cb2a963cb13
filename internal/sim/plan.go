package sim

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/arch"
	"repro/internal/microcode"
)

// This file is the decode layer of the simulator's decode-once /
// execute-many split. One microcode instruction completely specifies
// the node's pipeline configuration (§3: "one instruction = one
// complete pipeline configuration"), so everything the executor needs
// — live sources, switch routes, structural depths, producer graph,
// FU latencies, stream length — is a pure function of the instruction
// bits and the machine configuration. compilePlan derives it all once
// into an immutable ExecPlan, kept in a table the boards of a machine
// share (planTable), so a machine decodes each distinct instruction
// once; the run layer (exec.go) then replays the plan against mutable
// node state as many times as the sequencer dispatches it.

// planSourceKind distinguishes the two DMA read-channel classes.
type planSourceKind uint8

const (
	srcMem planSourceKind = iota
	srcCache
)

// planSource is one DMA read channel: at cycle c it emits element
// c-Skip of the programmed address walk (zero/valid during the
// suppressed lead-in, invalid after Count elements).
type planSource struct {
	slot  int
	kind  planSourceKind
	plane int // memory plane or cache plane index
	buf   int // cache plane only: double-buffer half
	addr  int64
	strd  int64
	skip  int64
	count int64
}

// planTap is one SDU tap: a pure shift of its input producer.
type planTap struct {
	in    int // input producer slot
	out   int // output producer slot
	shift int // 1 + programmed tap delay, cycles
}

// planFU is one active functional unit with both operand bindings
// resolved to producer slots or constants.
type planFU struct {
	fu     arch.FUID
	op     arch.Op
	lat    int
	arity  int
	aKind  microcode.InKind
	aSlot  int
	aDelay int
	aConst float64
	bKind  microcode.InKind
	bSlot  int
	bDelay int
	bConst float64
	reduce bool
	init   float64
	out    int // output producer slot
}

// planSink is one DMA write channel with its switch route resolved.
type planSink struct {
	kind  planSourceKind
	plane int
	buf   int
	addr  int64
	strd  int64
	start int
	skip  int64
	count int64
	from  int // producer slot feeding the sink
}

// planReduce records a reduction register commit: after the streams
// drain, RedReg[fu] takes the final value of producer slot `from`.
type planReduce struct {
	fu   int
	from int
}

// ExecPlan is the compiled, immutable form of one instruction. Plans
// carry no node state and may be shared between executions (and, since
// they are never mutated, between goroutines).
type ExecPlan struct {
	// control marks a pure control instruction (no vector streams):
	// execution is just issue overhead plus the sequencer epilogue.
	control bool

	vecLen int64
	T      int // drain point: cycles until the deepest producer finishes
	slots  int // number of live producers

	// srcID maps producer slot → switch-network source, for the tracer.
	srcID []arch.SourceID

	sources []planSource
	taps    []planTap
	fus     []planFU
	sinks   []planSink
	reduces []planReduce
	swaps   []int // cache planes swapped at completion

	// flopsPerElem is the summed per-element FLOP cost of the units in
	// fus, each of which is charged vecLen busy elements.
	flopsPerElem int64
	// elements is the per-dispatch source-element count added to
	// Stats.Elements.
	elements int64

	seq microcode.Seq
	// cmpTh is the comparison threshold, resolved from the constant
	// pool at decode time.
	cmpTh     float64
	trapArmed bool

	// nReds counts reduction units, sizing the interpreter's pooled
	// accumulator state in runScratch.
	nReds int

	// kern is the specialized branch-free kernel lowered from this
	// plan, or nil when lowering declined (see lowerKernel). The run
	// layer dispatches through it only when per-cycle detection
	// (traps, ECC, tracer) is provably unnecessary.
	kern *execKernel

	// key is the cache key the plan was compiled under (see below);
	// plans from ExecUncached have none.
	key string
}

// The plan-cache key is the instruction's exact bit pattern,
// serialized little-endian (see Node.plan). Content addressing makes
// the cache self-invalidating — any field mutation produces a
// different key and therefore a fresh decode — and lets nodes that
// share a table share the plans of equal instructions, whichever
// Instr values carry them.

// PlanCacheStats reports a node's compiled-plan cache behaviour.
type PlanCacheStats struct {
	Hits    int64
	Misses  int64
	Entries int
}

// compilePlan decodes one instruction into an ExecPlan. It performs
// every static check the hardware would trap on — undefined opcodes,
// capability violations, dangling switch routes, DMA ranges outside
// the plane, routing cycles, out-of-range loop-counter indices — so
// the run layer can execute without re-validating. It counts the
// active units and channels before it fills the plan, so each of the
// plan's slices is allocated once at its final size, and it keeps
// per-port state in slices indexed by arch.SourceID.
func compilePlan(cfg arch.Config, inv *arch.Inventory, in *microcode.Instr) (*ExecPlan, error) {
	pl := &ExecPlan{seq: in.SeqOf()}
	pl.trapArmed = pl.seq.Trap
	pl.cmpTh = in.Const(pl.seq.CmpConst)
	if (pl.seq.CtrLoad || pl.seq.Cond == microcode.CondLoop) &&
		(pl.seq.Ctr < 0 || pl.seq.Ctr >= microcode.NumCounters) {
		return nil, fmt.Errorf("sim: seq.ctr %d out of range [0,%d)", pl.seq.Ctr, microcode.NumCounters)
	}

	// --- Functional-unit decode: opcode validity and capabilities.
	// fuLat[i] is unit i's latency, or -1 while it idles. ---
	fuLat := make([]int, cfg.TotalFUs)
	nFU := 0
	for i := range fuLat {
		fuLat[i] = -1
		op := in.FUOp(arch.FUID(i))
		if !op.Valid() {
			return nil, fmt.Errorf("sim: fu%d has undefined opcode %d", i, op)
		}
		if op == arch.OpNop {
			continue
		}
		if !inv.FUs[i].Cap.Has(op.Info().Needs) {
			return nil, fmt.Errorf("sim: fu%d (%s) cannot perform %s: hardware fault trap",
				i, inv.FUs[i].Cap, op)
		}
		fuLat[i] = op.Info().Latency
		nFU++
		if red, _ := in.FUReduce(arch.FUID(i)); red {
			pl.nReds++
		}
	}

	// --- Channel counts. ---
	reads, writes := 0, 0
	tally := func(enable, write bool) {
		switch {
		case enable && write:
			writes++
		case enable:
			reads++
		}
	}
	for p := 0; p < cfg.MemPlanes; p++ {
		d := in.MemDMAOf(p)
		tally(d.Enable, d.Write)
	}
	for p := 0; p < cfg.CachePlanes; p++ {
		d := in.CacheDMAOf(p)
		tally(d.Enable, d.Write)
	}

	// slot[s] and depth[s] are producer port s's slot and structural
	// depth, -1 while it has none.
	ports := make([]int, 2*cfg.NumSources())
	for i := range ports {
		ports[i] = -1
	}
	slot, depth := ports[:len(ports)/2], ports[len(ports)/2:]
	addSlot := func(src arch.SourceID) int {
		slot[src] = pl.slots
		pl.slots++
		return pl.slots - 1
	}

	// --- DMA decode: sources, sinks, vector length. ---
	pl.sources = make([]planSource, 0, reads)
	pl.sinks = make([]planSink, 0, writes)
	for p := 0; p < cfg.MemPlanes; p++ {
		d := in.MemDMAOf(p)
		if !d.Enable {
			continue
		}
		if d.Write {
			pl.sinks = append(pl.sinks, planSink{
				kind: srcMem, plane: p, addr: d.Addr, strd: d.Stride,
				start: d.Start, skip: d.Skip, count: d.Count,
			})
			continue
		}
		last := d.Addr + (d.Count-1)*d.Stride
		lo, hi := d.Addr, last
		if hi < lo {
			lo, hi = hi, lo
		}
		if lo < 0 || hi >= cfg.PlaneWords() {
			return nil, fmt.Errorf("sim: mem%d DMA range [%d,%d] out of plane", p, lo, hi)
		}
		pl.sources = append(pl.sources, planSource{
			slot: addSlot(cfg.SrcMemRead(p)), kind: srcMem, plane: p,
			addr: d.Addr, strd: d.Stride, skip: d.Skip, count: d.Count,
		})
		pl.elements += d.Count
		if v := d.Skip + d.Count; v > pl.vecLen {
			pl.vecLen = v
		}
	}
	for p := 0; p < cfg.CachePlanes; p++ {
		d := in.CacheDMAOf(p)
		if !d.Enable {
			continue
		}
		if d.Swap {
			pl.swaps = append(pl.swaps, p)
		}
		if d.Write {
			pl.sinks = append(pl.sinks, planSink{
				kind: srcCache, plane: p, buf: d.Buf, addr: d.Addr, strd: d.Stride,
				start: d.Start, skip: d.Skip, count: d.Count,
			})
			continue
		}
		if d.Addr < 0 || d.Addr+(d.Count-1)*d.Stride >= cfg.CacheWords() || d.Addr+(d.Count-1)*d.Stride < 0 {
			return nil, fmt.Errorf("sim: cache%d DMA out of buffer", p)
		}
		pl.sources = append(pl.sources, planSource{
			slot: addSlot(cfg.SrcCacheRead(p)), kind: srcCache, plane: p, buf: d.Buf,
			addr: d.Addr, strd: d.Stride, skip: d.Skip, count: d.Count,
		})
		pl.elements += d.Count
		if v := d.Skip + d.Count; v > pl.vecLen {
			pl.vecLen = v
		}
	}
	for _, s := range pl.sinks {
		if v := s.skip + s.count; v > pl.vecLen {
			pl.vecLen = v
		}
	}
	if pl.vecLen == 0 {
		pl.control = true
		return pl, nil
	}

	// --- Structural depth: cycle offset at which each producer's
	// element stream begins (source = 0; SDU tap = in+1+tap;
	// FU = max(input depth + register delay) + latency). ---
	for s, sl := range slot { // the sources, so far
		if sl >= 0 {
			depth[s] = 0
		}
	}
	// Iterate to fixpoint: a unit's depth resolves once every producer
	// it consumes has resolved. The graph is finite, so at least one
	// new resolution happens per pass until done; anything left
	// unresolved afterwards is routed from an inactive source or sits
	// on a routing cycle.
	for {
		changed := false
		for u := 0; u < cfg.ShiftDelayUnits; u++ {
			if !in.SDUEnabled(u) || depth[cfg.SrcSDUTap(u, 0)] >= 0 {
				continue
			}
			src := in.SinkSource(cfg.SnkSDUIn(u))
			if src == arch.InvalidSource {
				return nil, fmt.Errorf("sim: SDU%d enabled without an input route", u)
			}
			base := portAt(depth, src)
			if base < 0 {
				continue // producer not resolved yet
			}
			for t := 0; t < cfg.SDUTaps; t++ {
				depth[cfg.SrcSDUTap(u, t)] = base + 1 + in.SDUTap(u, t)
			}
			changed = true
		}
		for i, lat := range fuLat {
			fu := arch.FUID(i)
			if lat < 0 || depth[cfg.SrcFUOut(fu)] >= 0 {
				continue
			}
			need, ready := 0, true
			for side := 0; side < 2; side++ {
				kind, _, hw := in.FUInput(fu, side)
				if kind != microcode.InSwitch {
					continue
				}
				src := in.SinkSource(cfg.SnkFUIn(fu, side))
				if src == arch.InvalidSource {
					return nil, fmt.Errorf("sim: fu%d side %d expects a switch operand but none routed", i, side)
				}
				d := portAt(depth, src)
				if d < 0 {
					ready = false
					break
				}
				need = max(need, d+hw)
			}
			if !ready {
				continue
			}
			depth[cfg.SrcFUOut(fu)] = need + lat
			changed = true
		}
		if !changed {
			break
		}
	}
	maxDepth := 0
	for _, d := range depth {
		maxDepth = max(maxDepth, d)
	}
	for u := 0; u < cfg.ShiftDelayUnits; u++ {
		if in.SDUEnabled(u) && depth[cfg.SrcSDUTap(u, 0)] < 0 {
			src := in.SinkSource(cfg.SnkSDUIn(u))
			return nil, fmt.Errorf("sim: SDU%d input routed from inactive source %s", u, cfg.SourceName(src))
		}
	}
	for i, lat := range fuLat {
		if lat >= 0 && depth[cfg.SrcFUOut(arch.FUID(i))] < 0 {
			return nil, fmt.Errorf("sim: fu%d depends on an inactive source or a routing cycle", i)
		}
	}

	// --- Drain point. ---
	for _, s := range pl.sinks {
		if need := s.start + int(s.skip+s.count); need > pl.T {
			pl.T = need
		}
	}
	if t := int(pl.vecLen) + maxDepth; t > pl.T {
		pl.T = t
	}

	// --- Producer slots for SDU taps and FU outputs. ---
	for u := 0; u < cfg.ShiftDelayUnits; u++ {
		if in.SDUEnabled(u) {
			for t := 0; t < cfg.SDUTaps; t++ {
				addSlot(cfg.SrcSDUTap(u, t))
			}
		}
	}
	for i, lat := range fuLat {
		if lat >= 0 {
			addSlot(cfg.SrcFUOut(arch.FUID(i)))
		}
	}
	pl.srcID = make([]arch.SourceID, pl.slots)
	for s, sl := range slot {
		if sl >= 0 {
			pl.srcID[sl] = arch.SourceID(s)
		}
	}

	// --- SDU tap micro-ops. Every producer with a depth has a slot. ---
	pl.taps = make([]planTap, 0, pl.slots-len(pl.sources)-nFU)
	for u := 0; u < cfg.ShiftDelayUnits; u++ {
		if !in.SDUEnabled(u) {
			continue
		}
		inSlot := slot[in.SinkSource(cfg.SnkSDUIn(u))]
		for t := 0; t < cfg.SDUTaps; t++ {
			pl.taps = append(pl.taps, planTap{
				in: inSlot, out: slot[cfg.SrcSDUTap(u, t)], shift: 1 + in.SDUTap(u, t),
			})
		}
	}

	// --- FU micro-ops with resolved operand bindings. ---
	pl.fus = make([]planFU, 0, nFU)
	pl.reduces = make([]planReduce, 0, pl.nReds)
	for i, lat := range fuLat {
		if lat < 0 {
			continue
		}
		fu := arch.FUID(i)
		p := planFU{
			fu: fu, op: in.FUOp(fu), lat: lat, arity: in.FUOp(fu).Info().Arity,
			aSlot: -1, bSlot: -1, out: slot[cfg.SrcFUOut(fu)],
		}
		ak, ac, ad := in.FUInput(fu, 0)
		p.aKind, p.aDelay = ak, ad
		switch ak {
		case microcode.InSwitch:
			p.aSlot = slot[in.SinkSource(cfg.SnkFUIn(fu, 0))]
		case microcode.InConst:
			p.aConst = in.Const(ac)
		}
		bk, bc, bd := in.FUInput(fu, 1)
		p.bKind, p.bDelay = bk, bd
		switch bk {
		case microcode.InSwitch:
			p.bSlot = slot[in.SinkSource(cfg.SnkFUIn(fu, 1))]
		case microcode.InConst:
			p.bConst = in.Const(bc)
		}
		if red, init := in.FUReduce(fu); red {
			p.reduce = true
			p.init = in.Const(init)
			pl.reduces = append(pl.reduces, planReduce{fu: i, from: p.out})
		}
		if p.arity >= 1 && p.aKind == microcode.InNone {
			return nil, fmt.Errorf("sim: fu%d (%s) operand A unconnected", i, p.op)
		}
		if p.arity >= 2 && !p.reduce && p.bKind == microcode.InNone {
			return nil, fmt.Errorf("sim: fu%d (%s) operand B unconnected", i, p.op)
		}
		pl.fus = append(pl.fus, p)
		pl.flopsPerElem += int64(p.op.Info().FLOPs)
	}

	// --- Sink routes. ---
	for k := range pl.sinks {
		s := &pl.sinks[k]
		var snk arch.SinkID
		if s.kind == srcMem {
			snk = cfg.SnkMemWrite(s.plane)
		} else {
			snk = cfg.SnkCacheWrite(s.plane)
		}
		src := in.SinkSource(snk)
		if src == arch.InvalidSource {
			return nil, fmt.Errorf("sim: write DMA on %s has no switch route", cfg.SinkName(snk))
		}
		from := portAt(slot, src)
		if from < 0 {
			return nil, fmt.Errorf("sim: sink %s routed from inactive source %s",
				cfg.SinkName(snk), cfg.SourceName(src))
		}
		s.from = from
	}
	pl.kern = lowerKernel(cfg, pl)
	return pl, nil
}

// portAt reads per-port state v at src, or -1 for a port the
// configuration lacks: a switch field can encode more sources than
// exist.
func portAt(v []int, src arch.SourceID) int {
	if src < 0 || int(src) >= len(v) {
		return -1
	}
	return v[src]
}

// planTable is the content-addressed store of compiled plans behind
// the node caches. The boards of one machine share a table (see
// NewPeer), so the machine decodes each distinct instruction once; a
// node built alone by NewNode holds a private one. A plan is
// immutable, so peers run one plan at once. The mutex is held across
// a compile, so peers whose first dispatches of one instruction meet
// compile it once and share the plan.
type planTable struct {
	mu    sync.Mutex
	plans map[string]*ExecPlan
	// compiles counts the decodes the table has run.
	compiles int
}

// plan returns the table's plan for in, whose cache key is key,
// compiling it on the table's first request. A failed compile is not
// kept.
func (t *planTable) plan(cfg arch.Config, inv *arch.Inventory, in *microcode.Instr, key []byte) (*ExecPlan, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if pl, ok := t.plans[string(key)]; ok {
		return pl, nil
	}
	t.compiles++
	pl, err := compilePlan(cfg, inv, in)
	if err != nil {
		return nil, err
	}
	pl.key = string(key)
	if t.plans == nil {
		t.plans = make(map[string]*ExecPlan)
	}
	t.plans[pl.key] = pl
	return pl, nil
}

// plan returns the compiled plan for in. The node's own map answers
// every dispatch after the node's first of an instruction without a
// lock and counts it a hit. A first dispatch counts a miss and takes
// the plan from the node's table, which decodes each distinct
// instruction content once for all the peers that share it. The
// lookup key is serialized into a pooled buffer and probed with an
// in-place string conversion, so the hit path — every dispatch of an
// iterative solver after the first — performs no allocation; a miss
// indexes the node's map by the table's copy of the key.
func (n *Node) plan(in *microcode.Instr) (*ExecPlan, error) {
	if need := 8 * len(in.W); cap(n.keyBuf) < need {
		n.keyBuf = make([]byte, need)
	}
	key := n.keyBuf[:8*len(in.W)]
	for i, lane := range in.W {
		binary.LittleEndian.PutUint64(key[8*i:], lane)
	}
	if pl, ok := n.plans[string(key)]; ok {
		n.planHits++
		return pl, nil
	}
	n.planMisses++
	pl, err := n.table.plan(n.Cfg, n.Inv, in, key)
	if err != nil {
		return nil, err
	}
	if n.plans == nil {
		n.plans = make(map[string]*ExecPlan)
	}
	n.plans[pl.key] = pl
	return pl, nil
}

// PlanCacheStats reports the node's plan-cache hit/miss counters and
// the entry count of its own map: the distinct instructions it has
// dispatched since its last reset.
func (n *Node) PlanCacheStats() PlanCacheStats {
	return PlanCacheStats{Hits: n.planHits, Misses: n.planMisses, Entries: len(n.plans)}
}

// ResetPlanCache empties the node's map of plans, drops its working
// set and zeroes its counters, including the kernel path counters, so
// its next dispatch of each instruction counts a miss again. The plans
// stay in the node's table, which its peers may share; they are pure
// functions of the instruction and the configuration, so a later
// dispatch reuses them.
func (n *Node) ResetPlanCache() {
	n.plans = nil
	n.scratch = runScratch{}
	n.planHits, n.planMisses = 0, 0
	n.kernelFast, n.kernelSlow = 0, 0
}

// KernelStats reports how many vector dispatches ran through the
// specialized kernel (fast) versus the reference interpreter (slow).
// Control instructions take neither path and are not counted.
type KernelStats struct {
	Fast int64
	Slow int64
}

// KernelStatsOf returns the node's kernel path counters.
func (n *Node) KernelStatsOf() KernelStats {
	return KernelStats{Fast: n.kernelFast, Slow: n.kernelSlow}
}

// redState is one interpreter reduction accumulator. The accumulators
// are per-execution state, not plan state; they live in runScratch so
// the run layer never allocates them per dispatch.
type redState struct {
	acc   float64
	accOK bool
}

// runScratch is the node's reusable working set. It belongs to the run
// layer's mutable state (it lives on the node, never on the plan), so
// two nodes executing the same plan concurrently never share it. The
// interpreter stores one value lane and one validity lane per producer
// slot, lane-major (slot s occupies val[s*T : (s+1)*T]). The kernel
// keeps its windows and reduction accumulators in val, and reads its
// stride-1 sources in place, so its share does not grow with the
// stream.
type runScratch struct {
	val []float64
	ok  []bool // interpreter only: ok[slot*T+c]

	// reds holds the interpreter's pooled reduction accumulators, reset
	// at the top of every execution.
	reds []redState
}

// result returns the interpreter's lane of producer slot s.
func (sc *runScratch) result(T, s int) []float64 { return sc.val[s*T : (s+1)*T] }

// sample reads producer slot `slot` at cycle c; cycles outside [0,T)
// (pipeline lead-in seen through a delay, or an unconnected operand)
// read as zero/invalid.
func (sc *runScratch) sample(T, slot, c int) (float64, bool) {
	if slot < 0 || c < 0 || c >= T {
		return 0, false
	}
	return sc.val[slot*T+c], sc.ok[slot*T+c]
}

// scratchFor returns the node's working set, grown to fit pl on the
// chosen path: the kernel's windows and accumulators, or the
// interpreter's value and validity lane per producer slot — validity
// lanes are allocated only once the interpreter runs. Every plan the
// node runs shares the set, so the node holds one working set the size
// of its largest plan. Reuse is safe without zeroing: every lane is
// written at every cycle a reader reads, before that read. The
// interpreter writes every cycle; a kernel op writes its need, which
// holds every cycle its readers read, and its window keeps each such
// cycle until the last reader has read it.
func (n *Node) scratchFor(pl *ExecPlan, kernel bool) *runScratch {
	sc := &n.scratch
	if kernel {
		if len(sc.val) < pl.kern.words {
			sc.val = make([]float64, pl.kern.words)
		}
		return sc
	}
	need := pl.slots * pl.T
	if len(sc.val) < need {
		sc.val = make([]float64, need)
	}
	if len(sc.ok) < need {
		sc.ok = make([]bool, need)
	}
	if len(sc.reds) < pl.nReds {
		sc.reds = make([]redState, pl.nReds)
	}
	return sc
}
