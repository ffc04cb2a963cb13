package sim

import (
	"math"
	"slices"

	"repro/internal/arch"
	"repro/internal/microcode"
)

// This file is the specialization layer below the decode-once /
// execute-many split: a compiled ExecPlan is lowered once more into an
// execKernel, a topologically ordered list of lane micro-ops executed
// as branch-free loops over contiguous lane-major scratch.
//
// Why lane evaluation is bit-identical to the interpreter's
// cycle-major sweep: every dependency in a plan points strictly
// backward in time (functional units have latency ≥ 1, SDU taps delay
// ≥ 1 cycle) and the producer graph is a DAG (compilePlan's depth
// fixpoint rejects routing cycles). Evaluating each producer's lane in
// topological order therefore performs exactly the same floating-point
// operations on exactly the same operands in the same per-lane order
// as the interpreter — reduction accumulators are sequential within a
// single lane, and non-reduce ops are pure.
//
// Each op computes only its need: the cycles its readers read (see
// demand). A pure op's value at a cycle depends on no other cycle of
// its own lane, so skipping unread cycles changes none it computes; a
// reduction still accumulates from its operand's first valid cycle,
// storing only the cycles a reader reads.
//
// Only DMA sources and functional-unit outputs own lanes. A delay tap
// is its input read through a larger offset, so taps cost nothing at
// run time, and every operand is read in place from its producer's
// lane. Validity never needs a lane either: each producer is valid on
// one interval of cycles, derived at lowering time (see span).
//
// The kernel carries none of the per-cycle detection machinery (FP
// trap classification, ECC take-down, tracer callbacks); the run layer
// dispatches through it only when all of those are provably inert for
// the whole instruction, which is known before cycle 0 streams.

// kernKind discriminates the whole-lane micro-op classes.
type kernKind uint8

const (
	kSrcMem kernKind = iota
	kSrcCache
	kFU
)

// span is the half-open cycle interval [lo, hi) on which a producer is
// valid; it is empty when lo ≥ hi. Intervals are closed under every
// rule a plan applies: a source is valid until its stream drains, a
// delay shifts an interval, a functional unit is valid where all its
// operands are, and a reduction from its first valid operand on.
type span struct{ lo, hi int }

// delayed is the interval seen d cycles later, clipped to [0,T).
func (s span) delayed(d, T int) span { return span{min(s.lo+d, T), min(s.hi+d, T)} }

// and intersects two intervals.
func (s span) and(o span) span { return span{max(s.lo, o.lo), min(s.hi, o.hi)} }

// hull is the smallest interval holding both; an empty side adds
// nothing.
func (s span) hull(o span) span {
	switch {
	case o.lo >= o.hi:
		return s
	case s.lo >= s.hi:
		return o
	}
	return span{min(s.lo, o.lo), max(s.hi, o.hi)}
}

// kernView locates a producer slot's values: cycle c reads lane[c-off],
// and cycles below off read zero.
type kernView struct {
	lane  int
	off   int
	valid span
}

// kernOperand is one functional-unit operand: a lane read in place
// through a fixed backward offset (latency + register-file delay + any
// tap shifts), or, when lane < 0, the scalar konst — a constant, or
// zero for an unconnected input.
type kernOperand struct {
	lane  int
	off   int
	konst float64
}

// cut returns the first region boundary the operand imposes in
// (lo,hi): its offset, where it turns from zero into a lane read; or hi.
func (o *kernOperand) cut(lo, hi int) int {
	if o.lane >= 0 && o.off > lo && o.off < hi {
		return o.off
	}
	return hi
}

// region returns the operand over cycles [lo,hi), which lie wholly on
// one side of its offset: a subslice of its producer's lane, or nil and
// a scalar.
func (o *kernOperand) region(val []float64, T, lo, hi int) ([]float64, float64) {
	if o.lane < 0 {
		return nil, o.konst
	}
	if lo < o.off {
		return nil, 0
	}
	base := o.lane*T - o.off
	return val[base+lo : base+hi], 0
}

// kernOp is one lane micro-op writing lane out over the cycles need.
// Exactly one of the other field groups is live, selected by kind; the
// FU group's byte-sized op and reduce sit beside kind, where they pack.
type kernOp struct {
	kind   kernKind
	op     arch.Op
	reduce bool
	out    int
	need   span

	// Sources (kSrcMem/kSrcCache).
	plane int
	buf   int
	addr  int64
	strd  int64
	skip  int64
	count int64

	// Functional units (kFU), with op and reduce above. b is the scalar
	// zero for unary ops and reductions, whose values never read it;
	// valid is a reduction's operand interval.
	a, b  kernOperand
	init  float64
	valid span
}

// execKernel is the lowered form of one ExecPlan: micro-ops in
// topological producer order over lanes physical lanes, and the view
// of every producer slot for the sinks and reduction registers. Like
// the plan it hangs off, it is immutable and carries no node state.
type execKernel struct {
	ops   []kernOp
	lanes int
	views []kernView
}

// lowerKernel lowers a compiled plan into an execKernel, or returns
// nil when it declines — an opcode without a run-layer implementation,
// a malformed DMA descriptor, or (defensively) a producer ordering the
// topological emitter cannot resolve. A nil kernel simply pins the
// plan to the interpreter; it is never an error.
func lowerKernel(pl *ExecPlan) *execKernel {
	for i := range pl.sources {
		s := &pl.sources[i]
		if s.skip < 0 || s.count < 0 {
			return nil
		}
		if s.kind == srcCache && s.buf != 0 && s.buf != 1 {
			return nil
		}
	}
	for i := range pl.fus {
		if _, known := apply(pl.fus[i].op, 0, 0); !known {
			return nil
		}
	}

	// Lanes are first numbered by the op that writes them; allocLanes
	// maps them onto physical lanes afterwards.
	T := pl.T
	k := &execKernel{ops: make([]kernOp, 0, len(pl.sources)+len(pl.fus)), views: make([]kernView, pl.slots)}
	done := make([]bool, pl.slots+len(pl.taps)+len(pl.fus))
	placed, tapDone, fuDone := done[:pl.slots], done[pl.slots:pl.slots+len(pl.taps)], done[pl.slots+len(pl.taps):]
	for i := range pl.sources {
		s := &pl.sources[i]
		kind := kSrcMem
		if s.kind == srcCache {
			kind = kSrcCache
		}
		k.views[s.slot] = kernView{lane: len(k.ops), valid: span{0, int(min(int64(T), s.skip+s.count))}}
		placed[s.slot] = true
		k.ops = append(k.ops, kernOp{
			kind: kind, out: len(k.ops), plane: s.plane, buf: s.buf,
			addr: s.addr, strd: s.strd, skip: s.skip, count: s.count,
			a: kernOperand{lane: -1}, b: kernOperand{lane: -1},
		})
	}

	// Place taps and FUs in topological order: a tap once its input is
	// placed, an FU once every lane it reads is. The producer graph is
	// a DAG, so each pass places at least one until none remain.
	for remaining := len(pl.taps) + len(pl.fus); remaining > 0; {
		progress := false
		for i := range pl.taps {
			tp := &pl.taps[i]
			if tapDone[i] || !placed[tp.in] {
				continue
			}
			v := k.views[tp.in]
			k.views[tp.out] = kernView{lane: v.lane, off: v.off + tp.shift, valid: v.valid.delayed(tp.shift, T)}
			placed[tp.out], tapDone[i] = true, true
			remaining--
			progress = true
		}
		for i := range pl.fus {
			p := &pl.fus[i]
			if fuDone[i] || (p.aKind == microcode.InSwitch && !placed[p.aSlot]) ||
				(!p.reduce && p.bKind == microcode.InSwitch && !placed[p.bSlot]) {
				continue
			}
			a, aValid := k.operand(p.aKind, p.aSlot, p.aConst, p.lat+p.aDelay, T)
			op := kernOp{kind: kFU, out: len(k.ops), op: p.op, a: a, b: kernOperand{lane: -1},
				reduce: p.reduce, init: p.init}
			valid := span{0, T}
			switch {
			case p.reduce:
				op.valid, valid = aValid, span{aValid.lo, T}
				if aValid.lo >= aValid.hi {
					valid = span{}
				}
			case p.arity > 0:
				b, bValid := k.operand(p.bKind, p.bSlot, p.bConst, p.lat+p.bDelay, T)
				if p.arity >= 2 {
					op.b = b
				}
				valid = aValid.and(bValid)
			}
			k.views[p.out] = kernView{lane: len(k.ops), valid: valid}
			k.ops = append(k.ops, op)
			placed[p.out], fuDone[i] = true, true
			remaining--
			progress = true
		}
		if !progress {
			return nil
		}
	}
	k.demand(pl)
	k.allocLanes(pl)
	return k
}

// operand resolves one FU input read d cycles behind its producer: a
// placed slot's lane through the combined offset, a constant, or the
// interpreter's default (zero) — with the cycles on which it is valid.
func (k *execKernel) operand(kind microcode.InKind, slot int, konst float64, d, T int) (kernOperand, span) {
	switch kind {
	case microcode.InSwitch:
		v := k.views[slot]
		return kernOperand{lane: v.lane, off: v.off + d}, v.valid.delayed(d, T)
	case microcode.InConst:
		return kernOperand{lane: -1, konst: konst}, span{0, T}
	}
	return kernOperand{lane: -1}, span{0, T}
}

// demand gives every op its need, the hull of the cycles its readers
// read: a sink reads its committed cycles, a reduction register cycle
// T-1, a reduction its operand over the operand's valid interval, and
// any other FU its operands over its own need. Ops are in topological
// order, so one backward pass meets every reader of an op before the
// op itself. An op with an empty need is never run.
func (k *execKernel) demand(pl *ExecPlan) {
	T := pl.T
	for _, s := range pl.sinks {
		c0 := s.start + int(s.skip)
		k.read(k.views[s.from], c0, c0+int(s.count), T)
	}
	for _, r := range pl.reduces {
		k.read(k.views[r.from], T-1, T, T)
	}
	for i := len(k.ops) - 1; i >= 0; i-- {
		op := &k.ops[i]
		if op.kind != kFU || op.need.lo >= op.need.hi {
			continue
		}
		c := op.need
		if op.reduce {
			c = op.valid
		}
		for _, o := range [2]kernOperand{op.a, op.b} {
			if o.lane >= 0 {
				k.read(kernView{lane: o.lane, off: o.off}, c.lo, c.hi, T)
			}
		}
	}
}

// read adds to the need of v's lane the cycles a reader reads through
// v over [lo,hi): below v's offset the reader sees zero and past T
// nothing, so only [max(lo,off), min(hi,T)) reaches the lane.
func (k *execKernel) read(v kernView, lo, hi, T int) {
	op := &k.ops[v.lane]
	op.need = op.need.hull(span{max(lo, v.off) - v.off, min(hi, T) - v.off})
}

// allocLanes maps the per-op lanes onto as few physical lanes as
// liveness allows, reusing the lowest free one. A lane is released
// after its last reader; an op's output is allocated while its inputs
// are still held, so it never shares a lane with them; lanes the sinks
// and reduction registers read stay live to the end.
func (k *execKernel) allocLanes(pl *ExecPlan) {
	ints := make([]int, 2*len(k.ops))
	last, phys := ints[:len(k.ops)], ints[len(k.ops):]
	for i := range k.ops {
		last[i] = i // unread: released right after it is written
		for _, l := range [2]int{k.ops[i].a.lane, k.ops[i].b.lane} {
			if l >= 0 {
				last[l] = i
			}
		}
	}
	for _, s := range pl.sinks {
		last[k.views[s.from].lane] = len(k.ops)
	}
	for _, r := range pl.reduces {
		last[k.views[r.from].lane] = len(k.ops)
	}

	busy := make([]bool, 0, len(k.ops))
	for i := range k.ops {
		op := &k.ops[i]
		l := slices.Index(busy, false)
		if l < 0 {
			l = len(busy)
			busy = append(busy, false)
		}
		busy[l], phys[i], op.out = true, l, l
		for _, o := range [2]*kernOperand{&op.a, &op.b} {
			if o.lane < 0 {
				continue
			}
			if last[o.lane] == i {
				busy[phys[o.lane]] = false
			}
			o.lane = phys[o.lane]
		}
		if last[i] == i {
			busy[l] = false
		}
	}
	for s := range k.views {
		k.views[s].lane = phys[k.views[s].lane]
	}
	k.lanes = len(busy)
}

// runKernel executes pl's lowered kernel against the node state over
// the lane-major scratch val. It is the fast path of run(): no traps,
// no ECC, no tracer — the caller has already proven all three inert
// for this dispatch.
func (n *Node) runKernel(pl *ExecPlan, val []float64) {
	T := pl.T
	ops := pl.kern.ops
	for i := range ops {
		op := &ops[i]
		if op.need.lo >= op.need.hi {
			continue
		}
		out := val[op.out*T : (op.out+1)*T : (op.out+1)*T]
		switch {
		case op.kind == kSrcMem:
			n.kernMemSource(op, out)
		case op.kind == kSrcCache:
			n.kernCacheSource(op, out)
		case op.reduce:
			kernReduce(op, val, out)
		default:
			kernFU(op, val, out)
		}
	}
}

// srcRegions splits a source lane into lead-in [0,lead), live
// [lead,live) and drained [live,T) regions.
func srcRegions(skip, count int64, T int) (lead, live int) {
	live = T
	if end := skip + count; end < int64(T) {
		live = int(end)
	}
	lead = live
	if skip < int64(lead) {
		lead = int(skip)
	}
	return lead, live
}

// needRegions is srcRegions clipped to the op's need: lead-in
// [need.lo,lead), live [lead,live) and drained [live,need.hi).
func needRegions(op *kernOp, T int) (lead, live int) {
	lead, live = srcRegions(op.skip, op.count, T)
	lo, hi := op.need.lo, op.need.hi
	return min(max(lead, lo), hi), min(max(live, lo), hi)
}

// kernMemSource streams one memory-plane DMA read channel over its
// need: zeros through the suppressed lead-in and after the stream
// drains, and the programmed address walk in between — a page at a
// time for stride 1, else word by word with a cached page pointer.
func (n *Node) kernMemSource(op *kernOp, out []float64) {
	lead, live := needRegions(op, len(out))
	clear(out[op.need.lo:lead])
	clear(out[live:op.need.hi])
	mem := n.Mem[op.plane]
	addr := op.addr + (int64(lead)-op.skip)*op.strd
	if op.strd == 1 && addr >= 0 && addr+int64(live-lead) <= mem.words {
		mem.readPages(addr, out[lead:live])
		return
	}
	var pg *[pageWords]float64
	pgIdx := int64(-1)
	for c := lead; c < live; c++ {
		var v float64
		if addr >= 0 && addr < mem.words {
			if p := addr / pageWords; p != pgIdx {
				pg, pgIdx = mem.pages[p], p
			}
			if pg != nil {
				v = pg[addr%pageWords]
			}
		}
		out[c] = v
		addr += op.strd
	}
}

// kernCacheSource streams one cache DMA read channel over its need
// from the pipeline-facing buffer selected by the instruction. An
// unwritten buffer is nil, so every word reads as zero.
func (n *Node) kernCacheSource(op *kernOp, out []float64) {
	lead, live := needRegions(op, len(out))
	clear(out[op.need.lo:lead])
	clear(out[live:op.need.hi])
	buf := n.Cache[op.plane].bufs[op.buf]
	addr := op.addr + (int64(lead)-op.skip)*op.strd
	for c := lead; c < live; c++ {
		var v float64
		if addr >= 0 && addr < int64(len(buf)) {
			v = buf[addr]
		}
		out[c] = v
		addr += op.strd
	}
}

// kernFU applies one functional unit over its need. The need is split
// at the operands' offsets into at most three regions; in each, every
// operand is either a subslice of its producer's lane or a scalar, and
// the region runs the op's slice×slice or slice×scalar loop.
func kernFU(op *kernOp, val, out []float64) {
	T := len(out)
	for lo, end := op.need.lo, op.need.hi; lo < end; {
		hi := min(op.a.cut(lo, end), op.b.cut(lo, end))
		av, as := op.a.region(val, T, lo, hi)
		bv, bs := op.b.region(val, T, lo, hi)
		fuRegion(op.op, out[lo:hi], av, as, bv, bs)
		lo = hi
	}
}

// fuRegion computes out = op(a, b) where a is the slice av, or the
// scalar as when av is nil (b likewise). The op dispatch is hoisted out
// of the element loop: hot floating-point ops get dedicated loops for
// each operand form, everything else falls back to a per-element apply
// call (still branch-predictable — one op per region).
func fuRegion(op arch.Op, out, av []float64, as float64, bv []float64, bs float64) {
	switch {
	case av == nil && bv == nil:
		v, _ := apply(op, as, bs)
		fill(out, v)
		return
	case bv == nil:
		if fuVS(op, out, av, bs) {
			return
		}
	case av == nil:
		if fuSV(op, out, as, bv) {
			return
		}
	default:
		if fuVV(op, out, av, bv) {
			return
		}
	}
	for i := range out {
		a, b := as, bs
		if av != nil {
			a = av[i]
		}
		if bv != nil {
			b = bv[i]
		}
		out[i], _ = apply(op, a, b)
	}
}

// fuVV is fuRegion's slice×slice loop for the hot ops; it reports
// false for any other op.
func fuVV(op arch.Op, out, a, b []float64) bool {
	a, b = a[:len(out)], b[:len(out)]
	switch op {
	case arch.OpAdd:
		for i := range out {
			out[i] = a[i] + b[i]
		}
	case arch.OpSub:
		for i := range out {
			out[i] = a[i] - b[i]
		}
	case arch.OpMul:
		for i := range out {
			out[i] = a[i] * b[i]
		}
	case arch.OpDiv:
		for i := range out {
			out[i] = a[i] / b[i]
		}
	case arch.OpMax:
		for i := range out {
			out[i] = fmax(a[i], b[i])
		}
	case arch.OpMin:
		for i := range out {
			out[i] = fmin(a[i], b[i])
		}
	case arch.OpMaxAbs:
		for i := range out {
			out[i] = fmax(math.Abs(a[i]), math.Abs(b[i]))
		}
	default:
		return false
	}
	return true
}

// fuVS is fuRegion's slice×scalar loop for the hot ops, unary ones
// included; it reports false for any other op.
func fuVS(op arch.Op, out, a []float64, b float64) bool {
	a = a[:len(out)]
	switch op {
	case arch.OpMov:
		copy(out, a)
	case arch.OpNeg:
		for i := range out {
			out[i] = -a[i]
		}
	case arch.OpAbs:
		for i := range out {
			out[i] = math.Abs(a[i])
		}
	case arch.OpAdd:
		for i := range out {
			out[i] = a[i] + b
		}
	case arch.OpSub:
		for i := range out {
			out[i] = a[i] - b
		}
	case arch.OpMul:
		for i := range out {
			out[i] = a[i] * b
		}
	case arch.OpDiv:
		for i := range out {
			out[i] = a[i] / b
		}
	case arch.OpMax:
		for i := range out {
			out[i] = fmax(a[i], b)
		}
	case arch.OpMin:
		for i := range out {
			out[i] = fmin(a[i], b)
		}
	case arch.OpMaxAbs:
		for i := range out {
			out[i] = fmax(math.Abs(a[i]), math.Abs(b))
		}
	default:
		return false
	}
	return true
}

// fuSV is fuRegion's scalar×slice loop for the hot binary ops; it
// reports false for any other op, and for a NaN a: the compiled add and
// mul loops may keep b's NaN payload where apply keeps a's.
func fuSV(op arch.Op, out []float64, a float64, b []float64) bool {
	if a != a {
		return false
	}
	b = b[:len(out)]
	switch op {
	case arch.OpAdd:
		for i := range out {
			out[i] = a + b[i]
		}
	case arch.OpSub:
		for i := range out {
			out[i] = a - b[i]
		}
	case arch.OpMul:
		for i := range out {
			out[i] = a * b[i]
		}
	case arch.OpDiv:
		for i := range out {
			out[i] = a / b[i]
		}
	case arch.OpMax:
		for i := range out {
			out[i] = fmax(a, b[i])
		}
	case arch.OpMin:
		for i := range out {
			out[i] = fmin(a, b[i])
		}
	case arch.OpMaxAbs:
		for i := range out {
			out[i] = fmax(math.Abs(a), math.Abs(b[i]))
		}
	default:
		return false
	}
	return true
}

// kernReduce runs one reduction unit: the initial value before its
// operand's valid interval, the accumulation inside it, and the held
// result after. The accumulator is local — sequential within the lane,
// exactly the interpreter's per-cycle order, which commits op(a, acc)
// only on cycles where a is valid. It always accumulates from the
// interval's first cycle but stores only the need, which ends at T
// because the register reads cycle T-1: the cycles before the need fold
// without a store, so a reduction only its register reads keeps no
// running lane and writes out[T-1] alone.
func kernReduce(op *kernOp, val, out []float64) {
	T := len(out)
	lo, hi := op.valid.lo, op.valid.hi
	acc := op.init
	if lo >= hi {
		lo, hi = T, T
	}
	from := op.need.lo
	fill(out[from:max(from, lo)], acc)
	mid := min(max(from, lo), hi)
	if av, as := op.a.region(val, T, lo, hi); av != nil {
		acc = reduceFold(op.op, acc, av[:mid-lo])
		acc = reduceRun(op.op, acc, av[mid-lo:], out[mid:hi])
	} else {
		for c := lo; c < hi; c++ {
			acc, _ = apply(op.op, as, acc)
			if c >= from {
				out[c] = acc
			}
		}
	}
	fill(out[max(hi, from):], acc)
}

// fill sets every element of s to v.
func fill(s []float64, v float64) {
	for i := range s {
		s[i] = v
	}
}

// reduceRun accumulates acc = op(a, acc) over the valid operand a,
// writing each step to run, and returns the final accumulator. Add and
// mul are exact whichever operand the compiled loop puts first, except
// when both are NaN: the payload kept then depends on that order. NaN
// is sticky under both, so a stream that ends in NaN is rerun through
// apply, the interpreter's own code; every other op but max, min and
// maxabs runs through apply from the start.
func reduceRun(op arch.Op, acc float64, a, run []float64) float64 {
	run = run[:len(a)]
	init := acc
	switch op {
	case arch.OpAdd:
		for i, x := range a {
			acc = x + acc
			run[i] = acc
		}
		if acc == acc {
			return acc
		}
	case arch.OpMul:
		for i, x := range a {
			acc = x * acc
			run[i] = acc
		}
		if acc == acc {
			return acc
		}
	case arch.OpMax:
		for i, x := range a {
			acc = fmax(x, acc)
			run[i] = acc
		}
		return acc
	case arch.OpMin:
		for i, x := range a {
			acc = fmin(x, acc)
			run[i] = acc
		}
		return acc
	case arch.OpMaxAbs:
		for i, x := range a {
			acc = fmax(math.Abs(x), math.Abs(acc))
			run[i] = acc
		}
		return acc
	}
	acc = init
	for i, x := range a {
		acc, _ = apply(op, x, acc)
		run[i] = acc
	}
	return acc
}

// reduceFold is reduceRun's final accumulator without the stores, with
// the same fallback to apply. For maxabs it is an integer max over the
// magnitudes' bit patterns: they order like the values, with every NaN
// above +Inf's, and fmax of two magnitudes is the larger unless one is
// NaN or +Inf. Only a result at or above +Inf's pattern takes the
// ordered loop, which lets +Inf beat NaN and canonicalizes NaN. An
// empty stream returns acc unchanged.
func reduceFold(op arch.Op, acc float64, a []float64) float64 {
	init := acc
	switch op {
	case arch.OpAdd:
		for _, x := range a {
			acc = x + acc
		}
		if acc == acc {
			return acc
		}
	case arch.OpMul:
		for _, x := range a {
			acc = x * acc
		}
		if acc == acc {
			return acc
		}
	case arch.OpMax:
		for _, x := range a {
			acc = fmax(x, acc)
		}
		return acc
	case arch.OpMin:
		for _, x := range a {
			acc = fmin(x, acc)
		}
		return acc
	case arch.OpMaxAbs:
		if len(a) == 0 {
			return acc
		}
		// Shifting out the sign bit leaves each magnitude's pattern,
		// doubled; inf is +Inf's pattern, doubled.
		const inf = 0x7ff << 53
		m := math.Float64bits(acc) << 1
		for _, x := range a {
			m = max(m, math.Float64bits(x)<<1)
		}
		if m < inf {
			return math.Float64frombits(m >> 1)
		}
	}
	acc = init
	for _, x := range a {
		acc, _ = apply(op, x, acc)
	}
	return acc
}

// fmax is math.Max bit for bit, in a form the compiler inlines: +Inf
// wins over NaN, any other NaN operand yields math.NaN() (not the
// operand's payload), and +0 beats -0.
func fmax(x, y float64) float64 {
	switch {
	case x > math.MaxFloat64:
		return x
	case y > math.MaxFloat64:
		return y
	case x != x || y != y:
		return math.NaN()
	case x > y || x == y && !math.Signbit(x):
		return x
	}
	return y
}

// fmin is math.Min bit for bit, in a form the compiler inlines: -Inf
// wins over NaN, any other NaN operand yields math.NaN(), and -0 beats
// +0.
func fmin(x, y float64) float64 {
	switch {
	case x < -math.MaxFloat64:
		return x
	case y < -math.MaxFloat64:
		return y
	case x != x || y != y:
		return math.NaN()
	case x < y || x == y && math.Signbit(x):
		return x
	}
	return y
}
