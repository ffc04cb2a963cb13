package sim

import (
	"math"

	"repro/internal/arch"
	"repro/internal/microcode"
)

// This file is the specialization layer below the decode-once /
// execute-many split: a compiled ExecPlan is lowered once more into an
// execKernel, a topologically ordered list of micro-ops executed block
// by block as branch-free loops over short lane windows.
//
// Why lane evaluation is bit-identical to the interpreter's
// cycle-major sweep: every dependency in a plan points strictly
// backward in time (functional units have latency ≥ 1, SDU taps delay
// ≥ 1 cycle) and the producer graph is a DAG (compilePlan's depth
// fixpoint rejects routing cycles). Evaluating each producer over a
// block in topological order, block after block, therefore performs
// exactly the same floating-point operations on exactly the same
// operands in the same per-lane order as the interpreter — reduction
// accumulators are sequential within a lane and carried from block to
// block, and non-reduce ops are pure.
//
// Each op computes only its need: the cycles its readers read (see
// demand). A pure op's value at a cycle depends on no other cycle of
// its own lane, so skipping unread cycles changes none it computes; a
// reduction still accumulates from its operand's first valid cycle,
// storing only the cycles a reader reads.
//
// Storage is bounded by the block, not by the stream. A stride-1
// memory source owns no storage: its lane is a view on its plane's
// pages, read in place as the hardware's DMA controller streams it. Every other
// producer a reader reads — a functional unit, a strided memory or a
// cache source — owns a ring window of kernBlock cycles plus the
// longest offset any reader reads it through. A delay tap is its input
// read through a larger offset, so taps cost nothing at run time, and
// every operand is read in place from its producer's window or pages.
// Validity never needs a lane either: each producer is valid on one
// interval of cycles, derived at lowering time (see span). Sinks commit
// each block's words as soon as the block has run.
//
// The kernel carries none of the per-cycle detection machinery (FP
// trap classification, ECC take-down, tracer callbacks); the run layer
// dispatches through it only when all of those are provably inert for
// the whole instruction, which is known before cycle 0 streams.

// kernBlock is the number of cycles every op runs before the next op
// takes its turn. A window holds one block plus its reach, so a node's
// kernel scratch is about lanes × kernBlock × 8 B whatever its slab.
// Half a page keeps the Jacobi sweep's 11 windows near 180 KiB, and a
// warm 48×48×6 sweep runs no slower than with whole-stream lanes.
const kernBlock = pageWords / 2

// kernKind discriminates the micro-op classes.
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

// kernLane is where a producer's values are read from. With w > 0 it
// is a ring window of w cycles at val[base:base+w] in the node's
// scratch, cycle x at base + x mod w. With w == 0 it is a stride-1
// memory source read in place: cycle x reads word addr+x-lead of its
// plane on [lead,live) and zero elsewhere; an absent page, and the
// words past a page's written prefix, read as the shared zero page.
type kernLane struct {
	base, w    int
	plane      int
	addr       int64
	lead, live int
}

// kernView locates a producer slot's values while lowering: cycle c
// reads lane cycle c-off, and cycles below off read zero.
type kernView struct {
	lane  int
	off   int
	valid span
}

// kernOperand is one read of a producer: a lane read in place through
// a fixed backward offset (latency + register-file delay + any tap
// shifts), or, when lane < 0, the scalar konst — a constant, or zero
// for an unconnected input or a producer no reader reads as a lane.
type kernOperand struct {
	lane  int
	off   int
	konst float64
}

// at returns operand o from cycle lo up to its next region boundary or
// hi, whichever comes first, and that region's length m. Inside a
// region the operand is one slice of its window or source page, or nil
// and a scalar: zero below its offset, through a source's lead-in and
// after it drains. Boundaries are the offset, a window's wrap, and a
// source's lead-in end, page ends, written-prefix ends and drain point.
func (n *Node) at(k *execKernel, o *kernOperand, lo, hi int) (v []float64, s float64, m int) {
	if o.lane < 0 {
		return nil, o.konst, hi - lo
	}
	if lo < o.off {
		return nil, 0, min(hi, o.off) - lo
	}
	x, m := lo-o.off, hi-lo
	l := &k.lanes[o.lane]
	if l.w > 0 {
		p := x % l.w
		m = min(m, l.w-p)
		return n.scratch.val[l.base+p : l.base+p+m], 0, m
	}
	switch {
	case x < l.lead:
		return nil, 0, min(m, l.lead-x)
	case x >= l.live:
		return nil, 0, m
	}
	a := l.addr + int64(x-l.lead)
	p := int(a % pageWords)
	m = min(m, l.live-x, pageWords-p)
	pg := n.Mem[l.plane].pages[a/pageWords]
	if p >= len(pg) {
		return zeroPage[p : p+m], 0, m
	}
	m = min(m, len(pg)-p)
	return pg[p : p+m], 0, m
}

// kernOp is one micro-op writing lane out over the cycles need.
// Exactly one of the other field groups is live, selected by kind; the
// FU group's byte-sized op and reduce sit beside kind, where they pack.
type kernOp struct {
	kind   kernKind
	op     arch.Op
	reduce bool
	out    int // lane; -1 for a reduction only its register reads
	need   span

	// Sources that keep a lane (kSrcMem at a stride other than 1,
	// kSrcCache).
	plane int
	buf   int
	addr  int64
	strd  int64
	skip  int64
	count int64

	// Functional units (kFU), with op and reduce above. b is the scalar
	// zero for unary ops and reductions, whose values never read it;
	// valid is a reduction's operand interval, and acc the index of its
	// accumulator among the plan's reductions.
	a, b  kernOperand
	init  float64
	valid span
	acc   int
}

// kernSink is how the kernel commits the plan's sink of the same
// index: word j takes cycle start+skip+j of in, for the first fit words,
// which lie inside the sink's plane or buffer. Lowering decides which
// words commit before the first cycle streams.
type kernSink struct {
	in  kernOperand
	fit int64
}

// execKernel is the lowered form of one ExecPlan: micro-ops in
// topological producer order, the lanes they read and write, and what
// the sinks read. Like the plan it hangs off, it is immutable and
// carries no node state. A dispatch's scratch is words long: the windows, then
// from accs on one accumulator per reduction.
type execKernel struct {
	ops   []kernOp
	lanes []kernLane
	// sinks are the plan's sinks up to the first whose walk leaves its
	// plane or buffer. With fail set that last one commits its in-range
	// prefix, and the dispatch then stops with its error: later sinks,
	// the registers, the statistics and cache swaps stay untouched.
	sinks []kernSink
	fail  bool
	// block is the cycles every op runs before the next takes its turn:
	// kernBlock, or T when one block takes less scratch.
	block       int
	accs, words int
}

// laneInfo is one lane's bookkeeping while a plan is lowered. Entry i
// also holds, for windows, the size of window i and the i-th entry of
// its stack of free windows.
type laneInfo struct {
	writer int  // the op that writes the lane; -1 for a source read in place
	need   span // the cycles its readers read
	reach  int  // the longest offset it is read through; -1 when no reader reads it
	last   int  // the last op that reads it, len(ops) when a sink does; -1 if none
	final  int  // its window, then its index in the kernel's lanes
	size   int
	free   int
}

// lowerKernel lowers a compiled plan into an execKernel, or returns
// nil when it declines — an opcode without a run-layer implementation,
// a malformed DMA descriptor, or (defensively) a producer ordering the
// topological emitter cannot resolve. A nil kernel simply pins the
// plan to the interpreter; it is never an error.
func lowerKernel(cfg arch.Config, pl *ExecPlan) *execKernel {
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

	// Every source and FU first gets a lane of its own; allocLanes keeps
	// the lanes some reader reads once demand is known. A slot is placed
	// once its view names a lane.
	T := pl.T
	n := len(pl.sources) + len(pl.fus)
	k := &execKernel{ops: make([]kernOp, 0, n), lanes: make([]kernLane, 0, n), sinks: make([]kernSink, 0, len(pl.sinks))}
	info := make([]laneInfo, 0, n)
	views := make([]kernView, pl.slots)
	for i := range views {
		views[i].lane = -1
	}
	placed := func(slot int) bool { return views[slot].lane >= 0 }
	lane := func(l kernLane, writer int) int {
		k.lanes = append(k.lanes, l)
		info = append(info, laneInfo{writer: writer, reach: -1, last: -1})
		return len(k.lanes) - 1
	}
	for i := range pl.sources {
		s := &pl.sources[i]
		live := int(min(int64(T), s.skip+s.count))
		if s.kind == srcMem && s.strd == 1 {
			l := kernLane{plane: s.plane, addr: s.addr, lead: int(min(int64(live), s.skip)), live: live}
			views[s.slot] = kernView{lane: lane(l, -1), valid: span{0, live}}
			continue
		}
		kind := kSrcMem
		if s.kind == srcCache {
			kind = kSrcCache
		}
		views[s.slot] = kernView{lane: lane(kernLane{}, len(k.ops)), valid: span{0, live}}
		k.ops = append(k.ops, kernOp{
			kind: kind, out: views[s.slot].lane, plane: s.plane, buf: s.buf,
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
			if placed(tp.out) || !placed(tp.in) {
				continue
			}
			v := views[tp.in]
			views[tp.out] = kernView{lane: v.lane, off: v.off + tp.shift, valid: v.valid.delayed(tp.shift, T)}
			remaining--
			progress = true
		}
		for i := range pl.fus {
			p := &pl.fus[i]
			if placed(p.out) || (p.aKind == microcode.InSwitch && !placed(p.aSlot)) ||
				(!p.reduce && p.bKind == microcode.InSwitch && !placed(p.bSlot)) {
				continue
			}
			a, aValid := operand(views, p.aKind, p.aSlot, p.aConst, p.lat+p.aDelay, T)
			op := kernOp{kind: kFU, op: p.op, a: a, b: kernOperand{lane: -1},
				reduce: p.reduce, init: p.init}
			valid := span{0, T}
			switch {
			case p.reduce:
				op.valid, valid = aValid, span{aValid.lo, T}
				if aValid.lo >= aValid.hi {
					valid = span{}
				}
				// Accumulators are numbered in FU order, as the
				// registers (pl.reduces) are.
				for _, q := range pl.fus[:i] {
					if q.reduce {
						op.acc++
					}
				}
			case p.arity > 0:
				b, bValid := operand(views, p.bKind, p.bSlot, p.bConst, p.lat+p.bDelay, T)
				if p.arity >= 2 {
					op.b = b
				}
				valid = aValid.and(bValid)
			}
			op.out = lane(kernLane{}, len(k.ops))
			views[p.out] = kernView{lane: op.out, valid: valid}
			k.ops = append(k.ops, op)
			remaining--
			progress = true
		}
		if !progress {
			return nil
		}
	}

	for i := range pl.sinks {
		s := &pl.sinks[i]
		v := views[s.from]
		ks := kernSink{in: kernOperand{lane: v.lane, off: v.off}}
		switch {
		case s.kind == srcMem:
			ks.fit = inRange(s.addr, s.strd, s.count, cfg.PlaneWords())
		case s.buf == 0 || s.buf == 1:
			ks.fit = inRange(s.addr, s.strd, s.count, cfg.CacheWords())
		}
		k.sinks = append(k.sinks, ks)
		if ks.fit < s.count {
			k.fail = true
			break
		}
	}
	// A register reads its reduction's accumulator at cycle T-1, not a
	// lane.
	for _, r := range pl.reduces {
		l := views[r.from].lane
		info[l].need = info[l].need.hull(span{T - 1, T})
	}
	k.demand(pl, info)
	k.allocLanes(T, len(pl.reduces), info)
	return k
}

// operand resolves one FU input read d cycles behind its producer: a
// placed slot's lane through the combined offset, a constant, or the
// interpreter's default (zero) — with the cycles on which it is valid.
func operand(views []kernView, kind microcode.InKind, slot int, konst float64, d, T int) (kernOperand, span) {
	switch kind {
	case microcode.InSwitch:
		v := views[slot]
		return kernOperand{lane: v.lane, off: v.off + d}, v.valid.delayed(d, T)
	case microcode.InConst:
		return kernOperand{lane: -1, konst: konst}, span{0, T}
	}
	return kernOperand{lane: -1}, span{0, T}
}

// inRange counts the leading words of the walk addr, addr+strd, … of
// count words that lie in [0,words): the prefix a sink writes before
// its first word out of range.
func inRange(addr, strd, count, words int64) int64 {
	switch {
	case addr < 0 || addr >= words:
		return 0
	case strd > 0:
		return min(count, (words-addr+strd-1)/strd)
	case strd < 0:
		return min(count, addr/-strd+1)
	}
	return count
}

// demand gives every op its need, the hull of the cycles its readers
// read: a sink reads the cycles it commits, a reduction register cycle
// T-1 (entered by the caller), a reduction its operand over the
// operand's valid interval, and any other FU its operands over its own
// need. Ops are in topological order, so one backward pass meets every
// reader of an op before the op itself. An op with an empty need is
// never run. Along the way it records every lane's reach and last
// reader.
func (k *execKernel) demand(pl *ExecPlan, info []laneInfo) {
	T := pl.T
	// Below the offset a reader sees zero and past T nothing, so only
	// [max(lo,off), min(hi,T)) reaches the lane.
	read := func(o kernOperand, lo, hi, reader int) {
		if o.lane < 0 {
			return
		}
		in := &info[o.lane]
		if s := (span{max(lo, o.off) - o.off, min(hi, T) - o.off}); s.lo < s.hi {
			in.need = in.need.hull(s)
			in.reach = max(in.reach, o.off)
			in.last = max(in.last, reader)
		}
	}
	for i, s := range k.sinks {
		c0 := pl.sinks[i].start + int(pl.sinks[i].skip)
		read(s.in, c0, c0+int(s.fit), len(k.ops))
	}
	for i := len(k.ops) - 1; i >= 0; i-- {
		op := &k.ops[i]
		op.need = info[op.out].need
		if op.kind != kFU || op.need.lo >= op.need.hi {
			continue
		}
		c := op.need
		if op.reduce {
			c = op.valid
		}
		read(op.a, c.lo, c.hi, i)
		read(op.b, c.lo, c.hi, i)
	}
}

// allocLanes keeps the lanes some reader reads and lays them out: the
// sources read in place first, then the windows (see windows), with
// reds accumulators after the windows. A stream runs in blocks of
// kernBlock cycles only when that takes less scratch than running it as
// one block. A lane no reader reads is dropped: its writer stores
// nothing, and every read through it lies below its offset and is zero.
func (k *execKernel) allocLanes(T, reds int, info []laneInfo) {
	k.block = T
	words, nwin := k.windows(T, T, info)
	if T > kernBlock {
		if w, n := k.windows(T, kernBlock, info); w < words {
			k.block, nwin = kernBlock, n
		} else {
			k.windows(T, T, info)
		}
	}
	lanes := k.lanes[:0]
	for i, l := range k.lanes {
		if info[i].writer < 0 && info[i].reach >= 0 {
			info[i].final = len(lanes)
			lanes = append(lanes, l)
		}
	}
	inPlace := len(lanes)
	for w := range nwin {
		lanes = append(lanes, kernLane{base: k.accs, w: info[w].size})
		k.accs += info[w].size
	}
	k.lanes = lanes
	k.words = k.accs + reds
	remap := func(l *int) {
		if *l < 0 {
			return
		}
		switch in := &info[*l]; {
		case in.reach < 0:
			*l = -1
		case in.writer >= 0:
			*l = inPlace + in.final
		default:
			*l = in.final
		}
	}
	for i := range k.ops {
		op := &k.ops[i]
		remap(&op.out)
		remap(&op.a.lane)
		remap(&op.b.lane)
	}
	for i := range k.sinks {
		remap(&k.sinks[i].in.lane)
	}
}

// windows gives every lane an op writes and some reader reads a window
// for blocks of the given length, setting its final to the window's
// number, and returns the windows' total words and count. A window
// holds block cycles plus the lane's reach, capped at T; cycle x sits
// at x mod its size. In a stream of one block no lane is read in a
// later block than the one that wrote it, so windows are shared as
// liveness allows: a window is freed after its last reader, an op's
// output is placed while its inputs are still held, so it never shares
// a window with them, and windows the sinks read stay held to the end.
// In blocks, every window carries cycles from one block to the next and
// is the lane's own.
func (k *execKernel) windows(T, block int, info []laneInfo) (words, nwin int) {
	nfree := 0
	for i := range k.ops {
		op := &k.ops[i]
		if l := op.out; info[l].reach >= 0 {
			if block >= T && nfree > 0 {
				nfree--
				info[l].final = info[nfree].free
			} else {
				size := min(T, block+info[l].reach)
				info[nwin].size, info[l].final = size, nwin
				nwin++
				words += size
			}
		}
		if block < T {
			continue
		}
		for j, l := range [2]int{op.a.lane, op.b.lane} {
			if l >= 0 && info[l].writer >= 0 && info[l].reach >= 0 && info[l].last == i && (j == 0 || l != op.a.lane) {
				info[nfree].free = info[l].final
				nfree++
			}
		}
	}
	return words, nwin
}

// runKernel executes pl's lowered kernel against the node state. It
// is the fast path of run(): no traps, no ECC, no tracer — the caller
// has already proven all three inert for this dispatch. It runs every
// op over each block of k.block cycles in turn, commits the block's
// sink words, and after the last block sets the reduction registers —
// unless a sink leaves its plane, whose error it returns once that
// sink's in-range prefix is written.
func (n *Node) runKernel(pl *ExecPlan) error {
	k, T := pl.kern, pl.T
	acc := n.scratch.val[k.accs:k.words]
	for i := range k.ops {
		if op := &k.ops[i]; op.reduce {
			acc[op.acc] = op.init
		}
	}
	for b0 := 0; b0 < T; b0 += k.block {
		b1 := min(b0+k.block, T)
		for i := range k.ops {
			op := &k.ops[i]
			if op.reduce {
				acc[op.acc] = n.reduce(k, op, acc[op.acc], b0, b1)
				continue
			}
			out := kernOperand{lane: op.out}
			for lo, hi := max(b0, op.need.lo), min(b1, op.need.hi); lo < hi; {
				v, _, m := n.at(k, &out, lo, hi)
				switch op.kind {
				case kSrcMem:
					n.kernMemSource(op, lo, v)
				case kSrcCache:
					n.kernCacheSource(op, lo, v)
				default:
					m = n.fu(k, op, lo, v)
				}
				lo += m
			}
		}
		for i := range k.sinks {
			n.commitBlock(k, &pl.sinks[i], k.sinks[i], b0, b1)
		}
	}
	if k.fail {
		s, fit := &pl.sinks[len(k.sinks)-1], k.sinks[len(k.sinks)-1].fit
		if s.kind == srcMem {
			return n.Mem[s.plane].addrErr(s.addr + fit*s.strd)
		}
		return n.Cache[s.plane].check(s.buf, s.addr+fit*s.strd)
	}
	for i, r := range pl.reduces {
		n.RedReg[r.fu] = acc[i]
	}
	return nil
}

// srcRegions splits the cycles [lo,hi) of a source into lead-in
// [lo,lead), live [lead,live) and drained [live,hi).
func srcRegions(skip, count int64, lo, hi int) (lead, live int) {
	live = int(min(max(skip+count, int64(lo)), int64(hi)))
	lead = int(min(max(skip, int64(lo)), int64(live)))
	return lead, live
}

// kernMemSource fills out with a strided memory-plane DMA read
// channel's cycles from lo on: zeros through the suppressed lead-in and
// after the stream drains, and the programmed address walk in between,
// word by word with a cached page pointer.
func (n *Node) kernMemSource(op *kernOp, lo int, out []float64) {
	lead, live := srcRegions(op.skip, op.count, lo, lo+len(out))
	clear(out[:lead-lo])
	clear(out[live-lo:])
	mem := n.Mem[op.plane]
	addr := op.addr + (int64(lead)-op.skip)*op.strd
	var pg []float64
	pgIdx := int64(-1)
	for c := lead; c < live; c++ {
		var v float64
		if addr >= 0 && addr < mem.words {
			if p := addr / pageWords; p != pgIdx {
				pg, pgIdx = mem.pages[p], p
			}
			if o := addr % pageWords; o < int64(len(pg)) {
				v = pg[o]
			}
		}
		out[c-lo] = v
		addr += op.strd
	}
}

// kernCacheSource fills out with a cache DMA read channel's cycles from
// lo on, read from the pipeline-facing buffer the instruction selects.
// An unwritten buffer is nil, so every word reads as zero.
func (n *Node) kernCacheSource(op *kernOp, lo int, out []float64) {
	lead, live := srcRegions(op.skip, op.count, lo, lo+len(out))
	clear(out[:lead-lo])
	clear(out[live-lo:])
	buf := n.Cache[op.plane].bufs[op.buf]
	addr := op.addr + (int64(lead)-op.skip)*op.strd
	for c := lead; c < live; c++ {
		var v float64
		if addr >= 0 && addr < int64(len(buf)) {
			v = buf[addr]
		}
		out[c-lo] = v
		addr += op.strd
	}
}

// fu applies a functional unit to the cycles from lo on that both
// operands hold in one region, writing them to the front of out, and
// returns how many it wrote. In a region every operand is a slice of
// its producer's window or pages, or a scalar, and the region runs the
// op's slice×slice or slice×scalar loop.
func (n *Node) fu(k *execKernel, op *kernOp, lo int, out []float64) int {
	hi := lo + len(out)
	av, as, na := n.at(k, &op.a, lo, hi)
	bv, bs, nb := n.at(k, &op.b, lo, hi)
	m := min(na, nb)
	fuRegion(op.op, out[:m], av, as, bv, bs)
	return m
}

// reduce runs one reduction unit over the block [b0,b1) from the
// accumulator acc and returns it: the initial value before its
// operand's valid interval, the accumulation inside it, and the held
// result after. The accumulator lives in the node's scratch and is
// carried from block to block in cycle order — exactly the
// interpreter's per-cycle order, which commits op(a, acc) only on
// cycles where a is valid. It stores only the need, which ends at T
// because the register reads cycle T-1: the cycles before the need fold
// without a store, and a reduction only its register reads has no lane
// and stores nothing.
func (n *Node) reduce(k *execKernel, op *kernOp, acc float64, b0, b1 int) float64 {
	from := b1 // the first cycle stored
	if op.out >= 0 {
		from = max(b0, op.need.lo)
	}
	out := kernOperand{lane: op.out}
	for lo := b0; lo < b1; {
		hi := b1
		for _, e := range [3]int{op.valid.lo, op.valid.hi, from} {
			if e > lo && e < hi {
				hi = e
			}
		}
		valid := op.valid.lo <= lo && lo < op.valid.hi
		var av, run []float64
		var as float64
		m := hi - lo
		if valid {
			var na int
			av, as, na = n.at(k, &op.a, lo, hi)
			m = min(m, na)
		}
		if lo >= from {
			var nr int
			run, _, nr = n.at(k, &out, lo, hi)
			m = min(m, nr)
			run = run[:m]
		}
		if av != nil {
			av = av[:m]
		}
		switch {
		case !valid:
			fill(run, acc)
		case av == nil:
			for i := range m {
				acc, _ = apply(op.op, as, acc)
				if run != nil {
					run[i] = acc
				}
			}
		case run == nil:
			acc = reduceFold(op.op, acc, av)
		default:
			acc = reduceRun(op.op, acc, av, run)
		}
		lo += m
	}
	return acc
}

// commitBlock writes the words of sink s whose cycles fall in [b0,b1)
// and inside its fit: stride-1 memory sinks a page at a time, the rest
// word by word. A sink reads a producer, never a constant, so a scalar
// region is zero.
func (n *Node) commitBlock(k *execKernel, s *planSink, ks kernSink, b0, b1 int) {
	c0 := s.start + int(s.skip)
	for lo, hi := max(b0, c0), min(b1, c0+int(ks.fit)); lo < hi; {
		v, _, m := n.at(k, &ks.in, lo, hi)
		j := int64(lo - c0)
		if s.kind == srcMem && s.strd == 1 {
			n.Mem[s.plane].writePages(s.addr+j, int64(m), v)
			lo += m
			continue
		}
		for i := range m {
			var x float64
			if v != nil {
				x = v[i]
			}
			// fit keeps every word in range, so no write can fail.
			addr := s.addr + (j+int64(i))*s.strd
			if s.kind == srcMem {
				_ = n.Mem[s.plane].Write(addr, x)
			} else {
				_ = n.Cache[s.plane].Write(s.buf, addr, x)
			}
		}
		lo += m
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
