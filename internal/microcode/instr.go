package microcode

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/arch"
)

// Instr is a typed view over one instruction word. It pairs the raw
// bits with the format so machine components can be programmed and
// interrogated without knowing field offsets.
type Instr struct {
	F *Format
	W Word
}

// NewInstr returns a zeroed instruction for the format with every
// switch sink initialized to "not driven".
func (f *Format) NewInstr() *Instr {
	in := &Instr{F: f, W: f.NewWord()}
	for j := range f.swSink {
		in.W.Set(f.swSink[j], f.noneSource)
	}
	return in
}

// Clone returns an independent copy of the instruction.
func (in *Instr) Clone() *Instr { return &Instr{F: in.F, W: in.W.Clone()} }

// --- Switch network ---

// Route connects source src to sink snk through the switch network.
func (in *Instr) Route(snk arch.SinkID, src arch.SourceID) {
	in.W.Set(in.F.swSink[snk], uint64(src))
}

// Unroute disconnects sink snk.
func (in *Instr) Unroute(snk arch.SinkID) {
	in.W.Set(in.F.swSink[snk], in.F.noneSource)
}

// SinkSource returns the source driving sink snk, or InvalidSource if
// the sink is not driven.
func (in *Instr) SinkSource(snk arch.SinkID) arch.SourceID {
	v := in.W.Get(in.F.swSink[snk])
	if v == in.F.noneSource {
		return arch.InvalidSource
	}
	return arch.SourceID(v)
}

// --- Functional units ---

// SetFUOp programs unit fu to perform op.
func (in *Instr) SetFUOp(fu arch.FUID, op arch.Op) { in.W.Set(in.F.fuOp[fu], uint64(op)) }

// FUOp returns the op programmed on unit fu.
func (in *Instr) FUOp(fu arch.FUID) arch.Op { return arch.Op(in.W.Get(in.F.fuOp[fu])) }

// SetFUInput programs one operand side of unit fu (side 0 = A,
// side 1 = B): where the value comes from, the constant index when kind
// is InConst, and a register-file delay in elements.
func (in *Instr) SetFUInput(fu arch.FUID, side int, kind InKind, constIdx, delay int) {
	if side == 0 {
		in.W.Set(in.F.fuAKind[fu], uint64(kind))
		in.W.Set(in.F.fuAIdx[fu], uint64(constIdx))
		in.W.Set(in.F.fuADel[fu], uint64(delay))
	} else {
		in.W.Set(in.F.fuBKind[fu], uint64(kind))
		in.W.Set(in.F.fuBIdx[fu], uint64(constIdx))
		in.W.Set(in.F.fuBDel[fu], uint64(delay))
	}
}

// FUInput reads back one operand side of unit fu.
func (in *Instr) FUInput(fu arch.FUID, side int) (kind InKind, constIdx, delay int) {
	if side == 0 {
		return InKind(in.W.Get(in.F.fuAKind[fu])), int(in.W.Get(in.F.fuAIdx[fu])), int(in.W.Get(in.F.fuADel[fu]))
	}
	return InKind(in.W.Get(in.F.fuBKind[fu])), int(in.W.Get(in.F.fuBIdx[fu])), int(in.W.Get(in.F.fuBDel[fu]))
}

// SetFUReduce enables reduction mode on unit fu with the initial value
// taken from constant-pool slot initConst.
func (in *Instr) SetFUReduce(fu arch.FUID, enable bool, initConst int) {
	v := uint64(0)
	if enable {
		v = 1
	}
	in.W.Set(in.F.fuRed[fu], v)
	in.W.Set(in.F.fuRIni[fu], uint64(initConst))
}

// FUReduce reads back the reduction configuration of unit fu.
func (in *Instr) FUReduce(fu arch.FUID) (enable bool, initConst int) {
	return in.W.Get(in.F.fuRed[fu]) == 1, int(in.W.Get(in.F.fuRIni[fu]))
}

// --- Constant pool ---

// SetConst stores a float64 in constant-pool slot k.
func (in *Instr) SetConst(k int, v float64) { in.W.SetFloat(in.F.consts[k], v) }

// Const reads constant-pool slot k.
func (in *Instr) Const(k int) float64 { return in.W.GetFloat(in.F.consts[k]) }

// --- DMA: memory planes ---

// MemDMA describes one memory plane's DMA program for an instruction.
type MemDMA struct {
	Enable bool
	// Write is false for a read channel (plane → pipeline) and true for
	// a write channel (pipeline → plane).
	Write  bool
	Addr   int64 // word address within the plane
	Stride int64 // words, signed
	Count  int64 // elements
	// Skip suppresses the channel for the first Skip elements of the
	// instruction's vector: a read channel emits zeros, a write channel
	// discards. This is how streams with different grid alignments are
	// started in phase.
	Skip int64
	// Start (write channels only) is the pipeline-fill latency in
	// cycles before valid data reaches this sink; the DMA controller
	// idles until then. Computed by the microcode generator from the
	// diagram's timing analysis.
	Start int
}

// SetMemDMA programs plane p's DMA controller.
func (in *Instr) SetMemDMA(p int, d MemDMA) {
	in.W.Set(in.F.memEn[p], b2u(d.Enable))
	in.W.Set(in.F.memDir[p], b2u(d.Write))
	in.W.Set(in.F.memAddr[p], uint64(d.Addr))
	in.W.SetSigned(in.F.memStrd[p], d.Stride)
	in.W.Set(in.F.memCnt[p], uint64(d.Count))
	in.W.Set(in.F.memSkip[p], uint64(d.Skip))
	in.W.Set(in.F.memStrt[p], uint64(d.Start))
}

// MemDMAOf reads back plane p's DMA program.
func (in *Instr) MemDMAOf(p int) MemDMA {
	return MemDMA{
		Enable: in.W.Get(in.F.memEn[p]) == 1,
		Write:  in.W.Get(in.F.memDir[p]) == 1,
		Addr:   int64(in.W.Get(in.F.memAddr[p])),
		Stride: in.W.GetSigned(in.F.memStrd[p]),
		Count:  int64(in.W.Get(in.F.memCnt[p])),
		Skip:   int64(in.W.Get(in.F.memSkip[p])),
		Start:  int(in.W.Get(in.F.memStrt[p])),
	}
}

// --- DMA: cache planes ---

// CacheDMA describes one cache plane's DMA program.
type CacheDMA struct {
	Enable bool
	Write  bool
	// Buf selects which half of the double buffer the pipeline sees.
	Buf    int
	Addr   int64
	Stride int64
	Count  int64
	Skip   int64
	Start  int
	// Swap exchanges the two buffers when the instruction completes.
	Swap bool
}

// SetCacheDMA programs cache plane p's DMA controller.
func (in *Instr) SetCacheDMA(p int, d CacheDMA) {
	in.W.Set(in.F.cchEn[p], b2u(d.Enable))
	in.W.Set(in.F.cchDir[p], b2u(d.Write))
	in.W.Set(in.F.cchBuf[p], uint64(d.Buf))
	in.W.Set(in.F.cchAddr[p], uint64(d.Addr))
	in.W.SetSigned(in.F.cchStrd[p], d.Stride)
	in.W.Set(in.F.cchCnt[p], uint64(d.Count))
	in.W.Set(in.F.cchSkip[p], uint64(d.Skip))
	in.W.Set(in.F.cchStrt[p], uint64(d.Start))
	in.W.Set(in.F.cchSwap[p], b2u(d.Swap))
}

// CacheDMAOf reads back cache plane p's DMA program.
func (in *Instr) CacheDMAOf(p int) CacheDMA {
	return CacheDMA{
		Enable: in.W.Get(in.F.cchEn[p]) == 1,
		Write:  in.W.Get(in.F.cchDir[p]) == 1,
		Buf:    int(in.W.Get(in.F.cchBuf[p])),
		Addr:   int64(in.W.Get(in.F.cchAddr[p])),
		Stride: in.W.GetSigned(in.F.cchStrd[p]),
		Count:  int64(in.W.Get(in.F.cchCnt[p])),
		Skip:   int64(in.W.Get(in.F.cchSkip[p])),
		Start:  int(in.W.Get(in.F.cchStrt[p])),
		Swap:   in.W.Get(in.F.cchSwap[p]) == 1,
	}
}

// --- Shift/delay units ---

// SetSDU enables shift/delay unit u with the given per-tap delays (in
// elements). Tap delays not supplied are zero.
func (in *Instr) SetSDU(u int, enable bool, taps []int) {
	in.W.Set(in.F.sduEn[u], b2u(enable))
	for t := range in.F.sduTap[u] {
		v := 0
		if t < len(taps) {
			v = taps[t]
		}
		in.W.Set(in.F.sduTap[u][t], uint64(v))
	}
}

// SDUOf reads back shift/delay unit u's configuration.
func (in *Instr) SDUOf(u int) (enable bool, taps []int) {
	taps = make([]int, len(in.F.sduTap[u]))
	for t := range taps {
		taps[t] = in.SDUTap(u, t)
	}
	return in.SDUEnabled(u), taps
}

// SDUEnabled reports whether shift/delay unit u is enabled.
func (in *Instr) SDUEnabled(u int) bool { return in.W.Get(in.F.sduEn[u]) == 1 }

// SDUTap returns the delay programmed on tap t of shift/delay unit u.
// Unlike SDUOf it allocates nothing.
func (in *Instr) SDUTap(u, t int) int { return int(in.W.Get(in.F.sduTap[u][t])) }

// --- Sequencer ---

// Seq is the sequencer control portion of an instruction: next-PC,
// conditional branching on flags, completion interrupt, and the
// condition evaluator that compares a reduction register against a
// constant to set a flag (the paper's "elaborate interrupt scheme ...
// evaluate conditional expressions").
type Seq struct {
	Next   int
	Branch int
	Cond   uint64 // CondAlways, CondFlagSet, CondFlagClear, CondHalt
	Flag   int    // flag selected by Cond
	IRQ    bool   // raise completion interrupt
	// Trap arms the exception trap: a functional unit producing a
	// non-finite value (overflow, 0/0, ∞−∞) aborts the instruction
	// with a trap interrupt instead of streaming garbage onward (the
	// §2 interrupt scheme's third role, "trap exceptions").
	Trap bool
	// Ctr selects one of the sequencer's loop counters; CondLoop
	// decrements it and branches while positive. CtrLoad, when set,
	// loads CtrValue into the counter when the instruction completes
	// (before any CondLoop decrement of the same instruction).
	Ctr      int
	CtrLoad  bool
	CtrValue int64

	CmpEnable bool
	CmpFU     arch.FUID // reduction register compared
	CmpConst  int       // constant-pool slot holding the threshold
	CmpOp     uint64    // CmpLT..CmpGE
	CmpFlag   int       // flag set with the comparison result
}

// SetSeq programs the sequencer fields.
func (in *Instr) SetSeq(s Seq) {
	in.W.Set(in.F.seqNext, uint64(s.Next))
	in.W.Set(in.F.seqBranch, uint64(s.Branch))
	in.W.Set(in.F.seqCond, s.Cond)
	in.W.Set(in.F.seqFlag, uint64(s.Flag))
	in.W.Set(in.F.seqIrq, b2u(s.IRQ))
	in.W.Set(in.F.seqTrap, b2u(s.Trap))
	in.W.Set(in.F.seqCtr, uint64(s.Ctr))
	in.W.Set(in.F.seqCtrLd, b2u(s.CtrLoad))
	in.W.Set(in.F.seqCtrVal, uint64(s.CtrValue))
	in.W.Set(in.F.cmpEn, b2u(s.CmpEnable))
	in.W.Set(in.F.cmpFU, uint64(s.CmpFU))
	in.W.Set(in.F.cmpConst, uint64(s.CmpConst))
	in.W.Set(in.F.cmpOp, s.CmpOp)
	in.W.Set(in.F.cmpFlag, uint64(s.CmpFlag))
}

// SeqOf reads back the sequencer fields.
func (in *Instr) SeqOf() Seq {
	return Seq{
		Next:      int(in.W.Get(in.F.seqNext)),
		Branch:    int(in.W.Get(in.F.seqBranch)),
		Cond:      in.W.Get(in.F.seqCond),
		Flag:      int(in.W.Get(in.F.seqFlag)),
		IRQ:       in.W.Get(in.F.seqIrq) == 1,
		Trap:      in.W.Get(in.F.seqTrap) == 1,
		Ctr:       int(in.W.Get(in.F.seqCtr)),
		CtrLoad:   in.W.Get(in.F.seqCtrLd) == 1,
		CtrValue:  int64(in.W.Get(in.F.seqCtrVal)),
		CmpEnable: in.W.Get(in.F.cmpEn) == 1,
		CmpFU:     arch.FUID(in.W.Get(in.F.cmpFU)),
		CmpConst:  int(in.W.Get(in.F.cmpConst)),
		CmpOp:     in.W.Get(in.F.cmpOp),
		CmpFlag:   int(in.W.Get(in.F.cmpFlag)),
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Disassemble renders the non-default portions of the instruction as
// the textual microassembler listing the NSC never had ("reams of
// textual microassembler code", §6).
func (in *Instr) Disassemble() string {
	var sb strings.Builder
	cfg := in.F.Cfg
	for j := 0; j < cfg.NumSinks(); j++ {
		if src := in.SinkSource(arch.SinkID(j)); src != arch.InvalidSource {
			fmt.Fprintf(&sb, "route %-10s <- %s\n", cfg.SinkName(arch.SinkID(j)), cfg.SourceName(src))
		}
	}
	for i := 0; i < cfg.TotalFUs; i++ {
		fu := arch.FUID(i)
		op := in.FUOp(fu)
		ak, ac, ad := in.FUInput(fu, 0)
		bk, bc, bd := in.FUInput(fu, 1)
		red, ri := in.FUReduce(fu)
		if op == arch.OpNop && ak == InNone && bk == InNone && !red {
			continue
		}
		fmt.Fprintf(&sb, "fu%-3d %-6s a=%s b=%s", i, op, inputStr("a", ak, ac, ad), inputStr("b", bk, bc, bd))
		if red {
			fmt.Fprintf(&sb, " reduce(init=const%d)", ri)
		}
		sb.WriteByte('\n')
	}
	for k := 0; k < ConstPoolSize; k++ {
		if v := in.Const(k); math.Float64bits(v) != 0 { // keeps -0
			fmt.Fprintf(&sb, "const%d = %g\n", k, v)
		}
	}
	for p := 0; p < cfg.MemPlanes; p++ {
		if d := in.MemDMAOf(p); d.Enable {
			fmt.Fprintf(&sb, "mem%d   %s addr=%d stride=%d count=%d skip=%d start=%d\n", p, dirStr(d.Write), d.Addr, d.Stride, d.Count, d.Skip, d.Start)
		}
	}
	for p := 0; p < cfg.CachePlanes; p++ {
		if d := in.CacheDMAOf(p); d.Enable {
			fmt.Fprintf(&sb, "cache%d %s buf=%d addr=%d stride=%d count=%d skip=%d start=%d swap=%v\n", p, dirStr(d.Write), d.Buf, d.Addr, d.Stride, d.Count, d.Skip, d.Start, d.Swap)
		}
	}
	for u := 0; u < cfg.ShiftDelayUnits; u++ {
		if en, taps := in.SDUOf(u); en {
			fmt.Fprintf(&sb, "sdu%d   taps=%v\n", u, taps)
		}
	}
	s := in.SeqOf()
	fmt.Fprintf(&sb, "seq    next=%d branch=%d cond=%d flag=%d irq=%v", s.Next, s.Branch, s.Cond, s.Flag, s.IRQ)
	if s.Trap {
		sb.WriteString(" trap")
	}
	if s.CtrLoad {
		fmt.Fprintf(&sb, " ldctr(%d=%d)", s.Ctr, s.CtrValue)
	}
	if s.Cond == CondLoop {
		fmt.Fprintf(&sb, " loopctr=%d", s.Ctr)
	}
	if s.CmpEnable {
		fmt.Fprintf(&sb, " cmp(fu%d %s const%d -> flag%d)", s.CmpFU, cmpStr(s.CmpOp), s.CmpConst, s.CmpFlag)
	}
	sb.WriteByte('\n')
	return sb.String()
}

func inputStr(side string, k InKind, c, d int) string {
	var s string
	switch k {
	case InNone:
		s = "-"
	case InSwitch:
		s = "sw"
	case InConst:
		s = fmt.Sprintf("const%d", c)
	case InFeedback:
		s = "fb"
	}
	if d > 0 {
		s += fmt.Sprintf("+z%d", d)
	}
	_ = side
	return s
}

func dirStr(write bool) string {
	if write {
		return "write"
	}
	return "read "
}

func cmpStr(op uint64) string {
	switch op {
	case CmpLT:
		return "<"
	case CmpLE:
		return "<="
	case CmpGT:
		return ">"
	case CmpGE:
		return ">="
	}
	return "?"
}
