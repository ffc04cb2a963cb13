// Package codegen is the microcode generator of Figure 3: it consumes
// the semantic data structures created by the graphical editor (the
// diagram document), invokes the checker "to perform a thorough check
// of global constraints", assigns diagram icons to physical hardware,
// derives switch settings "by interrogating the connection tables built
// by the graphical editor" (§5), balances stream timing with
// register-file delays, and emits executable NSC microcode.
package codegen

import (
	"fmt"
	"strings"

	"repro/internal/arch"
	"repro/internal/checker"
	"repro/internal/diag"
	"repro/internal/diagram"
	"repro/internal/microcode"
)

// Generator translates diagram documents into microcode programs.
type Generator struct {
	Inv *arch.Inventory
	F   *microcode.Format
	Chk *checker.Checker
}

// New returns a generator (and its embedded checker) for the inventory.
func New(inv *arch.Inventory) *Generator {
	return &Generator{Inv: inv, F: microcode.MustFormat(inv.Cfg), Chk: checker.New(inv)}
}

// CheckError carries the checker diagnostics that aborted generation.
type CheckError struct {
	Diags []checker.Diagnostic
}

func (e *CheckError) Error() string {
	msgs := make([]string, 0, len(e.Diags))
	for _, d := range e.Diags {
		msgs = append(msgs, d.String())
	}
	return fmt.Sprintf("codegen: %d checker error(s):\n%s", len(e.Diags), strings.Join(msgs, "\n"))
}

// PipeInfo reports what one pipeline elaborated to.
type PipeInfo struct {
	Pipe      int
	VectorLen int64
	// FillCycles is the pipeline depth: cycles before the first result
	// reaches the deepest sink.
	FillCycles int
	// FUsUsed counts physical functional units carrying an operation.
	FUsUsed int
	// FLOPsPerElement is the floating-point work per vector element.
	FLOPsPerElement int
	// ALSMap records which physical ALS each ALS icon received.
	ALSMap map[diagram.IconID]arch.ALSID
	// SDUMap records physical shift/delay unit assignment.
	SDUMap map[diagram.IconID]int
	// Epochs is the analysis's logical epoch of each producing pad, in
	// cycles (checker.Analysis.L, shared).
	Epochs map[diagram.PadRef]int
}

// Source maps producing pad pad of icon ic to the switch source port
// that carries it under this pipeline's hardware assignment: a memory
// or cache plane's read channel, a configured tap of the icon's
// shift/delay unit, or the output of a unit of the icon's ALS. ok is
// false for any other pad. It is the one map from a diagram pad to a
// switch port; the generator routes by it and the debugger observes by
// it.
func (pi *PipeInfo) Source(inv *arch.Inventory, ic *diagram.Icon, pad string) (arch.SourceID, bool) {
	cfg := inv.Cfg
	switch ic.Kind {
	case diagram.IconMemPlane:
		if pad == "rd" {
			return cfg.SrcMemRead(ic.Plane), true
		}
	case diagram.IconCache:
		if pad == "rd" {
			return cfg.SrcCacheRead(ic.Plane), true
		}
	case diagram.IconSDU:
		u, assigned := pi.SDUMap[ic.ID]
		if t, isTap := diagram.TapPad(pad); assigned && isTap && t < len(ic.Taps) {
			return cfg.SrcSDUTap(u, t), true
		}
	default:
		als, assigned := pi.ALSMap[ic.ID]
		if slot, side, isUnit := diagram.UnitPad(pad); assigned && isUnit && side == 2 && slot < ic.Kind.ActiveUnits() {
			if fu, err := inv.UnitAt(als, slot); err == nil {
				return cfg.SrcFUOut(fu.ID), true
			}
		}
	}
	return arch.InvalidSource, false
}

// Report aggregates generation results for a document.
type Report struct {
	Warnings []checker.Diagnostic
	Pipes    []PipeInfo
}

// elaboration is the working state for one pipeline.
type elaboration struct {
	g    *Generator
	doc  *diagram.Document
	p    *diagram.Pipeline
	an   *checker.Analysis
	in   *microcode.Instr
	info PipeInfo

	consts map[float64]int
}

// Pipeline checks a single diagram and elaborates it into one
// microcode instruction (without sequencer fields, which belong to the
// control flow). The returned instruction has CondHalt set so it is
// runnable standalone.
func (g *Generator) Pipeline(doc *diagram.Document, p *diagram.Pipeline) (*microcode.Instr, *PipeInfo, error) {
	an, diags := g.Chk.CheckPipeline(doc, p)
	if es := checker.Errors(diags); len(es) > 0 {
		return nil, nil, &CheckError{Diags: es}
	}
	return g.elaborate(doc, p, an)
}

// elaborate lowers a checked pipeline from its analysis.
func (g *Generator) elaborate(doc *diagram.Document, p *diagram.Pipeline, an *checker.Analysis) (*microcode.Instr, *PipeInfo, error) {
	e := &elaboration{
		g: g, doc: doc, p: p, an: an, in: g.F.NewInstr(),
		info: PipeInfo{Pipe: p.ID, VectorLen: an.VectorLen, ALSMap: map[diagram.IconID]arch.ALSID{},
			SDUMap: map[diagram.IconID]int{}, Epochs: an.L},
		consts: map[float64]int{},
	}
	if err := e.assignHardware(); err != nil {
		return nil, nil, err
	}
	if err := e.emit(); err != nil {
		return nil, nil, err
	}
	e.in.SetSeq(microcode.Seq{Cond: microcode.CondHalt})
	if p.Compare != nil {
		if err := e.emitCompare(); err != nil {
			return nil, nil, err
		}
	}
	return e.in, &e.info, nil
}

// assignHardware maps ALS icons to physical ALSs of the right kind and
// SDU icons to physical shift/delay units, in icon order: each ALS icon
// takes the first ALS of its kind, in inventory order, that no earlier
// icon took.
func (e *elaboration) assignHardware() error {
	inv := e.g.Inv
	var next [arch.Triplet + 1]int // per kind: where the search for a free ALS resumes
	sduNext := 0
	for _, ic := range e.p.Icons {
		if kind, ok := ic.Kind.ALSKind(); ok {
			i := next[kind]
			for i < len(inv.ALSs) && inv.ALSs[i].Kind != kind {
				i++
			}
			if i == len(inv.ALSs) {
				return diag.Errorf(diag.RuleGenResource, "codegen: out of %ss for icon %q", kind, ic.Name)
			}
			next[kind] = i + 1
			e.info.ALSMap[ic.ID] = inv.ALSs[i].ID
			continue
		}
		if ic.Kind == diagram.IconSDU {
			if sduNext >= inv.Cfg.ShiftDelayUnits {
				return diag.Errorf(diag.RuleGenResource, "codegen: out of shift/delay units for icon %q", ic.Name)
			}
			e.info.SDUMap[ic.ID] = sduNext
			sduNext++
		}
	}
	return nil
}

// unit returns the functional unit in slot of the ALS that ALS icon id
// was assigned.
func (e *elaboration) unit(id diagram.IconID, slot int) (arch.FUID, error) {
	als, ok := e.info.ALSMap[id]
	if !ok {
		return 0, diag.Errorf(diag.RuleGenStruct, "codegen: icon #%d has no ALS", id)
	}
	fu, err := e.g.Inv.UnitAt(als, slot)
	if err != nil {
		return 0, diag.Errorf(diag.RuleGenResource, "codegen: %v", err)
	}
	return fu.ID, nil
}

// constSlot interns a constant into the instruction's pool.
func (e *elaboration) constSlot(v float64) (int, error) {
	if k, ok := e.consts[v]; ok {
		return k, nil
	}
	k := len(e.consts)
	if k >= microcode.ConstPoolSize {
		return 0, diag.Errorf(diag.RuleGenResource, "codegen: more than %d distinct constants in one instruction", microcode.ConstPoolSize)
	}
	e.consts[v] = k
	e.in.SetConst(k, v)
	return k, nil
}

// sourceOf resolves a producing pad to its switch source port.
func (e *elaboration) sourceOf(pr diagram.PadRef) (arch.SourceID, error) {
	ic, err := e.p.Icon(pr.Icon)
	if err != nil {
		return arch.InvalidSource, err
	}
	if src, ok := e.info.Source(e.g.Inv, ic, pr.Pad); ok {
		return src, nil
	}
	if ic.Kind == diagram.IconSDU {
		return arch.InvalidSource, diag.Errorf(diag.RuleGenStruct, "codegen: tap %s not configured", pr)
	}
	return arch.InvalidSource, diag.Errorf(diag.RuleGenStruct, "codegen: %s is not a producing pad", pr)
}

func (e *elaboration) emit() error {
	cfg := e.g.Inv.Cfg
	// Function units: ops, operand bindings, reductions.
	for _, ic := range e.p.Icons {
		if _, isALS := e.info.ALSMap[ic.ID]; !isALS {
			continue
		}
		for slot, u := range ic.Units {
			if u.Op == arch.OpNop {
				continue
			}
			fu, err := e.unit(ic.ID, slot)
			if err != nil {
				return err
			}
			e.in.SetFUOp(fu, u.Op)
			e.info.FUsUsed++
			e.info.FLOPsPerElement += u.Op.Info().FLOPs
			outPad := diagram.PadRef{Icon: ic.ID, Pad: diagram.UnitPadName(slot, 2)}

			// Operand A.
			if wa := e.p.WireTo(diagram.PadRef{Icon: ic.ID, Pad: diagram.UnitPadName(slot, 0)}); wa != nil {
				src, err := e.sourceOf(wa.From)
				if err != nil {
					return err
				}
				e.in.Route(cfg.SnkFUIn(fu, 0), src)
				e.in.SetFUInput(fu, 0, microcode.InSwitch, 0, e.an.HWDelayA[outPad])
			} else if u.ConstA != nil {
				k, err := e.constSlot(*u.ConstA)
				if err != nil {
					return err
				}
				e.in.SetFUInput(fu, 0, microcode.InConst, k, 0)
			}

			// Operand B.
			switch {
			case u.Reduce:
				k, err := e.constSlot(u.RedInit)
				if err != nil {
					return err
				}
				e.in.SetFUInput(fu, 1, microcode.InFeedback, 0, 0)
				e.in.SetFUReduce(fu, true, k)
			default:
				if wb := e.p.WireTo(diagram.PadRef{Icon: ic.ID, Pad: diagram.UnitPadName(slot, 1)}); wb != nil {
					src, err := e.sourceOf(wb.From)
					if err != nil {
						return err
					}
					e.in.Route(cfg.SnkFUIn(fu, 1), src)
					e.in.SetFUInput(fu, 1, microcode.InSwitch, 0, e.an.HWDelayB[outPad])
				} else if u.ConstB != nil {
					k, err := e.constSlot(*u.ConstB)
					if err != nil {
						return err
					}
					e.in.SetFUInput(fu, 1, microcode.InConst, k, 0)
				}
			}
		}
	}

	// Shift/delay units.
	for _, ic := range e.p.Icons {
		if ic.Kind != diagram.IconSDU {
			continue
		}
		u := e.info.SDUMap[ic.ID]
		if w := e.p.WireTo(diagram.PadRef{Icon: ic.ID, Pad: "in"}); w != nil {
			src, err := e.sourceOf(w.From)
			if err != nil {
				return err
			}
			e.in.Route(cfg.SnkSDUIn(u), src)
			e.in.SetSDU(u, true, ic.Taps)
		}
	}

	// DMA channels and sink routing.
	for _, ic := range e.p.Icons {
		switch ic.Kind {
		case diagram.IconMemPlane:
			if ic.RdDMA != nil {
				addr, err := e.resolveAddr(ic, ic.RdDMA)
				if err != nil {
					return err
				}
				e.in.SetMemDMA(ic.Plane, microcode.MemDMA{
					Enable: true, Write: false, Addr: addr,
					Stride: ic.RdDMA.Stride, Count: ic.RdDMA.Count, Skip: ic.RdDMA.Skip,
				})
			}
			if ic.WrDMA != nil {
				w := e.p.WireTo(diagram.PadRef{Icon: ic.ID, Pad: "wr"})
				if w == nil {
					return diag.Errorf(diag.RuleGenStruct, "codegen: %s write DMA without a wire", ic.Name)
				}
				src, err := e.sourceOf(w.From)
				if err != nil {
					return err
				}
				addr, err := e.resolveAddr(ic, ic.WrDMA)
				if err != nil {
					return err
				}
				e.in.Route(cfg.SnkMemWrite(ic.Plane), src)
				e.in.SetMemDMA(ic.Plane, microcode.MemDMA{
					Enable: true, Write: true, Addr: addr,
					Stride: ic.WrDMA.Stride, Count: ic.WrDMA.Count, Skip: ic.WrDMA.Skip,
					Start: e.an.L[w.From],
				})
			}
		case diagram.IconCache:
			if ic.RdDMA != nil {
				e.in.SetCacheDMA(ic.Plane, microcode.CacheDMA{
					Enable: true, Write: false, Buf: ic.RdDMA.Buf, Addr: ic.RdDMA.Offset,
					Stride: ic.RdDMA.Stride, Count: ic.RdDMA.Count, Skip: ic.RdDMA.Skip,
					Swap: ic.RdDMA.Swap,
				})
			}
			if ic.WrDMA != nil {
				w := e.p.WireTo(diagram.PadRef{Icon: ic.ID, Pad: "wr"})
				if w == nil {
					return diag.Errorf(diag.RuleGenStruct, "codegen: %s write DMA without a wire", ic.Name)
				}
				src, err := e.sourceOf(w.From)
				if err != nil {
					return err
				}
				e.in.Route(cfg.SnkCacheWrite(ic.Plane), src)
				e.in.SetCacheDMA(ic.Plane, microcode.CacheDMA{
					Enable: true, Write: true, Buf: ic.WrDMA.Buf, Addr: ic.WrDMA.Offset,
					Stride: ic.WrDMA.Stride, Count: ic.WrDMA.Count, Skip: ic.WrDMA.Skip,
					Start: e.an.L[w.From], Swap: ic.WrDMA.Swap,
				})
			}
		}
	}

	// Fill latency: deepest epoch among sink drivers.
	fill := 0
	for _, ic := range e.p.Icons {
		if ic.Kind == diagram.IconMemPlane || ic.Kind == diagram.IconCache {
			if w := e.p.WireTo(diagram.PadRef{Icon: ic.ID, Pad: "wr"}); w != nil {
				if l := e.an.L[w.From]; l > fill {
					fill = l
				}
			}
		}
	}
	if fill == 0 {
		fill = e.an.MaxEpoch
	}
	e.info.FillCycles = fill
	return nil
}

// resolveAddr converts a DMA spec's variable+offset into a plane word
// address.
func (e *elaboration) resolveAddr(ic *diagram.Icon, spec *diagram.DMASpec) (int64, error) {
	if spec.Var == "" {
		return spec.Offset, nil
	}
	v, ok := e.doc.Decl(spec.Var)
	if !ok {
		return 0, diag.Errorf(diag.RuleGenStruct, "codegen: variable %q undeclared", spec.Var)
	}
	return v.Base + spec.Offset, nil
}

func (e *elaboration) emitCompare() error {
	cmp := e.p.Compare
	fu, err := e.unit(cmp.Icon, cmp.Slot)
	if err != nil {
		return err
	}
	k, err := e.constSlot(cmp.Threshold)
	if err != nil {
		return err
	}
	var op uint64
	switch cmp.Op {
	case "lt":
		op = microcode.CmpLT
	case "le":
		op = microcode.CmpLE
	case "gt":
		op = microcode.CmpGT
	case "ge":
		op = microcode.CmpGE
	default:
		return diag.Errorf(diag.RuleGenStruct, "codegen: compare op %q", cmp.Op)
	}
	s := e.in.SeqOf()
	s.CmpEnable = true
	s.CmpFU = fu
	s.CmpConst = k
	s.CmpOp = op
	s.CmpFlag = cmp.Flag
	e.in.SetSeq(s)
	return nil
}

// Validate is the validate pass: the generated program through the
// microcode format's structural validator, reported as a typed
// diagnostic on failure.
func (g *Generator) Validate(prog *microcode.Program) error {
	if err := prog.Validate(); err != nil {
		return diag.Errorf(diag.RuleGenStruct, "codegen: generated program invalid: %w", err)
	}
	return nil
}

// Lower is the codegen pass alone: elaborate a document that has
// passed Checker.Check into a microcode program, lowering each
// referenced pipeline from the analysis Check returned for it (ans,
// indexed by pipeline ID). The program has one instruction per flow op
// (a pipeline may be referenced several times), with sequencer fields
// realizing the control-flow region; a document without flow ops runs
// its pipelines in order and halts. It runs neither the checker's
// rules nor the final program validation; a referenced pipeline
// without an analysis is refused (R035). The caller fills the report's
// Warnings.
func (g *Generator) Lower(doc *diagram.Document, ans []*checker.Analysis) (*microcode.Program, *Report, error) {
	rep := &Report{}

	flow := doc.Flow
	if len(flow) == 0 {
		for i := range doc.Pipes {
			flow = append(flow, diagram.FlowOp{Pipe: i})
		}
		if len(flow) == 0 {
			return nil, nil, diag.Errorf(diag.RuleFlowGen, "codegen: document %q has no pipelines", doc.Name)
		}
		flow[len(flow)-1].Cond = diagram.CondHalt
	}

	// Elaborate each referenced pipeline once, in first-reference order.
	var order []int
	seen := map[int]bool{}
	for _, op := range flow {
		if op.Pipe < 0 || seen[op.Pipe] {
			continue
		}
		seen[op.Pipe] = true
		if _, err := doc.Pipe(op.Pipe); err != nil {
			return nil, nil, err
		}
		order = append(order, op.Pipe)
	}
	instrs := map[int]*microcode.Instr{}
	for _, id := range order {
		if id >= len(ans) || ans[id] == nil {
			return nil, nil, diag.Errorf(diag.RuleGenStruct, "codegen: pipeline %d has no analysis to lower from", id)
		}
		in, info, err := g.elaborate(doc, doc.Pipes[id], ans[id])
		if err != nil {
			return nil, nil, err
		}
		instrs[id] = in
		rep.Pipes = append(rep.Pipes, *info)
	}

	labels := map[string]int{}
	for i, op := range flow {
		if op.Label != "" {
			labels[op.Label] = i
		}
	}
	prog := microcode.NewProgram(g.F)
	for i, op := range flow {
		var in *microcode.Instr
		if op.Pipe >= 0 {
			in = instrs[op.Pipe].Clone()
		} else {
			in = g.F.NewInstr()
		}
		s := in.SeqOf()
		s.Flag = op.Flag
		switch op.Cond {
		case diagram.CondHalt:
			s.Cond = microcode.CondHalt
		case diagram.CondAlways:
			s.Cond = microcode.CondAlways
		case diagram.CondFlagSet:
			s.Cond = microcode.CondFlagSet
		case diagram.CondFlagClear:
			s.Cond = microcode.CondFlagClear
		case diagram.CondLoop:
			s.Cond = microcode.CondLoop
		}
		s.Ctr = op.Ctr
		s.CtrLoad = op.CtrLoad
		s.CtrValue = op.CtrValue
		next := i + 1
		if op.Next != "" {
			next = labels[op.Next]
		}
		if next >= len(flow) && op.Cond != diagram.CondHalt {
			// Falling off the end halts.
			if op.Cond == diagram.CondAlways {
				s.Cond = microcode.CondHalt
				next = i
			} else {
				return nil, nil, diag.Errorf(diag.RuleFlowGen, "codegen: flow op %d falls off the end of the program", i)
			}
		}
		s.Next = next
		if op.Branch != "" {
			s.Branch = labels[op.Branch]
		}
		if op.Pipe >= 0 && op.Pipe < len(doc.Pipes) && doc.Pipes[op.Pipe].IRQ {
			s.IRQ = true
		}
		in.SetSeq(s)
		prog.Append(in)
	}
	return prog, rep, nil
}
