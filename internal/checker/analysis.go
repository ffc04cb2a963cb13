package checker

import (
	"fmt"
	"sort"

	"repro/internal/arch"
	"repro/internal/diag"
	"repro/internal/diagram"
)

// Analysis is the elaborated timing and structure of one pipeline
// diagram. The microcode generator consumes it to derive switch
// settings, register-file delays and DMA start times; the checker's
// global pass produces it while verifying rules R010–R024.
//
// Timing model: every producing pad P has a logical epoch L(P) — the
// cycle at which its logical element 0 appears. Memory and cache read
// channels have L = 0. A shift/delay tap has L = L(input) + 1 (its data
// offset is carried separately by the tap delay). A functional unit has
// L = latency(op) + max(0, max over wired inputs of (L(driver) − wire
// delay)); the per-input hardware register-file delay that aligns the
// streams is HW = L − latency − L(driver) + wireDelay ≥ 0. Wire delays
// are therefore *intended element shifts*; the environment computes the
// physical delays, which is precisely the detail the paper's users had
// to work out by hand.
type Analysis struct {
	// Order lists every producing pad in topological order.
	Order []diagram.PadRef
	// L is the logical epoch of each producing pad, in cycles.
	L map[diagram.PadRef]int
	// HWDelayA / HWDelayB give the computed register-file delay for
	// each ALS unit's operand sides, keyed by the unit's output pad.
	HWDelayA map[diagram.PadRef]int
	HWDelayB map[diagram.PadRef]int
	// VectorLen is the instruction's vector length: the maximum of
	// skip+count over every enabled DMA channel.
	VectorLen int64
	// MaxEpoch is the largest logical epoch, i.e. the pipeline fill
	// latency in cycles.
	MaxEpoch int
}

type padColor int

const (
	colorWhite padColor = iota
	colorGray
	colorBlack
)

// unitArity returns how many operand sides the configured op consumes.
func unitArity(u diagram.UnitConfig) int { return u.Op.Info().Arity }

// driverOf returns the wire driving pad (icon,pad), or nil.
func driverOf(p *diagram.Pipeline, icon diagram.IconID, pad string) *diagram.Wire {
	return p.WireTo(diagram.PadRef{Icon: icon, Pad: pad})
}

// Analyze elaborates the pipeline: topological order over producing
// pads, logical epochs, balanced hardware delays, and the vector
// length. It reports an error diagnostic (R010) if the wires form a
// combinational cycle; other structural problems are left to
// CheckPipeline. Analyze is tolerant of incomplete diagrams — missing
// drivers simply contribute epoch 0 — so it can run during editing.
func (c *Checker) Analyze(doc *diagram.Document, p *diagram.Pipeline) (*Analysis, []Diagnostic) {
	a := &Analysis{
		L:        make(map[diagram.PadRef]int),
		HWDelayA: make(map[diagram.PadRef]int),
		HWDelayB: make(map[diagram.PadRef]int),
	}
	var diags []Diagnostic

	color := make(map[diagram.PadRef]padColor)
	var visit func(pr diagram.PadRef) bool

	// inputsOf returns the pads that the producing pad pr depends on,
	// with their wire delays.
	inputsOf := func(pr diagram.PadRef) []*diagram.Wire {
		ic, err := p.Icon(pr.Icon)
		if err != nil {
			return nil
		}
		switch ic.Kind {
		case diagram.IconMemPlane, diagram.IconCache:
			return nil // read channels are graph sources
		case diagram.IconSDU:
			if w := driverOf(p, ic.ID, "in"); w != nil {
				return []*diagram.Wire{w}
			}
			return nil
		default:
			slot, _, ok := diagram.UnitPad(pr.Pad)
			if !ok {
				return nil
			}
			var ws []*diagram.Wire
			if w := driverOf(p, ic.ID, fmt.Sprintf("u%d.a", slot)); w != nil {
				ws = append(ws, w)
			}
			if w := driverOf(p, ic.ID, fmt.Sprintf("u%d.b", slot)); w != nil {
				ws = append(ws, w)
			}
			return ws
		}
	}

	visit = func(pr diagram.PadRef) bool {
		switch color[pr] {
		case colorGray:
			diags = append(diags, Diagnostic{
				Rule: RuleCycle, Severity: Error, Pipe: p.ID, Icon: pr.Icon,
				Msg: fmt.Sprintf("combinational cycle through %s; feedback must use reduction mode", pr),
			})
			return false
		case colorBlack:
			return true
		}
		color[pr] = colorGray
		ok := true
		for _, w := range inputsOf(pr) {
			if !visit(w.From) {
				ok = false
				break
			}
		}
		color[pr] = colorBlack
		if !ok {
			return false
		}

		// Compute epoch and hardware delays now that inputs are final.
		ic, _ := p.Icon(pr.Icon)
		switch ic.Kind {
		case diagram.IconMemPlane, diagram.IconCache:
			a.L[pr] = 0
		case diagram.IconSDU:
			base := 0
			if w := driverOf(p, ic.ID, "in"); w != nil {
				base = a.L[w.From] + 1
			} else {
				base = 1
			}
			a.L[pr] = base
		default:
			slot, _, _ := diagram.UnitPad(pr.Pad)
			u := diagram.UnitConfig{}
			if slot < len(ic.Units) {
				u = ic.Units[slot]
			}
			lat := u.Op.Info().Latency
			wa := driverOf(p, ic.ID, fmt.Sprintf("u%d.a", slot))
			wb := driverOf(p, ic.ID, fmt.Sprintf("u%d.b", slot))
			need := 0
			if wa != nil {
				if v := a.L[wa.From] - wa.Delay; v > need {
					need = v
				}
			}
			if wb != nil {
				if v := a.L[wb.From] - wb.Delay; v > need {
					need = v
				}
			}
			epoch := lat + need
			a.L[pr] = epoch
			if wa != nil {
				a.HWDelayA[pr] = epoch - lat - a.L[wa.From] + wa.Delay
			}
			if wb != nil {
				a.HWDelayB[pr] = epoch - lat - a.L[wb.From] + wb.Delay
			}
		}
		a.Order = append(a.Order, pr)
		if a.L[pr] > a.MaxEpoch {
			a.MaxEpoch = a.L[pr]
		}
		return true
	}

	// Enumerate every producing pad in a deterministic order.
	icons := append([]*diagram.Icon(nil), p.Icons...)
	sort.Slice(icons, func(i, j int) bool { return icons[i].ID < icons[j].ID })
	for _, ic := range icons {
		for _, pad := range ic.Kind.Pads() {
			if !pad.Input {
				if !visit(diagram.PadRef{Icon: ic.ID, Pad: pad.Name}) {
					return a, diags
				}
			}
		}
	}

	// Vector length: max skip+count over enabled DMA programs.
	for _, ic := range icons {
		for _, spec := range []*diagram.DMASpec{ic.RdDMA, ic.WrDMA} {
			if spec != nil {
				if v := spec.Skip + spec.Count; v > a.VectorLen {
					a.VectorLen = v
				}
			}
		}
	}
	return a, diags
}

// CheckPipeline runs the thorough per-pipeline pass: everything the
// edit-time checks cover, plus connectivity, stream-length, delay-bound
// and convergence-spec rules that need the whole diagram.
func (c *Checker) CheckPipeline(doc *diagram.Document, p *diagram.Pipeline) []Diagnostic {
	var diags []Diagnostic
	err2diag := func(icon diagram.IconID, err error) {
		if err == nil {
			return
		}
		rule := "R000"
		msg := err.Error()
		switch e := err.(type) {
		case *RuleError:
			rule, msg = e.Rule, e.Msg
		case *diag.DiagError:
			rule = e.Rule()
		}
		diags = append(diags, Diagnostic{Rule: rule, Severity: Error, Pipe: p.ID, Icon: icon, Msg: msg})
	}

	// Re-run the edit-time rules over the stored state, so documents
	// assembled without the editor (or loaded from JSON) get the same
	// scrutiny.
	planesSeen := map[[2]int]diagram.IconID{}
	alsUsed := map[arch.ALSKind]int{}
	sduUsed := 0
	for _, ic := range p.Icons {
		switch ic.Kind {
		case diagram.IconMemPlane, diagram.IconCache:
			kindTag := 0
			limit := c.Inv.Cfg.MemPlanes
			if ic.Kind == diagram.IconCache {
				kindTag, limit = 1, c.Inv.Cfg.CachePlanes
			}
			if ic.Plane < 0 || ic.Plane >= limit {
				err2diag(ic.ID, ruleErr(RulePlaneRange, "plane %d outside 0..%d", ic.Plane, limit-1))
			} else if prev, dup := planesSeen[[2]int{kindTag, ic.Plane}]; dup {
				err2diag(ic.ID, ruleErr(RulePlaneBusy, "plane %d already used by icon #%d", ic.Plane, prev))
			} else {
				planesSeen[[2]int{kindTag, ic.Plane}] = ic.ID
			}
			for _, spec := range []*diagram.DMASpec{ic.RdDMA, ic.WrDMA} {
				if spec != nil {
					err2diag(ic.ID, c.CanSetDMA(doc, ic, *spec))
				}
			}
		case diagram.IconSDU:
			sduUsed++
			if sduUsed > c.Inv.Cfg.ShiftDelayUnits {
				err2diag(ic.ID, ruleErr(RuleInventory, "more SDU icons than the %d units available", c.Inv.Cfg.ShiftDelayUnits))
			}
			if len(ic.Taps) > 0 {
				err2diag(ic.ID, c.CanSetTaps(ic, ic.Taps))
			}
		default:
			if k, ok := ic.Kind.ALSKind(); ok {
				alsUsed[k]++
				if alsUsed[k] > c.Inv.Cfg.ALSOfKind(k) {
					err2diag(ic.ID, ruleErr(RuleInventory, "more %ss than the %d available", k, c.Inv.Cfg.ALSOfKind(k)))
				}
				for slot, u := range ic.Units {
					if u.Op != arch.OpNop {
						err2diag(ic.ID, c.CanSetOp(ic, slot, u))
					}
				}
			}
		}
	}

	an, cycleDiags := c.Analyze(doc, p)
	diags = append(diags, cycleDiags...)
	if len(cycleDiags) > 0 {
		return diags
	}

	diags = append(diags, c.checkConnectivity(p)...)
	diags = append(diags, c.checkStreams(p)...)
	diags = append(diags, c.checkDelays(p, an)...)
	diags = append(diags, c.checkCompare(p)...)
	return diags
}

func (c *Checker) checkConnectivity(p *diagram.Pipeline) []Diagnostic {
	var diags []Diagnostic
	add := func(icon diagram.IconID, rule, format string, args ...any) {
		diags = append(diags, Diagnostic{Rule: rule, Severity: Error, Pipe: p.ID, Icon: icon, Msg: fmt.Sprintf(format, args...)})
	}
	warn := func(icon diagram.IconID, rule, format string, args ...any) {
		diags = append(diags, Diagnostic{Rule: rule, Severity: Warning, Pipe: p.ID, Icon: icon, Msg: fmt.Sprintf(format, args...)})
	}
	for _, ic := range p.Icons {
		touched := false
		for _, pad := range ic.Kind.Pads() {
			pr := diagram.PadRef{Icon: ic.ID, Pad: pad.Name}
			if pad.Input && p.WireTo(pr) != nil {
				touched = true
			}
			if !pad.Input && len(p.WiresFrom(pr)) > 0 {
				touched = true
			}
		}
		switch {
		case ic.Kind == diagram.IconMemPlane || ic.Kind == diagram.IconCache:
			rdWired := len(p.WiresFrom(diagram.PadRef{Icon: ic.ID, Pad: "rd"})) > 0
			wrWired := p.WireTo(diagram.PadRef{Icon: ic.ID, Pad: "wr"}) != nil
			if rdWired && ic.RdDMA == nil {
				add(ic.ID, RuleMissingDMA, "%s read channel wired but no DMA program (Figure 9 subwindow)", ic.Name)
			}
			if wrWired && ic.WrDMA == nil {
				add(ic.ID, RuleMissingDMA, "%s write channel wired but no DMA program", ic.Name)
			}
			if rdWired && wrWired {
				add(ic.ID, RulePlaneBusy, "%s used for both reading and writing in one instruction", ic.Name)
			}
			if !touched {
				warn(ic.ID, RuleUnusedIcon, "%s placed but not wired", ic.Name)
			}
		case ic.Kind == diagram.IconSDU:
			inWired := p.WireTo(diagram.PadRef{Icon: ic.ID, Pad: "in"}) != nil
			tapsWired := 0
			for t := 0; t < c.Inv.Cfg.SDUTaps; t++ {
				tapsWired += len(p.WiresFrom(diagram.PadRef{Icon: ic.ID, Pad: fmt.Sprintf("t%d", t)}))
			}
			if tapsWired > 0 && !inWired {
				add(ic.ID, RuleUnconnected, "%s taps wired but input not driven", ic.Name)
			}
			if tapsWired > 0 && len(ic.Taps) == 0 {
				add(ic.ID, RuleUnconnected, "%s has wired taps but no tap delays configured", ic.Name)
			}
			for t := 0; t < c.Inv.Cfg.SDUTaps; t++ {
				if t >= len(ic.Taps) && len(p.WiresFrom(diagram.PadRef{Icon: ic.ID, Pad: fmt.Sprintf("t%d", t)})) > 0 {
					add(ic.ID, RuleUnconnected, "%s tap t%d wired but not configured", ic.Name, t)
				}
			}
			if !touched {
				warn(ic.ID, RuleUnusedIcon, "%s placed but not wired", ic.Name)
			}
		default:
			for slot := 0; slot < ic.Kind.ActiveUnits(); slot++ {
				u := ic.Units[slot]
				outWired := len(p.WiresFrom(diagram.PadRef{Icon: ic.ID, Pad: fmt.Sprintf("u%d.o", slot)})) > 0
				aw := p.WireTo(diagram.PadRef{Icon: ic.ID, Pad: fmt.Sprintf("u%d.a", slot)})
				bw := p.WireTo(diagram.PadRef{Icon: ic.ID, Pad: fmt.Sprintf("u%d.b", slot)})
				if u.Op == arch.OpNop {
					if outWired || aw != nil || bw != nil {
						add(ic.ID, RuleUnconnected, "%s unit %d is wired but has no operation (Figure 10 menu)", ic.Name, slot)
					}
					continue
				}
				arity := unitArity(u)
				if arity >= 1 {
					if aw == nil && u.ConstA == nil {
						add(ic.ID, RuleUnconnected, "%s unit %d (%s): operand A not driven", ic.Name, slot, u.Op)
					}
					if aw != nil && u.ConstA != nil {
						add(ic.ID, RuleConstConfl, "%s unit %d: operand A has both a wire and a constant", ic.Name, slot)
					}
				}
				if arity >= 2 {
					switch {
					case u.Reduce:
						if bw != nil {
							add(ic.ID, RuleReduceWire, "%s unit %d: reduction feedback occupies B, disconnect the wire", ic.Name, slot)
						}
					case bw == nil && u.ConstB == nil:
						add(ic.ID, RuleUnconnected, "%s unit %d (%s): operand B not driven", ic.Name, slot, u.Op)
					case bw != nil && u.ConstB != nil:
						add(ic.ID, RuleConstConfl, "%s unit %d: operand B has both a wire and a constant", ic.Name, slot)
					}
				}
				if !touched && u.Op != arch.OpNop {
					touched = true
				}
			}
			if !touched {
				warn(ic.ID, RuleUnusedIcon, "%s placed but not wired", ic.Name)
			}
		}
	}
	return diags
}

func (c *Checker) checkStreams(p *diagram.Pipeline) []Diagnostic {
	var diags []Diagnostic
	total := int64(-1)
	var first string
	for _, ic := range p.Icons {
		if ic.Kind != diagram.IconMemPlane && ic.Kind != diagram.IconCache {
			continue
		}
		if ic.RdDMA == nil {
			continue
		}
		v := ic.RdDMA.Skip + ic.RdDMA.Count
		if total < 0 {
			total, first = v, ic.Name
		} else if v != total {
			diags = append(diags, Diagnostic{
				Rule: RuleCountSkew, Severity: Error, Pipe: p.ID, Icon: ic.ID,
				Msg: fmt.Sprintf("%s streams %d elements but %s streams %d; DMA units pump in lockstep", ic.Name, v, first, total),
			})
		}
	}
	return diags
}

func (c *Checker) checkDelays(p *diagram.Pipeline, an *Analysis) []Diagnostic {
	var diags []Diagnostic
	for pr, d := range an.HWDelayA {
		if d > c.Inv.Cfg.MaxDelay {
			diags = append(diags, Diagnostic{
				Rule: RuleHWDelay, Severity: Error, Pipe: p.ID, Icon: pr.Icon,
				Msg: fmt.Sprintf("%s operand A needs a %d-cycle register-file delay; the file holds %d", pr, d, c.Inv.Cfg.MaxDelay),
			})
		}
	}
	for pr, d := range an.HWDelayB {
		if d > c.Inv.Cfg.MaxDelay {
			diags = append(diags, Diagnostic{
				Rule: RuleHWDelay, Severity: Error, Pipe: p.ID, Icon: pr.Icon,
				Msg: fmt.Sprintf("%s operand B needs a %d-cycle register-file delay; the file holds %d", pr, d, c.Inv.Cfg.MaxDelay),
			})
		}
	}
	return diags
}

func (c *Checker) checkCompare(p *diagram.Pipeline) []Diagnostic {
	if p.Compare == nil {
		return nil
	}
	bad := func(format string, args ...any) []Diagnostic {
		return []Diagnostic{{Rule: RuleCompareSpec, Severity: Error, Pipe: p.ID, Icon: p.Compare.Icon,
			Msg: fmt.Sprintf(format, args...)}}
	}
	ic, err := p.Icon(p.Compare.Icon)
	if err != nil {
		return bad("compare references missing icon #%d", p.Compare.Icon)
	}
	if p.Compare.Slot < 0 || p.Compare.Slot >= ic.Kind.ActiveUnits() {
		return bad("compare references slot %d of %s", p.Compare.Slot, ic.Name)
	}
	if !ic.Units[p.Compare.Slot].Reduce {
		return bad("compare must read a reduction register; %s unit %d does not reduce", ic.Name, p.Compare.Slot)
	}
	switch p.Compare.Op {
	case "lt", "le", "gt", "ge":
	default:
		return bad("compare operator %q unknown (lt/le/gt/ge)", p.Compare.Op)
	}
	if p.Compare.Flag < 0 || p.Compare.Flag > 15 {
		return bad("compare flag %d outside 0..15", p.Compare.Flag)
	}
	return nil
}

// CheckDocument checks every pipeline plus the control-flow region.
func (c *Checker) CheckDocument(doc *diagram.Document) []Diagnostic {
	var diags []Diagnostic
	for _, p := range doc.Pipes {
		diags = append(diags, c.CheckPipeline(doc, p)...)
	}
	diags = append(diags, c.CheckFlow(doc)...)
	return diags
}

// CheckFlow checks the document-level control-flow region: label
// uniqueness and reference validity, conditional branch targets, and
// counter ranges. It is the non-pipeline half of CheckDocument, split
// out so the incremental cache can reuse per-pipeline results while
// always re-checking the (cheap) flow region.
func (c *Checker) CheckFlow(doc *diagram.Document) []Diagnostic {
	var diags []Diagnostic
	labels := map[string]int{}
	for i, op := range doc.Flow {
		if op.Label != "" {
			if _, dup := labels[op.Label]; dup {
				diags = append(diags, Diagnostic{Rule: RuleFlow, Severity: Error, Pipe: -1, Icon: -1,
					Msg: fmt.Sprintf("duplicate flow label %q", op.Label)})
			}
			labels[op.Label] = i
		}
	}
	for i, op := range doc.Flow {
		if op.Pipe != -1 {
			if op.Pipe < 0 || op.Pipe >= len(doc.Pipes) {
				diags = append(diags, Diagnostic{Rule: RuleFlow, Severity: Error, Pipe: op.Pipe, Icon: -1,
					Msg: fmt.Sprintf("flow op %d executes unknown pipeline %d", i, op.Pipe)})
			}
		}
		for _, ref := range []string{op.Next, op.Branch} {
			if ref == "" {
				continue
			}
			if _, ok := labels[ref]; !ok {
				diags = append(diags, Diagnostic{Rule: RuleFlow, Severity: Error, Pipe: -1, Icon: -1,
					Msg: fmt.Sprintf("flow op %d references unknown label %q", i, ref)})
			}
		}
		if (op.Cond == diagram.CondFlagSet || op.Cond == diagram.CondFlagClear || op.Cond == diagram.CondLoop) && op.Branch == "" {
			diags = append(diags, Diagnostic{Rule: RuleFlow, Severity: Error, Pipe: -1, Icon: -1,
				Msg: fmt.Sprintf("flow op %d is conditional but names no branch label", i)})
		}
		if op.Ctr < 0 || op.Ctr > 3 {
			diags = append(diags, Diagnostic{Rule: RuleFlow, Severity: Error, Pipe: -1, Icon: -1,
				Msg: fmt.Sprintf("flow op %d selects counter %d outside 0..3", i, op.Ctr)})
		}
		if op.CtrLoad && (op.CtrValue < 0 || op.CtrValue >= 1<<24) {
			diags = append(diags, Diagnostic{Rule: RuleFlow, Severity: Error, Pipe: -1, Icon: -1,
				Msg: fmt.Sprintf("flow op %d counter load %d outside 0..2^24", i, op.CtrValue)})
		}
	}
	return diags
}

// Errors filters a diagnostic list down to the errors.
func Errors(diags []Diagnostic) []Diagnostic {
	var es []Diagnostic
	for _, d := range diags {
		if d.Severity == Error {
			es = append(es, d)
		}
	}
	return es
}
