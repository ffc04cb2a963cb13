// Package checker is the knowledge-base component of Figure 3: it holds
// "detailed information about the architecture of the NSC, so far as it
// is relevant to the programming process ... the rules about conflicts,
// constraints, asymmetries and other restrictions".
//
// The graphical editor calls the edit-time entry points (CanPlace,
// CanConnect, CanSetOp, CanSetDMA, CanSetTaps) during interaction so
// illegal inputs are rejected as soon as they are attempted; the
// microcode generator calls CheckPipeline / CheckDocument for the
// thorough global pass. Keeping the rules here — not in the editor —
// is what makes the environment "robust in the face of changes to the
// machine design": a new Config re-derives every limit.
package checker

import (
	"fmt"
	"math"

	"repro/internal/arch"
	"repro/internal/diag"
	"repro/internal/diagram"
)

// Severity grades a diagnostic. It aliases the shared diag.Severity so
// every front-end component speaks one diagnostic vocabulary.
type Severity = diag.Severity

// Diagnostic severities.
const (
	// Warning marks suspicious but generatable constructs.
	Warning = diag.Warning
	// Error marks constructs the microcode generator will refuse.
	Error = diag.Error
)

// Diagnostic is one finding of the full check: the shared typed record
// (stable rule code, severity, pipeline, diagram icon, optional source
// span and fix hint) defined in internal/diag.
type Diagnostic = diag.Diagnostic

// RuleError is returned by edit-time checks so callers can surface the
// violated rule ID in the message strip.
type RuleError struct {
	Rule string
	Msg  string
}

func (e *RuleError) Error() string { return e.Rule + ": " + e.Msg }

func ruleErr(rule, format string, args ...any) error {
	return &RuleError{Rule: rule, Msg: fmt.Sprintf(format, args...)}
}

// Rule identifiers. Stable strings; referenced by tests, docs and the
// editor's message strip.
const (
	RuleInventory   = "R001" // hardware inventory exceeded
	RulePlaneRange  = "R002" // plane number out of range
	RulePlaneBusy   = "R003" // memory/cache plane already in use this instruction
	RuleConnection  = "R004" // connection violates switch topology
	RuleOpCap       = "R005" // op not supported by this unit (asymmetry)
	RuleDelayBound  = "R006" // delay outside register-file/SDU capacity
	RuleDMABounds   = "R007" // DMA access outside plane/variable
	RuleVarUnknown  = "R008" // undeclared variable or wrong plane
	RuleTapCount    = "R009" // too many SDU taps
	RuleCycle       = "R010" // combinational cycle in the diagram
	RuleUnconnected = "R011" // required input not driven
	RuleMissingDMA  = "R012" // connected plane pad without DMA program
	RuleCountSkew   = "R013" // source streams of unequal length
	RuleUnusedIcon  = "R015" // icon placed but not wired (warning)
	RuleConstConfl  = "R020" // input bound to both a wire and a constant
	RuleCompareSpec = "R021" // convergence-compare spec invalid
	RuleHWDelay     = "R022" // balanced hardware delay exceeds register file
	RuleFlow        = "R023" // control-flow reference invalid
	RuleReduceWire  = "R024" // reduction unit's B side also wired
)

// Checker validates diagrams against a machine inventory.
type Checker struct {
	Inv *arch.Inventory
}

// New returns a checker for the given hardware inventory.
func New(inv *arch.Inventory) *Checker { return &Checker{Inv: inv} }

// slotCap returns the capability of unit slot `slot` of an icon of the
// given kind, mirroring arch.NewInventory's asymmetry layout. The
// bypassed doublet exposes only its slot-0 (integer-capable) unit.
func slotCap(kind diagram.IconKind, slot int) (arch.Capability, error) {
	alsKind, ok := kind.ALSKind()
	if !ok {
		return 0, ruleErr(RuleOpCap, "icon kind %s has no functional units", kind)
	}
	n := kind.ActiveUnits()
	if slot < 0 || slot >= n {
		return 0, ruleErr(RuleOpCap, "unit slot %d out of range for %s", slot, kind)
	}
	hw := alsKind.Units()
	cap := arch.CapFloat
	if hw > 1 && slot == 0 {
		cap |= arch.CapInteger
	}
	if hw > 1 && slot == hw-1 && kind != diagram.IconDoubletBypass {
		cap |= arch.CapMinMax
	}
	return cap, nil
}

// --- Edit-time checks ---

// CanPlace reports whether another icon of the given kind fits in the
// pipeline's remaining hardware inventory (R001) and, for plane icons,
// whether the plane number is legal (R002) and free (R003).
func (c *Checker) CanPlace(p *diagram.Pipeline, kind diagram.IconKind, plane int) error {
	cfg := c.Inv.Cfg
	if alsKind, ok := kind.ALSKind(); ok {
		used := 0
		for _, ic := range p.Icons {
			if k, ok := ic.Kind.ALSKind(); ok && k == alsKind {
				used++
			}
		}
		if used >= cfg.ALSOfKind(alsKind) {
			return ruleErr(RuleInventory, "all %d %ss already placed", cfg.ALSOfKind(alsKind), alsKind)
		}
		return nil
	}
	switch kind {
	case diagram.IconMemPlane:
		if plane < 0 || plane >= cfg.MemPlanes {
			return ruleErr(RulePlaneRange, "memory plane %d outside 0..%d", plane, cfg.MemPlanes-1)
		}
		for _, ic := range p.Icons {
			if ic.Kind == diagram.IconMemPlane && ic.Plane == plane {
				return ruleErr(RulePlaneBusy, "memory plane %d already used by %q in this instruction", plane, ic.Name)
			}
		}
	case diagram.IconCache:
		if plane < 0 || plane >= cfg.CachePlanes {
			return ruleErr(RulePlaneRange, "cache plane %d outside 0..%d", plane, cfg.CachePlanes-1)
		}
		for _, ic := range p.Icons {
			if ic.Kind == diagram.IconCache && ic.Plane == plane {
				return ruleErr(RulePlaneBusy, "cache plane %d already used by %q in this instruction", plane, ic.Name)
			}
		}
	case diagram.IconSDU:
		if n := p.CountKind(diagram.IconSDU); n >= cfg.ShiftDelayUnits {
			return ruleErr(RuleInventory, "all %d shift/delay units already placed", cfg.ShiftDelayUnits)
		}
	default:
		return ruleErr(RuleConnection, "unknown icon kind %d", int(kind))
	}
	return nil
}

// CanConnect reports whether a wire from `from` to `to` is legal at the
// switch-topology level: SDU inputs accept only memory or cache read
// channels (the SDUs sit between memory and the pipelines, Figure 1),
// and the wire's element delay must fit the register file (R006).
// Pad existence and single-driver rules are the diagram's own checks.
func (c *Checker) CanConnect(p *diagram.Pipeline, from, to diagram.PadRef, delay int) error {
	fi, err := p.Icon(from.Icon)
	if err != nil {
		return err
	}
	ti, err := p.Icon(to.Icon)
	if err != nil {
		return err
	}
	if delay > c.Inv.Cfg.MaxDelay {
		return ruleErr(RuleDelayBound, "delay %d exceeds register-file capacity %d", delay, c.Inv.Cfg.MaxDelay)
	}
	if ti.Kind == diagram.IconSDU {
		if fi.Kind != diagram.IconMemPlane && fi.Kind != diagram.IconCache {
			return ruleErr(RuleConnection, "shift/delay input must come from a memory or cache read channel, not %s", fi.Kind)
		}
		if delay != 0 {
			return ruleErr(RuleConnection, "delays on the SDU input are expressed as tap delays, not wire delays")
		}
	}
	if _, ok := ti.Kind.ALSKind(); !ok && ti.Kind != diagram.IconSDU {
		// Plane write channels take any pipeline source; delays on
		// them would need a register file the DMA units lack.
		if delay != 0 {
			return ruleErr(RuleConnection, "write channels cannot apply register-file delays")
		}
	}
	if fi.ID == ti.ID {
		if _, ok := fi.Kind.ALSKind(); ok {
			if slot, _, okp := diagram.UnitPad(from.Pad); okp {
				if tslot, _, okt := diagram.UnitPad(to.Pad); okt && slot == tslot {
					return ruleErr(RuleConnection, "a unit cannot feed itself directly; use reduction mode for feedback")
				}
			}
		} else {
			return ruleErr(RuleConnection, "%s cannot feed itself", fi.Name)
		}
	}
	return nil
}

// CanSetOp reports whether unit slot `slot` of icon ic may perform op,
// honouring the ALS capability asymmetries (R005) and reduction
// restrictions.
func (c *Checker) CanSetOp(ic *diagram.Icon, slot int, u diagram.UnitConfig) error {
	cap, err := slotCap(ic.Kind, slot)
	if err != nil {
		return err
	}
	if !u.Op.Valid() {
		return ruleErr(RuleOpCap, "undefined operation")
	}
	info := u.Op.Info()
	if !cap.Has(info.Needs) {
		return ruleErr(RuleOpCap, "unit %d of %s (%s) cannot perform %s (needs %s)",
			slot, ic.Name, cap, info.Name, info.Needs)
	}
	if u.Reduce && !info.Reducible {
		return ruleErr(RuleOpCap, "%s is not a reduction-capable operation", info.Name)
	}
	if u.Reduce && u.ConstB != nil {
		return ruleErr(RuleConstConfl, "reduction feedback occupies the B operand; constant B is impossible")
	}
	if u.ConstA != nil {
		if err := CheckFinite("constant A", *u.ConstA); err != nil {
			return err
		}
	}
	if u.ConstB != nil {
		if err := CheckFinite("constant B", *u.ConstB); err != nil {
			return err
		}
	}
	return CheckFinite("reduction initial value", u.RedInit)
}

// CheckFinite rejects a NaN or ±Inf value the editor would store in
// the document (R041): its JSON form has no spelling for one.
func CheckFinite(what string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return diag.Errorf(diag.RuleNonFinite, "%s %v is not finite", what, v)
	}
	return nil
}

// CanSetDMA validates a DMA specification for a plane icon against the
// plane geometry and the document's variable declarations (R007, R008).
func (c *Checker) CanSetDMA(doc *diagram.Document, ic *diagram.Icon, spec diagram.DMASpec) error {
	cfg := c.Inv.Cfg
	var planeWords int64
	switch ic.Kind {
	case diagram.IconMemPlane:
		planeWords = cfg.PlaneWords()
	case diagram.IconCache:
		planeWords = cfg.CacheWords()
		if spec.Buf != 0 && spec.Buf != 1 {
			return ruleErr(RuleDMABounds, "cache buffer select must be 0 or 1")
		}
	default:
		return ruleErr(RuleDMABounds, "%s is not a plane icon", ic.Kind)
	}
	if spec.Count < 1 {
		return ruleErr(RuleDMABounds, "element count %d must be at least 1", spec.Count)
	}
	if spec.Skip < 0 {
		return ruleErr(RuleDMABounds, "skip %d must be non-negative", spec.Skip)
	}
	base := spec.Offset
	limit := planeWords
	if spec.Var != "" {
		v, ok := doc.Decl(spec.Var)
		if !ok {
			return ruleErr(RuleVarUnknown, "variable %q is not declared", spec.Var)
		}
		if v.Plane != ic.Plane {
			return ruleErr(RuleVarUnknown, "variable %q lives in plane %d, icon %q is plane %d",
				spec.Var, v.Plane, ic.Name, ic.Plane)
		}
		base = v.Base + spec.Offset
		limit = v.Base + v.Len
		if base < v.Base {
			return ruleErr(RuleDMABounds, "offset %d before variable %q", spec.Offset, spec.Var)
		}
	}
	last := base + (spec.Count-1)*spec.Stride
	lo, hi := base, last
	if hi < lo {
		lo, hi = hi, lo
	}
	if lo < 0 || hi >= limit {
		return ruleErr(RuleDMABounds, "access range [%d,%d] outside [0,%d)", lo, hi, limit)
	}
	return nil
}

// CanSetTaps validates an SDU tap configuration (R009, R006).
func (c *Checker) CanSetTaps(ic *diagram.Icon, taps []int) error {
	cfg := c.Inv.Cfg
	if ic.Kind != diagram.IconSDU {
		return ruleErr(RuleTapCount, "%s is not a shift/delay unit", ic.Name)
	}
	if len(taps) == 0 {
		return ruleErr(RuleTapCount, "at least one tap is required")
	}
	if len(taps) > cfg.SDUTaps {
		return ruleErr(RuleTapCount, "%d taps exceed the %d available", len(taps), cfg.SDUTaps)
	}
	for i, d := range taps {
		if d < 0 || d > cfg.SDUBufferLen {
			return ruleErr(RuleDelayBound, "tap %d delay %d outside 0..%d", i, d, cfg.SDUBufferLen)
		}
	}
	return nil
}
