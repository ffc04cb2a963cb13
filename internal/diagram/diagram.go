// Package diagram is the document model of the visual programming
// environment: pipeline diagrams made of icons (ALSs, memory planes,
// caches, shift/delay units), pads, wires and popup-subwindow detail
// (DMA specifications, function-unit operations).
//
// Following §4, the model carries two kinds of information: display
// data (icon positions) needed solely to manage the screen, and
// semantic data needed to generate microcode. Serializing a Document to
// JSON yields exactly the "semantic data structures" the paper's
// prototype emitted as its output.
package diagram

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/arch"
	"repro/internal/diag"
)

// IconKind enumerates the icon palette (Figure 4 plus the memory-plane,
// cache and shift/delay icons the paper lists as "useful, but not
// currently implemented" — implemented here).
type IconKind int

// Icon kinds.
const (
	// IconSinglet is a one-unit ALS.
	IconSinglet IconKind = iota
	// IconDoublet is a two-unit ALS.
	IconDoublet
	// IconDoubletBypass is a doublet configured to operate as a singlet
	// by bypassing its second functional unit (Figure 4 shows both
	// doublet representations).
	IconDoubletBypass
	// IconTriplet is a three-unit ALS.
	IconTriplet
	// IconMemPlane is a memory plane with read and write DMA channels.
	IconMemPlane
	// IconCache is a double-buffered data cache.
	IconCache
	// IconSDU is a shift/delay unit producing delayed taps of one
	// input stream.
	IconSDU
	numIconKinds
)

// String returns the palette name of the icon kind.
func (k IconKind) String() string {
	switch k {
	case IconSinglet:
		return "singlet"
	case IconDoublet:
		return "doublet"
	case IconDoubletBypass:
		return "doublet-bypass"
	case IconTriplet:
		return "triplet"
	case IconMemPlane:
		return "memplane"
	case IconCache:
		return "cache"
	case IconSDU:
		return "sdu"
	}
	return fmt.Sprintf("IconKind(%d)", int(k))
}

// KindByName resolves a palette name to an icon kind.
func KindByName(name string) (IconKind, bool) {
	for k := IconKind(0); k < numIconKinds; k++ {
		if k.String() == name {
			return k, true
		}
	}
	return 0, false
}

// AllKinds returns the full icon palette.
func AllKinds() []IconKind {
	ks := make([]IconKind, numIconKinds)
	for i := range ks {
		ks[i] = IconKind(i)
	}
	return ks
}

// ALSKind maps an ALS icon kind to the hardware structure it consumes,
// with ok=false for non-ALS icons. A bypassed doublet still consumes a
// doublet.
func (k IconKind) ALSKind() (arch.ALSKind, bool) {
	switch k {
	case IconSinglet:
		return arch.Singlet, true
	case IconDoublet, IconDoubletBypass:
		return arch.Doublet, true
	case IconTriplet:
		return arch.Triplet, true
	}
	return 0, false
}

// ActiveUnits returns the number of programmable functional-unit slots
// the icon exposes (0 for non-ALS icons; 1 for a bypassed doublet).
func (k IconKind) ActiveUnits() int {
	switch k {
	case IconSinglet, IconDoubletBypass:
		return 1
	case IconDoublet:
		return 2
	case IconTriplet:
		return 3
	}
	return 0
}

// IconID identifies an icon within one pipeline diagram. It aliases
// diag.IconID so diagnostics can reference diagram nodes without an
// import cycle.
type IconID = diag.IconID

// PadRef names one I/O pad (the "short wires terminated by small black
// circles" of §5) on a specific icon.
type PadRef struct {
	Icon IconID `json:"icon"`
	Pad  string `json:"pad"`
}

func (p PadRef) String() string { return fmt.Sprintf("#%d.%s", p.Icon, p.Pad) }

// PadInfo describes one pad of an icon kind.
type PadInfo struct {
	Name string
	// Input is true for pads that consume data (function-unit operand
	// sides, memory/cache write channels, SDU input).
	Input bool
}

// Pads returns the pad list of an icon kind, in drawing order. The
// list is shared by every caller and must not be modified; its
// capacity is capped, so appending to it copies.
func (k IconKind) Pads() []PadInfo {
	if k < 0 || k >= numIconKinds {
		return nil
	}
	return padTable[k]
}

// unitPadNames and tapPadNames are the palette's whole pad vocabulary
// beyond the plane and SDU-input pads: the operand and output pads of
// each unit slot an ALS icon can have (a triplet's three), indexed
// [slot][side], and the shift/delay taps.
var (
	unitPadNames = [...][3]string{
		{"u0.a", "u0.b", "u0.o"},
		{"u1.a", "u1.b", "u1.o"},
		{"u2.a", "u2.b", "u2.o"},
	}
	tapPadNames = [...]string{"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"}
)

// padTable holds every icon kind's pad list, built once.
var padTable = func() (t [numIconKinds][]PadInfo) {
	t[IconSinglet] = unitPads(1)
	t[IconDoubletBypass] = unitPads(1)
	t[IconDoublet] = unitPads(2)
	t[IconTriplet] = unitPads(3)
	t[IconMemPlane] = []PadInfo{{Name: "rd"}, {Name: "wr", Input: true}}
	t[IconCache] = []PadInfo{{Name: "rd"}, {Name: "wr", Input: true}}
	sdu := []PadInfo{{Name: "in", Input: true}}
	for _, name := range tapPadNames {
		sdu = append(sdu, PadInfo{Name: name})
	}
	t[IconSDU] = sdu
	for k, pads := range t {
		t[k] = slices.Clip(pads)
	}
	return t
}()

func unitPads(n int) []PadInfo {
	var pads []PadInfo
	for _, names := range unitPadNames[:n] {
		pads = append(pads,
			PadInfo{Name: names[0], Input: true},
			PadInfo{Name: names[1], Input: true},
			PadInfo{Name: names[2]},
		)
	}
	return pads
}

// PadDir looks a pad up on kind k; ok is false for unknown pads.
func (k IconKind) PadDir(pad string) (input, ok bool) {
	for _, p := range k.Pads() {
		if p.Name == pad {
			return p.Input, true
		}
	}
	return false, false
}

// UnitPad decomposes a function-unit pad name ("u1.b") into slot and
// side (0=a, 1=b, 2=output).
func UnitPad(pad string) (slot, side int, ok bool) {
	if len(pad) != 4 || pad[0] != 'u' || pad[1] < '0' || pad[1] > '9' || pad[2] != '.' {
		return 0, 0, false
	}
	side = strings.IndexByte("abo", pad[3])
	return int(pad[1] - '0'), side, side >= 0
}

// UnitPadName is the inverse of UnitPad: the name of side side (0=a,
// 1=b, 2=output) of unit slot slot, or "" for a slot or side no icon
// has, which names no pad and so matches no wire.
func UnitPadName(slot, side int) string {
	if slot < 0 || slot >= len(unitPadNames) || side < 0 || side >= len(unitPadNames[slot]) {
		return ""
	}
	return unitPadNames[slot][side]
}

// TapPad decomposes a shift/delay tap pad name ("t3") into its tap
// index; ok is false for any other pad.
func TapPad(pad string) (t int, ok bool) {
	t = slices.Index(tapPadNames[:], pad)
	return t, t >= 0
}

// TapPadName is the inverse of TapPad, or "" for a tap no SDU icon has.
func TapPadName(t int) string {
	if t < 0 || t >= len(tapPadNames) {
		return ""
	}
	return tapPadNames[t]
}

// UnitConfig is the per-function-unit detail entered through the
// Figure 10 popup: the operation, optional constant operands held in
// the register file, and reduction (feedback accumulation) mode.
type UnitConfig struct {
	Op arch.Op `json:"op"`
	// ConstA / ConstB bind an operand side to a register-file constant
	// instead of a wire.
	ConstA *float64 `json:"constA,omitempty"`
	ConstB *float64 `json:"constB,omitempty"`
	// Reduce accumulates the unit's output into its B operand via the
	// register-file feedback path; RedInit is the initial value.
	Reduce  bool    `json:"reduce,omitempty"`
	RedInit float64 `json:"redInit,omitempty"`
}

// DMASpec is the popup-subwindow content of Figure 9: which plane, the
// variable or starting address, stride, and element count.
type DMASpec struct {
	// Var optionally names a declared variable; when set, Offset is
	// relative to the variable's base.
	Var    string `json:"var,omitempty"`
	Offset int64  `json:"offset"`
	Stride int64  `json:"stride"`
	Count  int64  `json:"count"`
	// Skip suppresses the channel for the first Skip elements of the
	// instruction's vector (reads emit zeros, writes discard), aligning
	// streams whose grids are offset relative to each other.
	Skip int64 `json:"skip,omitempty"`
	// Buf and Swap apply to cache icons only (double buffering).
	Buf  int  `json:"buf,omitempty"`
	Swap bool `json:"swap,omitempty"`
}

// Icon is one placed icon: display data (X, Y) plus semantic data
// (plane assignment, unit configs, DMA programs, SDU taps).
type Icon struct {
	ID   IconID   `json:"id"`
	Kind IconKind `json:"kind"`
	Name string   `json:"name"`
	X    int      `json:"x"`
	Y    int      `json:"y"`

	// Plane is the memory/cache plane number for plane icons, or the
	// logical shift/delay unit number for SDU icons.
	Plane int `json:"plane,omitempty"`
	// Units holds per-slot configuration for ALS icons; length equals
	// Kind.ActiveUnits().
	Units []UnitConfig `json:"units,omitempty"`
	// RdDMA and WrDMA program the read and write channels of plane
	// icons (a plane icon may be used in one direction per instruction;
	// the checker enforces that).
	RdDMA *DMASpec `json:"rdDMA,omitempty"`
	WrDMA *DMASpec `json:"wrDMA,omitempty"`
	// Taps holds SDU tap delays (elements) for SDU icons.
	Taps []int `json:"taps,omitempty"`
}

// Wire connects a producing pad to a consuming pad, optionally through
// a register-file timing delay of Delay elements ("routing input data
// into a circular queue in a register file", §5).
type Wire struct {
	From  PadRef `json:"from"`
	To    PadRef `json:"to"`
	Delay int    `json:"delay,omitempty"`
}

// CompareSpec asks the sequencer to compare a reduction register
// against a threshold after the pipeline drains, setting a flag. This
// is how the Jacobi residual convergence check of Equation 1 terminates
// the iteration loop.
type CompareSpec struct {
	Icon      IconID  `json:"icon"`
	Slot      int     `json:"slot"`
	Op        string  `json:"op"` // "lt", "le", "gt", "ge"
	Threshold float64 `json:"threshold"`
	Flag      int     `json:"flag"`
}

// Pipeline is one diagram: one machine instruction ("each pipeline
// corresponds to a single instruction, or one line of code", §5).
type Pipeline struct {
	ID      int          `json:"id"`
	Label   string       `json:"label"`
	Icons   []*Icon      `json:"icons"`
	Wires   []*Wire      `json:"wires"`
	Compare *CompareSpec `json:"compare,omitempty"`
	// IRQ raises a completion interrupt when the pipeline drains.
	IRQ bool `json:"irq,omitempty"`

	nextID IconID
}

// VarDecl declares a named array variable resident in a memory plane
// (the declaration region at the left of the Figure 5 window).
type VarDecl struct {
	Name  string `json:"name"`
	Plane int    `json:"plane"`
	Base  int64  `json:"base"`
	Len   int64  `json:"len"`
}

// CondKind enumerates flow-op conditions.
type CondKind int

// Flow conditions.
const (
	// CondAlways proceeds to the next flow op.
	CondAlways CondKind = iota
	// CondFlagSet branches to Branch when the flag is set.
	CondFlagSet
	// CondFlagClear branches to Branch when the flag is clear.
	CondFlagClear
	// CondHalt stops the program.
	CondHalt
	// CondLoop decrements the selected sequencer counter and branches
	// to Branch while it stays positive (fixed-iteration loops).
	CondLoop
)

// FlowOp executes one pipeline and then transfers control (the control
// flow region of the Figure 5 window, driven by the central sequencer).
// Next and Branch are labels of other flow ops; an empty Next means
// fall through to the following op.
type FlowOp struct {
	Label  string   `json:"label,omitempty"`
	Pipe   int      `json:"pipe"`
	Cond   CondKind `json:"cond,omitempty"`
	Flag   int      `json:"flag,omitempty"`
	Next   string   `json:"next,omitempty"`
	Branch string   `json:"branch,omitempty"`
	// Ctr selects a sequencer loop counter for CondLoop; CtrLoad loads
	// CtrValue into it when this op's instruction completes.
	Ctr      int   `json:"ctr,omitempty"`
	CtrLoad  bool  `json:"ctrLoad,omitempty"`
	CtrValue int64 `json:"ctrValue,omitempty"`
}

// Document is a complete visual program: declarations, pipeline
// diagrams, and control flow.
type Document struct {
	Name  string      `json:"name"`
	Decls []VarDecl   `json:"decls,omitempty"`
	Pipes []*Pipeline `json:"pipes"`
	Flow  []FlowOp    `json:"flow,omitempty"`
}

// NewDocument returns an empty named document.
func NewDocument(name string) *Document { return &Document{Name: name} }

// AddPipeline appends a new empty pipeline diagram and returns it.
func (d *Document) AddPipeline(label string) *Pipeline {
	p := &Pipeline{ID: len(d.Pipes), Label: label}
	d.Pipes = append(d.Pipes, p)
	return p
}

// Pipe returns the pipeline with the given ID.
func (d *Document) Pipe(id int) (*Pipeline, error) {
	if id < 0 || id >= len(d.Pipes) {
		return nil, diag.Errorf(diag.RuleDiagram, "diagram: pipeline %d out of range", id)
	}
	return d.Pipes[id], nil
}

// Decl finds a variable declaration by name.
func (d *Document) Decl(name string) (VarDecl, bool) {
	for _, v := range d.Decls {
		if v.Name == name {
			return v, true
		}
	}
	return VarDecl{}, false
}

// Declare records a variable declaration, replacing any previous
// declaration of the same name.
func (d *Document) Declare(v VarDecl) {
	for i := range d.Decls {
		if d.Decls[i].Name == v.Name {
			d.Decls[i] = v
			return
		}
	}
	d.Decls = append(d.Decls, v)
}

// AddIcon places a new icon of the given kind and returns it. Names
// must be unique within the pipeline.
func (p *Pipeline) AddIcon(kind IconKind, name string, x, y int) (*Icon, error) {
	if err := p.nameErr(diag.RuleDiagram, name, p.Icons); err != nil {
		return nil, err
	}
	ic := &Icon{ID: p.nextID, Kind: kind, Name: name, X: x, Y: y}
	if n := kind.ActiveUnits(); n > 0 {
		ic.Units = make([]UnitConfig, n)
	}
	p.nextID++
	p.Icons = append(p.Icons, ic)
	return ic, nil
}

// Icon returns the icon with the given ID.
func (p *Pipeline) Icon(id IconID) (*Icon, error) {
	for _, ic := range p.Icons {
		if ic.ID == id {
			return ic, nil
		}
	}
	return nil, diag.Errorf(diag.RuleDiagram, "diagram: no icon #%d in pipeline %d", id, p.ID)
}

// IconByName returns the icon with the given user label.
func (p *Pipeline) IconByName(name string) (*Icon, error) {
	for _, ic := range p.Icons {
		if ic.Name == name {
			return ic, nil
		}
	}
	return nil, diag.Errorf(diag.RuleDiagram, "diagram: no icon named %q in pipeline %d", name, p.ID)
}

// RemoveIcon deletes an icon and every wire touching it.
func (p *Pipeline) RemoveIcon(id IconID) error {
	idx := -1
	for i, ic := range p.Icons {
		if ic.ID == id {
			idx = i
			break
		}
	}
	if idx < 0 {
		return diag.Errorf(diag.RuleDiagram, "diagram: no icon #%d in pipeline %d", id, p.ID)
	}
	p.Icons = append(p.Icons[:idx], p.Icons[idx+1:]...)
	kept := p.Wires[:0]
	for _, w := range p.Wires {
		if w.From.Icon != id && w.To.Icon != id {
			kept = append(kept, w)
		}
	}
	p.Wires = kept
	if p.Compare != nil && p.Compare.Icon == id {
		p.Compare = nil
	}
	return nil
}

// Connect adds a wire from a producing pad to a consuming pad. The
// structural legality of the connection is the checker's concern; this
// method only applies the diagram's own wire rules (see wireErr).
func (p *Pipeline) Connect(from, to PadRef, delay int) (*Wire, error) {
	if err := p.wireErr(diag.RuleDiagram, from, to, delay, p.Wires); err != nil {
		return nil, err
	}
	w := &Wire{From: from, To: to, Delay: delay}
	p.Wires = append(p.Wires, w)
	return w, nil
}

// nameErr applies AddIcon's naming rule, which Load replays: an icon
// needs a name that none of icons carries. It reports a violation
// under rule.
func (p *Pipeline) nameErr(rule, name string, icons []*Icon) error {
	if name == "" {
		return diag.Errorf(rule, "diagram: pipeline %d: icon needs a name", p.ID)
	}
	for _, ic := range icons {
		if ic.Name == name {
			return diag.Errorf(rule, "diagram: icon %q already exists in pipeline %d", name, p.ID)
		}
	}
	return nil
}

// wireErr applies the wire rules Connect and Load share: both ends
// name icons of the pipeline and pads of those icons, the wire runs
// from an output to an input, no wire among wires already drives the
// input, and the delay is not negative. It reports a violation under
// rule, and allocates nothing for a legal wire.
func (p *Pipeline) wireErr(rule string, from, to PadRef, delay int, wires []*Wire) error {
	fi, errFrom := p.Icon(from.Icon)
	ti, errTo := p.Icon(to.Icon)
	if errFrom != nil || errTo != nil {
		absent := from.Icon
		if errFrom == nil {
			absent = to.Icon
		}
		return diag.Errorf(rule, "diagram: pipeline %d wire %s -> %s names absent icon #%d", p.ID, from, to, absent)
	}
	if in, ok := fi.Kind.PadDir(from.Pad); !ok {
		return diag.Errorf(rule, "diagram: pipeline %d: %s has no pad %q", p.ID, fi.Name, from.Pad)
	} else if in {
		return diag.Errorf(rule, "diagram: pipeline %d: pad %s.%s is an input, cannot source a wire", p.ID, fi.Name, from.Pad)
	}
	if in, ok := ti.Kind.PadDir(to.Pad); !ok {
		return diag.Errorf(rule, "diagram: pipeline %d: %s has no pad %q", p.ID, ti.Name, to.Pad)
	} else if !in {
		return diag.Errorf(rule, "diagram: pipeline %d: pad %s.%s is an output, cannot terminate a wire", p.ID, ti.Name, to.Pad)
	}
	for _, w := range wires {
		if w.To == to {
			return diag.Errorf(rule, "diagram: pipeline %d: pad %s.%s is already driven", p.ID, ti.Name, to.Pad)
		}
	}
	if delay < 0 {
		return diag.Errorf(rule, "diagram: pipeline %d: wire %s -> %s has negative delay %d", p.ID, from, to, delay)
	}
	return nil
}

// Disconnect removes the wire terminating at pad to.
func (p *Pipeline) Disconnect(to PadRef) error {
	for i, w := range p.Wires {
		if w.To == to {
			p.Wires = append(p.Wires[:i], p.Wires[i+1:]...)
			return nil
		}
	}
	return diag.Errorf(diag.RuleDiagram, "diagram: no wire terminates at %s", to)
}

// WireTo returns the wire terminating at pad to, or nil.
func (p *Pipeline) WireTo(to PadRef) *Wire {
	for _, w := range p.Wires {
		if w.To == to {
			return w
		}
	}
	return nil
}

// Drives reports whether any wire is sourced at pad from (fan-out is
// legal through the switch network).
func (p *Pipeline) Drives(from PadRef) bool {
	for _, w := range p.Wires {
		if w.From == from {
			return true
		}
	}
	return false
}

// CountKind returns how many icons of the given kind are placed.
func (p *Pipeline) CountKind(k IconKind) int {
	n := 0
	for _, ic := range p.Icons {
		if ic.Kind == k {
			n++
		}
	}
	return n
}

// Save serializes the document as indented JSON — the semantic data
// structures the prototype emitted ("a pseudo-code representation of
// the instructions", §4).
func (d *Document) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// Load deserializes a document saved with Save and rebuilds per-
// pipeline bookkeeping. It rejects (R039) shapes the editor never
// produces and later stages cannot handle: a null pipeline, icon or
// wire, an unknown icon kind, an ALS icon with fewer units than its
// kind exposes, an undefined opcode, two icons with one ID, an icon
// AddIcon would refuse for its name, and a wire Connect would refuse
// given the wires before it.
func Load(r io.Reader) (*Document, error) {
	var d Document
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, diag.Errorf(diag.RuleDocIO, "diagram: decoding document: %w", err)
	}
	for i, p := range d.Pipes {
		if p == nil {
			return nil, diag.Errorf(diag.RuleDocIO, "diagram: pipeline %d is null", i)
		}
		if err := p.checkLoaded(); err != nil {
			return nil, err
		}
	}
	return &d, nil
}

// checkLoaded validates a decoded pipeline's icons and wires and rebuilds
// its next icon ID. It allocates nothing for a valid pipeline: undo and
// redo restore through Load.
func (p *Pipeline) checkLoaded() error {
	for i, ic := range p.Icons {
		if ic == nil {
			return diag.Errorf(diag.RuleDocIO, "diagram: pipeline %d has a null icon", p.ID)
		}
		if ic.Kind < 0 || ic.Kind >= numIconKinds {
			return diag.Errorf(diag.RuleDocIO, "diagram: pipeline %d icon #%d %q has unknown kind %d", p.ID, ic.ID, ic.Name, int(ic.Kind))
		}
		if n := ic.Kind.ActiveUnits(); len(ic.Units) < n {
			return diag.Errorf(diag.RuleDocIO, "diagram: pipeline %d icon #%d %q: a %s needs %d units, has %d", p.ID, ic.ID, ic.Name, ic.Kind, n, len(ic.Units))
		}
		for slot, u := range ic.Units {
			if !u.Op.Valid() {
				return diag.Errorf(diag.RuleDocIO, "diagram: pipeline %d icon #%d %q unit %d: invalid opcode %d", p.ID, ic.ID, ic.Name, slot, uint8(u.Op))
			}
		}
		if err := p.nameErr(diag.RuleDocIO, ic.Name, p.Icons[:i]); err != nil {
			return err
		}
		for _, prev := range p.Icons[:i] {
			if prev.ID == ic.ID {
				return diag.Errorf(diag.RuleDocIO, "diagram: pipeline %d icons %q and %q share icon #%d", p.ID, prev.Name, ic.Name, ic.ID)
			}
		}
		if ic.ID >= p.nextID {
			p.nextID = ic.ID + 1
		}
	}
	for i, w := range p.Wires {
		if w == nil {
			return diag.Errorf(diag.RuleDocIO, "diagram: pipeline %d has a null wire", p.ID)
		}
		if err := p.wireErr(diag.RuleDocIO, w.From, w.To, w.Delay, p.Wires[:i]); err != nil {
			return err
		}
	}
	return nil
}
