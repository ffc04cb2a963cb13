// Package editor is the graphical-editor engine of the visual
// programming environment (Figure 3, left box). It owns the document,
// provides "the usual operations found in an editor" — insert, modify,
// delete, copy, undo — over graphical rather than textual objects, and
// calls on the checker at every interaction so that illegal inputs are
// rejected the moment they are attempted (§4's error-checking
// philosophy, analogous to syntax-directed editors).
//
// The Sun-3/SunView mouse interface of the 1988 prototype is replaced
// by a command language (see commands.go): every interaction in
// Figures 5–10 — selecting and dragging an icon, rubber-banding a
// wire, filling a popup subwindow — corresponds to one command. The
// message strip across the top of the Figure 5 window is the Event
// log.
package editor

import (
	"bytes"
	"fmt"

	"repro/internal/arch"
	"repro/internal/checker"
	"repro/internal/diagram"
)

// Event is one line of the message strip: the operation attempted and
// the error it produced, if any.
type Event struct {
	Cmd string
	Err string
}

// OK reports whether the event succeeded.
func (e Event) OK() bool { return e.Err == "" }

func (e Event) String() string {
	if e.OK() {
		return "ok: " + e.Cmd
	}
	return "error: " + e.Cmd + ": " + e.Err
}

// Editor binds a document to the machine knowledge base.
type Editor struct {
	Inv *arch.Inventory
	Chk *checker.Checker
	Doc *diagram.Document

	cur  int
	undo []string
	redo []string
	// Log is the message-strip history of the session.
	Log []Event
	// checkCache memoizes per-pipeline check results so interactive
	// re-checks only re-run the passes whose pipeline actually changed.
	checkCache *checker.CheckCache
}

// New returns an editor over a fresh document.
func New(inv *arch.Inventory, docName string) *Editor {
	e := &Editor{Inv: inv, Chk: checker.New(inv), Doc: diagram.NewDocument(docName),
		checkCache: checker.NewCheckCache()}
	e.Doc.AddPipeline("pipe0")
	return e
}

// Open returns an editor over an existing document.
func Open(inv *arch.Inventory, doc *diagram.Document) *Editor {
	e := &Editor{Inv: inv, Chk: checker.New(inv), Doc: doc,
		checkCache: checker.NewCheckCache()}
	if len(doc.Pipes) == 0 {
		doc.AddPipeline("pipe0")
	}
	return e
}

// Current returns the pipeline being edited (the drawing area shows one
// pipeline diagram at a time; control-panel operations scroll between
// them).
func (e *Editor) Current() *diagram.Pipeline { return e.Doc.Pipes[e.cur] }

// CurrentIndex returns the index of the pipeline on display.
func (e *Editor) CurrentIndex() int { return e.cur }

// snapshot serializes the document for the undo stack.
func (e *Editor) snapshot() string {
	var buf bytes.Buffer
	if err := e.Doc.Save(&buf); err != nil {
		panic(fmt.Sprintf("editor: snapshot failed: %v", err))
	}
	return buf.String()
}

func (e *Editor) restore(s string) error {
	doc, err := diagram.Load(bytes.NewReader([]byte(s)))
	if err != nil {
		return err
	}
	e.Doc = doc
	if e.cur >= len(doc.Pipes) {
		e.cur = len(doc.Pipes) - 1
	}
	if e.cur < 0 {
		e.cur = 0
	}
	return nil
}

// mark records the pre-state of a mutating operation and clears the
// redo stack.
func (e *Editor) mark() {
	e.undo = append(e.undo, e.snapshot())
	if len(e.undo) > 256 {
		e.undo = e.undo[1:]
	}
	e.redo = nil
}

// Undo reverts the most recent mutating operation.
func (e *Editor) Undo() error {
	if len(e.undo) == 0 {
		return fmt.Errorf("editor: nothing to undo")
	}
	e.redo = append(e.redo, e.snapshot())
	s := e.undo[len(e.undo)-1]
	e.undo = e.undo[:len(e.undo)-1]
	return e.restore(s)
}

// Redo re-applies the most recently undone operation.
func (e *Editor) Redo() error {
	if len(e.redo) == 0 {
		return fmt.Errorf("editor: nothing to redo")
	}
	e.undo = append(e.undo, e.snapshot())
	s := e.redo[len(e.redo)-1]
	e.redo = e.redo[:len(e.redo)-1]
	return e.restore(s)
}

// --- Pipeline-level control panel operations (§5: "insert, delete,
// copy, and renumber pipelines, as well as to scroll forward or
// backward or jump to a specific pipeline"). ---

// NewPipeline appends an empty pipeline and jumps to it.
func (e *Editor) NewPipeline(label string) *diagram.Pipeline {
	e.mark()
	p := e.Doc.AddPipeline(label)
	e.cur = p.ID
	return p
}

// Jump scrolls the display to pipeline n.
func (e *Editor) Jump(n int) error {
	if n < 0 || n >= len(e.Doc.Pipes) {
		return fmt.Errorf("editor: no pipeline %d", n)
	}
	e.cur = n
	return nil
}

// CopyPipeline duplicates pipeline n as a new pipeline and jumps to it.
func (e *Editor) CopyPipeline(n int) (*diagram.Pipeline, error) {
	src, err := e.Doc.Pipe(n)
	if err != nil {
		return nil, err
	}
	e.mark()
	// Deep-copy through JSON: icons and wires are plain data.
	var buf bytes.Buffer
	tmp := diagram.Document{Pipes: []*diagram.Pipeline{src}}
	if err := tmp.Save(&buf); err != nil {
		return nil, err
	}
	loaded, err := diagram.Load(&buf)
	if err != nil {
		return nil, err
	}
	cp := loaded.Pipes[0]
	cp.ID = len(e.Doc.Pipes)
	cp.Label = src.Label + "-copy"
	e.Doc.Pipes = append(e.Doc.Pipes, cp)
	e.cur = cp.ID
	return cp, nil
}

// MovePipeline renumbers: pipeline `from` takes position `to`, the
// paper's "renumber pipelines" control-panel operation. Control-flow
// references are by label, so they survive renumbering; raw Pipe
// indices in flow ops are remapped.
func (e *Editor) MovePipeline(from, to int) error {
	n := len(e.Doc.Pipes)
	if from < 0 || from >= n || to < 0 || to >= n {
		return fmt.Errorf("editor: renumber %d -> %d outside 0..%d", from, to, n-1)
	}
	if from == to {
		return nil
	}
	e.mark()
	pipes := e.Doc.Pipes
	moved := pipes[from]
	pipes = append(pipes[:from], pipes[from+1:]...)
	rest := make([]*diagram.Pipeline, 0, n)
	rest = append(rest, pipes[:to]...)
	rest = append(rest, moved)
	rest = append(rest, pipes[to:]...)
	// Old index -> new index map for flow references.
	remap := make(map[int]int, n)
	for newIdx, p := range rest {
		remap[p.ID] = newIdx
	}
	for i := range e.Doc.Flow {
		if old := e.Doc.Flow[i].Pipe; old >= 0 {
			e.Doc.Flow[i].Pipe = remap[old]
		}
	}
	for i, p := range rest {
		p.ID = i
	}
	e.Doc.Pipes = rest
	e.cur = remap[e.Doc.Pipes[e.cur].ID]
	if e.cur >= len(rest) {
		e.cur = len(rest) - 1
	}
	return nil
}

// DeletePipeline removes pipeline n and renumbers the rest.
func (e *Editor) DeletePipeline(n int) error {
	if n < 0 || n >= len(e.Doc.Pipes) {
		return fmt.Errorf("editor: no pipeline %d", n)
	}
	if len(e.Doc.Pipes) == 1 {
		return fmt.Errorf("editor: cannot delete the last pipeline")
	}
	e.mark()
	e.Doc.Pipes = append(e.Doc.Pipes[:n], e.Doc.Pipes[n+1:]...)
	for i, p := range e.Doc.Pipes {
		p.ID = i
	}
	if e.cur >= len(e.Doc.Pipes) {
		e.cur = len(e.Doc.Pipes) - 1
	}
	return nil
}

// --- Icon-level operations (Figures 6–10). ---

// Place selects an icon from the control panel and drags it to (x, y):
// Figure 6. The checker vets hardware inventory and plane conflicts
// before the icon lands.
func (e *Editor) Place(kind diagram.IconKind, name string, x, y, plane int) (*diagram.Icon, error) {
	p := e.Current()
	if err := e.Chk.CanPlace(p, kind, plane); err != nil {
		return nil, err
	}
	e.mark()
	ic, err := p.AddIcon(kind, name, x, y)
	if err != nil {
		e.undoLastMark()
		return nil, err
	}
	ic.Plane = plane
	return ic, nil
}

// undoLastMark drops the most recent undo entry after a failed
// operation that turned out not to mutate.
func (e *Editor) undoLastMark() {
	if len(e.undo) > 0 {
		e.undo = e.undo[:len(e.undo)-1]
	}
}

// Move drags an existing icon to a new position (display data only).
func (e *Editor) Move(name string, x, y int) error {
	ic, err := e.Current().IconByName(name)
	if err != nil {
		return err
	}
	e.mark()
	ic.X, ic.Y = x, y
	return nil
}

// Delete removes an icon and its wires.
func (e *Editor) Delete(name string) error {
	ic, err := e.Current().IconByName(name)
	if err != nil {
		return err
	}
	e.mark()
	return e.Current().RemoveIcon(ic.ID)
}

// resolvePad parses "name.pad" or "name.u0.a" into a PadRef.
func (e *Editor) resolvePad(ref string) (diagram.PadRef, error) {
	p := e.Current()
	dot := -1
	for i := 0; i < len(ref); i++ {
		if ref[i] == '.' {
			dot = i
			break
		}
	}
	if dot <= 0 || dot == len(ref)-1 {
		return diagram.PadRef{}, fmt.Errorf("editor: pad reference %q is not name.pad", ref)
	}
	ic, err := p.IconByName(ref[:dot])
	if err != nil {
		return diagram.PadRef{}, err
	}
	pad := ref[dot+1:]
	if _, ok := ic.Kind.PadDir(pad); !ok {
		return diagram.PadRef{}, fmt.Errorf("editor: %s has no pad %q", ic.Name, pad)
	}
	return diagram.PadRef{Icon: ic.ID, Pad: pad}, nil
}

// Connect rubber-bands a wire between two pads (Figure 8). "The
// checker is used during this operation to ensure that only legal
// connections are attempted."
func (e *Editor) Connect(from, to string, delay int) error {
	fp, err := e.resolvePad(from)
	if err != nil {
		return err
	}
	tp, err := e.resolvePad(to)
	if err != nil {
		return err
	}
	if err := e.Chk.CanConnect(e.Current(), fp, tp, delay); err != nil {
		return err
	}
	e.mark()
	if _, err := e.Current().Connect(fp, tp, delay); err != nil {
		e.undoLastMark()
		return err
	}
	return nil
}

// Disconnect removes the wire ending at the pad.
func (e *Editor) Disconnect(at string) error {
	pr, err := e.resolvePad(at)
	if err != nil {
		return err
	}
	e.mark()
	if err := e.Current().Disconnect(pr); err != nil {
		e.undoLastMark()
		return err
	}
	return nil
}

// SetOp fills the Figure 10 popup: assign an operation (and optional
// constants or reduction mode) to one functional unit of an ALS icon.
func (e *Editor) SetOp(iconName string, slot int, u diagram.UnitConfig) error {
	ic, err := e.Current().IconByName(iconName)
	if err != nil {
		return err
	}
	if slot < 0 || slot >= ic.Kind.ActiveUnits() {
		return fmt.Errorf("editor: %s has no unit %d", iconName, slot)
	}
	if err := e.Chk.CanSetOp(ic, slot, u); err != nil {
		return err
	}
	e.mark()
	ic.Units[slot] = u
	return nil
}

// SetDMA fills the Figure 9 popup subwindow: plane number, variable
// name or starting address, stride, etc. dir is "rd" or "wr".
func (e *Editor) SetDMA(iconName, dir string, spec diagram.DMASpec) error {
	ic, err := e.Current().IconByName(iconName)
	if err != nil {
		return err
	}
	if err := e.Chk.CanSetDMA(e.Doc, ic, spec); err != nil {
		return err
	}
	e.mark()
	switch dir {
	case "rd":
		ic.RdDMA = &spec
	case "wr":
		ic.WrDMA = &spec
	default:
		e.undoLastMark()
		return fmt.Errorf("editor: DMA direction %q (rd or wr)", dir)
	}
	return nil
}

// SetTaps configures a shift/delay unit's tap delays.
func (e *Editor) SetTaps(iconName string, taps []int) error {
	ic, err := e.Current().IconByName(iconName)
	if err != nil {
		return err
	}
	if err := e.Chk.CanSetTaps(ic, taps); err != nil {
		return err
	}
	e.mark()
	ic.Taps = append([]int(nil), taps...)
	return nil
}

// SetCompare attaches the convergence comparison to the current
// pipeline.
func (e *Editor) SetCompare(iconName string, slot int, op string, threshold float64, flag int) error {
	ic, err := e.Current().IconByName(iconName)
	if err != nil {
		return err
	}
	if err := checker.CheckFinite("compare threshold", threshold); err != nil {
		return err
	}
	e.mark()
	e.Current().Compare = &diagram.CompareSpec{Icon: ic.ID, Slot: slot, Op: op, Threshold: threshold, Flag: flag}
	if ds := e.Chk.CheckPipeline(e.Doc, e.Current()); hasRule(ds, checker.RuleCompareSpec) {
		// Roll back an invalid spec immediately.
		if err := e.Undo(); err != nil {
			return err
		}
		return fmt.Errorf("editor: invalid compare specification")
	}
	return nil
}

func hasRule(ds []checker.Diagnostic, rule string) bool {
	for _, d := range ds {
		if d.Rule == rule {
			return true
		}
	}
	return false
}

// Declare records a variable declaration (the left region of the
// Figure 5 window).
func (e *Editor) Declare(v diagram.VarDecl) error {
	if v.Name == "" {
		return fmt.Errorf("editor: variable needs a name")
	}
	if v.Plane < 0 || v.Plane >= e.Inv.Cfg.MemPlanes {
		return fmt.Errorf("editor: variable plane %d outside 0..%d", v.Plane, e.Inv.Cfg.MemPlanes-1)
	}
	if v.Len <= 0 || v.Base < 0 || v.Base+v.Len > e.Inv.Cfg.PlaneWords() {
		return fmt.Errorf("editor: variable %q does not fit its plane", v.Name)
	}
	e.mark()
	e.Doc.Declare(v)
	return nil
}

// AddFlow appends a control-flow op (the control flow region of the
// Figure 5 window).
func (e *Editor) AddFlow(op diagram.FlowOp) error {
	if op.Pipe != -1 {
		if _, err := e.Doc.Pipe(op.Pipe); err != nil {
			return err
		}
	}
	e.mark()
	e.Doc.Flow = append(e.Doc.Flow, op)
	return nil
}

// Check runs the full checker over the document and returns all
// diagnostics (the "more extensive checking ... when the visual
// representations are translated to microcode" is the generator's
// call; this is the on-demand variant). Per-pipeline results are
// served from the editor's incremental check cache: pipelines the
// session has not touched since the last Check are not re-checked.
func (e *Editor) Check() []checker.Diagnostic {
	return e.checkCache.CheckDocument(e.Chk, e.Doc)
}

// CheckCacheStats reports the incremental check cache's counters: how
// many per-pipeline checks were replayed versus re-run.
func (e *Editor) CheckCacheStats() checker.CheckCacheStats {
	return e.checkCache.Stats()
}

// logf appends to the message strip and passes the error through.
func (e *Editor) logf(err error, format string, args ...any) error {
	ev := Event{Cmd: fmt.Sprintf(format, args...)}
	if err != nil {
		ev.Err = err.Error()
	}
	e.Log = append(e.Log, ev)
	return err
}
