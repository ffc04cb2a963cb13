package editor

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/checker"
	"repro/internal/diag"
	"repro/internal/diagram"
)

func newEd(t testing.TB) *Editor {
	t.Helper()
	return New(arch.MustInventory(arch.Default()), "test")
}

func must(t testing.TB, _ string, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestPlaceAndInventoryVeto(t *testing.T) {
	e := newEd(t)
	for i := 0; i < 4; i++ {
		if _, err := e.Place(diagram.IconTriplet, "T"+strings.Repeat("x", i), 0, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Place(diagram.IconTriplet, "T5", 0, 0, 0); err == nil {
		t.Fatal("5th triplet placed")
	}
	// The failed placement must not appear in the document.
	if got := e.Current().CountKind(diagram.IconTriplet); got != 4 {
		t.Errorf("triplets in diagram = %d", got)
	}
}

func TestPlaceDuplicatePlaneVeto(t *testing.T) {
	e := newEd(t)
	if _, err := e.Place(diagram.IconMemPlane, "M0", 0, 0, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Place(diagram.IconMemPlane, "M1", 0, 0, 3); err == nil {
		t.Fatal("duplicate plane placed")
	}
}

func TestConnectCheckerVeto(t *testing.T) {
	e := newEd(t)
	if _, err := e.Place(diagram.IconSinglet, "S", 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Place(diagram.IconSDU, "Z", 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	// FU output into SDU input is illegal (R004) and must be rejected
	// at rubber-band time.
	if err := e.Connect("S.u0.o", "Z.in", 0); err == nil {
		t.Fatal("illegal connection accepted")
	}
	if len(e.Current().Wires) != 0 {
		t.Error("rejected connection left a wire behind")
	}
}

func TestUndoRedoCycle(t *testing.T) {
	e := newEd(t)
	if _, err := e.Place(diagram.IconSinglet, "S", 5, 5, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.Move("S", 9, 9); err != nil {
		t.Fatal(err)
	}
	ic, _ := e.Current().IconByName("S")
	if ic.X != 9 {
		t.Fatal("move did not apply")
	}
	if err := e.Undo(); err != nil {
		t.Fatal(err)
	}
	ic, _ = e.Current().IconByName("S")
	if ic.X != 5 {
		t.Errorf("undo: x = %d, want 5", ic.X)
	}
	if err := e.Redo(); err != nil {
		t.Fatal(err)
	}
	ic, _ = e.Current().IconByName("S")
	if ic.X != 9 {
		t.Errorf("redo: x = %d, want 9", ic.X)
	}
	// Undo the placement entirely.
	must(t, "", e.Undo())
	must(t, "", e.Undo())
	if _, err := e.Current().IconByName("S"); err == nil {
		t.Error("icon survives double undo")
	}
	if err := e.Undo(); err == nil {
		t.Error("empty undo stack accepted")
	}
}

func TestRedoClearedByNewEdit(t *testing.T) {
	e := newEd(t)
	if _, err := e.Place(diagram.IconSinglet, "A", 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	must(t, "", e.Undo())
	if _, err := e.Place(diagram.IconSinglet, "B", 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.Redo(); err == nil {
		t.Error("redo after a fresh edit should fail")
	}
}

func TestPipelineOps(t *testing.T) {
	e := newEd(t)
	p1 := e.NewPipeline("second")
	if e.CurrentIndex() != p1.ID {
		t.Error("new pipeline not current")
	}
	if _, err := e.Place(diagram.IconSinglet, "S", 1, 2, 0); err != nil {
		t.Fatal(err)
	}
	cp, err := e.CopyPipeline(p1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cp.IconByName("S"); err != nil {
		t.Error("copy lost the icon")
	}
	// The copy is independent.
	if err := e.Move("S", 7, 7); err != nil {
		t.Fatal(err)
	}
	orig, _ := p1.IconByName("S")
	if orig.X == 7 {
		t.Error("copy shares icons with the original")
	}
	if err := e.DeletePipeline(cp.ID); err != nil {
		t.Fatal(err)
	}
	if len(e.Doc.Pipes) != 2 {
		t.Errorf("pipes = %d", len(e.Doc.Pipes))
	}
	if err := e.Jump(0); err != nil {
		t.Fatal(err)
	}
	if err := e.Jump(9); err == nil {
		t.Error("jump to missing pipeline accepted")
	}
	if err := e.DeletePipeline(5); err == nil {
		t.Error("delete of missing pipeline accepted")
	}
}

func TestDeleteLastPipelineRefused(t *testing.T) {
	e := newEd(t)
	if err := e.DeletePipeline(0); err == nil {
		t.Error("deleted the last pipeline")
	}
}

func TestDeclareValidation(t *testing.T) {
	e := newEd(t)
	if err := e.Declare(diagram.VarDecl{Name: "u", Plane: 0, Base: 0, Len: 100}); err != nil {
		t.Fatal(err)
	}
	if err := e.Declare(diagram.VarDecl{Name: "", Plane: 0, Len: 10}); err == nil {
		t.Error("anonymous variable accepted")
	}
	if err := e.Declare(diagram.VarDecl{Name: "x", Plane: 99, Len: 10}); err == nil {
		t.Error("variable on plane 99 accepted")
	}
	if err := e.Declare(diagram.VarDecl{Name: "x", Plane: 0, Len: 0}); err == nil {
		t.Error("zero-length variable accepted")
	}
	if err := e.Declare(diagram.VarDecl{Name: "x", Plane: 0, Base: 1, Len: e.Inv.Cfg.PlaneWords()}); err == nil {
		t.Error("plane-overflowing variable accepted")
	}
}

func TestSetOpVetoAndApply(t *testing.T) {
	e := newEd(t)
	if _, err := e.Place(diagram.IconTriplet, "T", 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.SetOp("T", 1, diagram.UnitConfig{Op: arch.OpIAdd}); err == nil {
		t.Error("integer op on slot 1 accepted")
	}
	if err := e.SetOp("T", 0, diagram.UnitConfig{Op: arch.OpIAdd}); err != nil {
		t.Fatal(err)
	}
	if err := e.SetOp("T", 9, diagram.UnitConfig{Op: arch.OpAdd}); err == nil {
		t.Error("slot 9 accepted")
	}
	if err := e.SetOp("nope", 0, diagram.UnitConfig{Op: arch.OpAdd}); err == nil {
		t.Error("missing icon accepted")
	}
	ic, _ := e.Current().IconByName("T")
	if ic.Units[0].Op != arch.OpIAdd {
		t.Error("op not applied")
	}
}

func TestSetDMAVeto(t *testing.T) {
	e := newEd(t)
	must(t, "", e.Declare(diagram.VarDecl{Name: "u", Plane: 2, Base: 0, Len: 100}))
	if _, err := e.Place(diagram.IconMemPlane, "M", 0, 0, 2); err != nil {
		t.Fatal(err)
	}
	if err := e.SetDMA("M", "rd", diagram.DMASpec{Var: "u", Stride: 1, Count: 101}); err == nil {
		t.Error("overrun DMA accepted")
	}
	if err := e.SetDMA("M", "rd", diagram.DMASpec{Var: "u", Stride: 1, Count: 100}); err != nil {
		t.Fatal(err)
	}
	if err := e.SetDMA("M", "sideways", diagram.DMASpec{Var: "u", Stride: 1, Count: 10}); err == nil {
		t.Error("direction 'sideways' accepted")
	}
	ic, _ := e.Current().IconByName("M")
	if ic.RdDMA == nil || ic.RdDMA.Count != 100 {
		t.Error("DMA not applied")
	}
}

func TestSetCompareRollsBackInvalid(t *testing.T) {
	e := newEd(t)
	if _, err := e.Place(diagram.IconSinglet, "S", 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	must(t, "", e.SetOp("S", 0, diagram.UnitConfig{Op: arch.OpAdd, Reduce: true}))
	if err := e.SetCompare("S", 0, "lt", 1e-6, 1); err != nil {
		t.Fatal(err)
	}
	if e.Current().Compare == nil {
		t.Fatal("compare not set")
	}
	// Invalid: non-reducing unit.
	e2 := newEd(t)
	if _, err := e2.Place(diagram.IconSinglet, "S", 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	must(t, "", e2.SetOp("S", 0, diagram.UnitConfig{Op: arch.OpAdd}))
	if err := e2.SetCompare("S", 0, "lt", 1e-6, 1); err == nil {
		t.Error("compare on non-reducing unit accepted")
	}
	if e2.Current().Compare != nil {
		t.Error("invalid compare left in document")
	}
}

// TestNonFiniteValuesRejected: a NaN or ±Inf constant or compare
// threshold is an R041 diagnostic raised before the undo stack is
// marked, so every document the editor holds stays savable and the
// session goes on. Had the second script line stored its NaN, the
// third line's undo snapshot could not serialize the document.
func TestNonFiniteValuesRejected(t *testing.T) {
	e := newEd(t)
	isNonFinite := func(err error) bool {
		var de *diag.DiagError
		return errors.As(err, &de) && de.Rule() == diag.RuleNonFinite
	}
	for i, line := range []string{
		"place singlet S at 1 1",
		"op S.u0 add consta=NaN",
		"place singlet S2 at 5 5",
		"op S.u0 add reduce",
	} {
		_, err := e.Exec(line)
		if i == 1 != isNonFinite(err) {
			t.Fatalf("%q: err = %v", line, err)
		}
	}
	if err := e.SetCompare("S", 0, "lt", math.Inf(-1), 1); !isNonFinite(err) {
		t.Errorf("-Inf threshold: err = %v, want %s", err, diag.RuleNonFinite)
	}
	if e.Current().Compare != nil {
		t.Error("rejected compare left in the document")
	}
	var buf bytes.Buffer
	if err := e.Doc.Save(&buf); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := e.Undo(); err != nil {
			t.Fatalf("undo %d: %v", i, err)
		}
	}
	if len(e.Current().Icons) != 0 || e.Undo() == nil {
		t.Errorf("three undos left %d icons and more history", len(e.Current().Icons))
	}
}

func TestMessageStripLogsEverything(t *testing.T) {
	e := newEd(t)
	if _, err := e.Exec("place singlet S at 3 4"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec("place singlet S at 3 4"); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if len(e.Log) != 2 {
		t.Fatalf("log entries = %d, want 2", len(e.Log))
	}
	if !e.Log[0].OK() || e.Log[1].OK() {
		t.Errorf("log = %v", e.Log)
	}
	if !strings.Contains(e.Log[1].String(), "error") {
		t.Errorf("error event renders as %q", e.Log[1].String())
	}
}

// TestCommandScriptBuildsRunnablePipeline drives the full command
// language through a SAXPY build.
func TestCommandScript(t *testing.T) {
	e := newEd(t)
	script := `
# declarations (left region of the Figure 5 window)
doc saxpy
var u plane=0 base=0 len=4096
var w plane=1 base=0 len=4096
var v plane=2 base=0 len=4096

# Figure 6/7: place icons
place memplane Mu at 2 4 plane=0
place memplane Mw at 2 12 plane=1
place memplane Mv at 44 8 plane=2
place doublet D1 at 20 6
place singlet R1 at 32 14

# Figure 10: program function units
op D1.u0 mul constb=2.5
op D1.u1 add
op R1.u0 add reduce init=0

# Figure 8: wire the pipeline
connect Mu.rd -> D1.u0.a
connect D1.u0.o -> D1.u1.a
connect Mw.rd -> D1.u1.b
connect D1.u1.o -> Mv.wr
connect D1.u1.o -> R1.u0.a

# Figure 9: DMA subwindows
dma Mu rd var=u stride=1 count=1000
dma Mw rd var=w stride=1 count=1000
dma Mv wr var=v stride=1 count=1000

compare R1.u0 gt 100 flag=3
flow label=go pipe=0 cond=halt
check
`
	events, err := e.ExecScript(strings.NewReader(script), false)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if !ev.OK() {
			t.Errorf("event failed: %s", ev)
		}
	}
	diags := e.Check()
	if es := checker.Errors(diags); len(es) > 0 {
		t.Errorf("script-built document has errors: %v", es)
	}
	p := e.Current()
	if len(p.Icons) != 5 || len(p.Wires) != 5 {
		t.Errorf("icons=%d wires=%d", len(p.Icons), len(p.Wires))
	}
	if p.Compare == nil || p.Compare.Flag != 3 {
		t.Error("compare not recorded")
	}
	if len(e.Doc.Flow) != 1 {
		t.Error("flow not recorded")
	}
}

func TestCommandErrors(t *testing.T) {
	e := newEd(t)
	bad := []string{
		"bogus",
		"doc",
		"var",
		"var x plane=zz",
		"place nosuchkind X at 0 0",
		"place singlet X at a b",
		"place singlet",
		"move X to 0 0",
		"move X 0 0",
		"delete",
		"delete ghost",
		"connect a -> ",
		"connect a b c",
		"disconnect",
		"dma M",
		"taps Z",
		"taps Z x",
		"op Z",
		"op Z.u0 nosuchop",
		"op noslot add",
		"compare Z.u0 lt",
		"compare Z.u0 lt abc",
		"irq maybe",
		"flow pipe=99",
		"pipe",
		"pipe zz",
		"undo",
		"redo",
	}
	for _, cmd := range bad {
		if _, err := e.Exec(cmd); err == nil {
			t.Errorf("command %q accepted", cmd)
		}
	}
	// Comments and blanks are silent successes.
	if _, err := e.Exec("# comment"); err != nil {
		t.Error(err)
	}
	if _, err := e.Exec("   "); err != nil {
		t.Error(err)
	}
}

func TestExecScriptKeepGoing(t *testing.T) {
	e := newEd(t)
	script := "place singlet A at 0 0\nbogus command\nplace singlet B at 1 1\n"
	events, err := e.ExecScript(strings.NewReader(script), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("events = %d", len(events))
	}
	if events[1].OK() {
		t.Error("bogus command marked ok")
	}
	if _, err := e.Current().IconByName("B"); err != nil {
		t.Error("keepGoing did not continue past the error")
	}
	// Stop-on-error variant.
	e2 := newEd(t)
	if _, err := e2.ExecScript(strings.NewReader(script), false); err == nil {
		t.Error("stop-on-error did not report")
	}
}

func TestIrqAndFlowCommands(t *testing.T) {
	e := newEd(t)
	if _, err := e.Exec("irq on"); err != nil {
		t.Fatal(err)
	}
	if !e.Current().IRQ {
		t.Error("irq not set")
	}
	if _, err := e.Exec("flow label=done pipe=-1 cond=halt"); err != nil {
		t.Fatal(err)
	}
	if len(e.Doc.Flow) != 1 || e.Doc.Flow[0].Cond != diagram.CondHalt {
		t.Error("flow op wrong")
	}
	if _, err := e.Exec("flow pipe=0 cond=sideways"); err == nil {
		t.Error("bad cond accepted")
	}
}

func TestOpenExistingDocument(t *testing.T) {
	doc := diagram.NewDocument("ext")
	e := Open(arch.MustInventory(arch.Default()), doc)
	if len(e.Doc.Pipes) != 1 {
		t.Error("Open did not provide a pipeline")
	}
	doc2 := diagram.NewDocument("ext2")
	doc2.AddPipeline("a")
	doc2.AddPipeline("b")
	e2 := Open(arch.MustInventory(arch.Default()), doc2)
	if len(e2.Doc.Pipes) != 2 {
		t.Error("Open disturbed existing pipelines")
	}
}

func TestCheckCommandReportsFindings(t *testing.T) {
	e := newEd(t)
	if _, err := e.Exec("place singlet S at 0 0"); err != nil {
		t.Fatal(err)
	}
	msg, err := e.Exec("check")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(msg, "R015") {
		t.Errorf("check output missing unused-icon warning: %q", msg)
	}
	e2 := newEd(t)
	msg, _ = e2.Exec("check")
	if !strings.Contains(msg, "clean") {
		t.Errorf("empty document check = %q", msg)
	}
}

func TestMovePipelineRenumbers(t *testing.T) {
	e := newEd(t)
	e.NewPipeline("b") // 1
	e.NewPipeline("c") // 2
	if err := e.AddFlow(diagram.FlowOp{Label: "x", Pipe: 2}); err != nil {
		t.Fatal(err)
	}
	if err := e.MovePipeline(2, 0); err != nil {
		t.Fatal(err)
	}
	if e.Doc.Pipes[0].Label != "c" || e.Doc.Pipes[1].Label != "pipe0" || e.Doc.Pipes[2].Label != "b" {
		t.Errorf("order after move: %s %s %s", e.Doc.Pipes[0].Label, e.Doc.Pipes[1].Label, e.Doc.Pipes[2].Label)
	}
	for i, p := range e.Doc.Pipes {
		if p.ID != i {
			t.Errorf("pipe %d has ID %d", i, p.ID)
		}
	}
	// The flow reference followed the pipeline.
	if e.Doc.Flow[0].Pipe != 0 {
		t.Errorf("flow pipe = %d, want 0", e.Doc.Flow[0].Pipe)
	}
	// Current pipeline still points at "c" (which we were editing).
	if e.Current().Label != "c" {
		t.Errorf("current = %s", e.Current().Label)
	}
	if err := e.MovePipeline(0, 9); err == nil {
		t.Error("out-of-range move accepted")
	}
	if err := e.MovePipeline(1, 1); err != nil {
		t.Error("no-op move rejected")
	}
	// Command form.
	if _, err := e.Exec("pipe move 0 2"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec("pipe move zero two"); err == nil {
		t.Error("non-numeric move accepted")
	}
}

// TestCommandFuzzNeverPanics throws random token soup at the command
// interpreter: every line must either apply cleanly or return an
// error — never panic, and never leave the document in a state the
// checker's full pass rejects with an internal inconsistency.
func TestCommandFuzzNeverPanics(t *testing.T) {
	words := []string{
		"place", "connect", "op", "dma", "taps", "var", "pipe", "move",
		"delete", "disconnect", "compare", "flow", "undo", "redo", "check",
		"irq", "doc", "singlet", "doublet", "triplet", "memplane", "cache",
		"sdu", "S", "T", "M", "Z", "at", "->", "rd", "wr", "u0.a", "u0.o",
		"S.u0", "T.u0.a", "M.rd", "add", "mul", "iadd", "maxabs", "new",
		"copy", "plane=0", "plane=99", "count=10", "stride=1", "var=u",
		"constb=2", "reduce", "delay=3", "flag=1", "0", "1", "7", "-1",
		"lt", "on", "off", "label=x", "pipe=0", "cond=halt",
	}
	rng := rand.New(rand.NewSource(7))
	e := newEd(t)
	for i := 0; i < 4000; i++ {
		n := 1 + rng.Intn(6)
		var sb strings.Builder
		for w := 0; w < n; w++ {
			if w > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(words[rng.Intn(len(words))])
		}
		// Must not panic; errors are fine.
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("command %q panicked: %v", sb.String(), r)
				}
			}()
			_, _ = e.Exec(sb.String())
		}()
	}
	// Whatever survived the fuzz session, the full checker pass must
	// run without panicking too.
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("checker panicked on fuzzed document: %v", r)
			}
		}()
		_ = e.Check()
	}()
}
