package codegen

import (
	"math"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/checker"
	"repro/internal/diagram"
	"repro/internal/microcode"
	"repro/internal/sim"
)

func gen(t testing.TB) *Generator {
	t.Helper()
	return New(arch.MustInventory(arch.Default()))
}

// document compiles d through the three stages pipeline.CompileDocument
// runs — the document check, Lower and Validate — called directly.
func document(g *Generator, d *diagram.Document) (*microcode.Program, *Report, error) {
	ds, ans := g.Chk.Check(d)
	if es := checker.Errors(ds); len(es) > 0 {
		return nil, nil, &CheckError{Diags: es}
	}
	prog, rep, err := g.Lower(d, ans)
	if err != nil {
		return nil, nil, err
	}
	return prog, rep, g.Validate(prog)
}

// buildSAXPY: v = a*u + w, with a sum reduction and convergence compare.
func buildSAXPY(t testing.TB, a float64, count int64) (*diagram.Document, *diagram.Pipeline) {
	t.Helper()
	d := diagram.NewDocument("saxpy")
	d.Declare(diagram.VarDecl{Name: "u", Plane: 0, Base: 100, Len: 4096})
	d.Declare(diagram.VarDecl{Name: "w", Plane: 1, Base: 200, Len: 4096})
	d.Declare(diagram.VarDecl{Name: "v", Plane: 2, Base: 300, Len: 4096})
	p := d.AddPipeline("saxpy")
	mu, _ := p.AddIcon(diagram.IconMemPlane, "Mu", 0, 2)
	mu.Plane = 0
	mu.RdDMA = &diagram.DMASpec{Var: "u", Stride: 1, Count: count}
	mw, _ := p.AddIcon(diagram.IconMemPlane, "Mw", 0, 8)
	mw.Plane = 1
	mw.RdDMA = &diagram.DMASpec{Var: "w", Stride: 1, Count: count}
	mv, _ := p.AddIcon(diagram.IconMemPlane, "Mv", 40, 5)
	mv.Plane = 2
	mv.WrDMA = &diagram.DMASpec{Var: "v", Stride: 1, Count: count}
	db, _ := p.AddIcon(diagram.IconDoublet, "D1", 20, 4)
	db.Units[0] = diagram.UnitConfig{Op: arch.OpMul, ConstB: &a}
	db.Units[1] = diagram.UnitConfig{Op: arch.OpAdd}
	rg, _ := p.AddIcon(diagram.IconSinglet, "R1", 30, 10)
	rg.Units[0] = diagram.UnitConfig{Op: arch.OpAdd, Reduce: true}

	conn := func(fi *diagram.Icon, fp string, ti *diagram.Icon, tp string) {
		t.Helper()
		if _, err := p.Connect(diagram.PadRef{Icon: fi.ID, Pad: fp}, diagram.PadRef{Icon: ti.ID, Pad: tp}, 0); err != nil {
			t.Fatal(err)
		}
	}
	conn(mu, "rd", db, "u0.a")
	conn(db, "u0.o", db, "u1.a")
	conn(mw, "rd", db, "u1.b")
	conn(db, "u1.o", mv, "wr")
	conn(db, "u1.o", rg, "u0.a")
	p.Compare = &diagram.CompareSpec{Icon: rg.ID, Slot: 0, Op: "gt", Threshold: 100, Flag: 3}
	return d, p
}

func TestPipelineGeneratesRunnableMicrocode(t *testing.T) {
	g := gen(t)
	d, p := buildSAXPY(t, 2.0, 500)
	in, info, err := g.Pipeline(d, p)
	if err != nil {
		t.Fatal(err)
	}
	if info.FUsUsed != 3 {
		t.Errorf("FUs used = %d, want 3", info.FUsUsed)
	}
	if info.VectorLen != 500 {
		t.Errorf("vector len = %d", info.VectorLen)
	}
	if info.FillCycles <= 0 {
		t.Errorf("fill cycles = %d", info.FillCycles)
	}
	if info.FLOPsPerElement != 3 {
		t.Errorf("FLOPs/element = %d, want 3 (mul+add+reduce-add)", info.FLOPsPerElement)
	}

	// Execute: v[i] = 2*u[i] + w[i].
	n := sim.MustNode(arch.Default())
	u := make([]float64, 500)
	w := make([]float64, 500)
	for i := range u {
		u[i] = float64(i)
		w[i] = 1000 - float64(i)
	}
	if err := n.WriteWords(0, 100, u); err != nil {
		t.Fatal(err)
	}
	if err := n.WriteWords(1, 200, w); err != nil {
		t.Fatal(err)
	}
	if err := n.Exec(in); err != nil {
		t.Fatal(err)
	}
	got, _ := n.ReadWords(2, 300, 500)
	for i := range got {
		want := 2*u[i] + w[i]
		if got[i] != want {
			t.Fatalf("v[%d] = %v, want %v", i, got[i], want)
		}
	}
	// Reduction: Σ(2u+w) = Σ(i + 1000) = 500*1000 + Σi.
	var wantSum float64
	for i := range u {
		wantSum += 2*u[i] + w[i]
	}
	// Flag 3 set since sum > 100.
	if !n.Flag(3) {
		t.Error("compare flag not set")
	}
	_ = wantSum
}

func TestPipelineRefusesBrokenDiagram(t *testing.T) {
	g := gen(t)
	d, p := buildSAXPY(t, 2.0, 500)
	db, _ := p.IconByName("D1")
	if err := p.Disconnect(diagram.PadRef{Icon: db.ID, Pad: "u1.b"}); err != nil {
		t.Fatal(err)
	}
	_, _, err := g.Pipeline(d, p)
	if err == nil {
		t.Fatal("broken diagram generated")
	}
	ce, ok := err.(*CheckError)
	if !ok {
		t.Fatalf("error type %T, want *CheckError", err)
	}
	if len(ce.Diags) == 0 || !strings.Contains(ce.Error(), "R011") {
		t.Errorf("CheckError lacks rule detail: %v", ce)
	}
}

func TestTimingBalancedAgainstDeepPaths(t *testing.T) {
	// u0.o (mul, lat 4) joins mem (lat 0) at the adder: the generator
	// must insert the balancing delay the paper's users computed by
	// hand, and the simulated result must equal the ideal semantics.
	g := gen(t)
	d, p := buildSAXPY(t, 3.0, 64)
	in, _, err := g.Pipeline(d, p)
	if err != nil {
		t.Fatal(err)
	}
	// Find the adder's B input hardware delay: the doublet maps to the
	// first physical doublet, whose units follow the 4 triplets
	// (FU 12, 13).
	kind, _, delay := in.FUInput(13, 1)
	if kind != microcode.InSwitch {
		t.Fatalf("adder B kind = %v", kind)
	}
	if delay != arch.OpMul.Info().Latency {
		t.Errorf("adder B delay = %d, want mul latency %d", delay, arch.OpMul.Info().Latency)
	}
}

func TestWireDelayBecomesElementShift(t *testing.T) {
	// v[i] = u[i] - u[i-1] via a wire delay of 1 on the B side.
	g := gen(t)
	d := diagram.NewDocument("diff")
	d.Declare(diagram.VarDecl{Name: "u", Plane: 0, Base: 0, Len: 128})
	d.Declare(diagram.VarDecl{Name: "v", Plane: 1, Base: 0, Len: 128})
	p := d.AddPipeline("diff")
	mu, _ := p.AddIcon(diagram.IconMemPlane, "Mu", 0, 0)
	mu.Plane = 0
	mu.RdDMA = &diagram.DMASpec{Var: "u", Stride: 1, Count: 100}
	mv, _ := p.AddIcon(diagram.IconMemPlane, "Mv", 0, 0)
	mv.Plane = 1
	mv.WrDMA = &diagram.DMASpec{Var: "v", Stride: 1, Count: 99, Skip: 1}
	s, _ := p.AddIcon(diagram.IconSinglet, "S", 0, 0)
	s.Units[0] = diagram.UnitConfig{Op: arch.OpSub}
	if _, err := p.Connect(diagram.PadRef{Icon: mu.ID, Pad: "rd"}, diagram.PadRef{Icon: s.ID, Pad: "u0.a"}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Connect(diagram.PadRef{Icon: mu.ID, Pad: "rd"}, diagram.PadRef{Icon: s.ID, Pad: "u0.b"}, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Connect(diagram.PadRef{Icon: s.ID, Pad: "u0.o"}, diagram.PadRef{Icon: mv.ID, Pad: "wr"}, 0); err != nil {
		t.Fatal(err)
	}
	in, _, err := g.Pipeline(d, p)
	if err != nil {
		t.Fatal(err)
	}
	n := sim.MustNode(arch.Default())
	u := make([]float64, 100)
	for i := range u {
		u[i] = float64(i * i)
	}
	if err := n.WriteWords(0, 0, u); err != nil {
		t.Fatal(err)
	}
	if err := n.Exec(in); err != nil {
		t.Fatal(err)
	}
	got, _ := n.ReadWords(1, 0, 99)
	for i := 0; i < 99; i++ {
		// Element e = i+1 of the output stream: u[e] - u[e-1].
		want := u[i+1] - u[i]
		if got[i] != want {
			t.Fatalf("diff[%d] = %v, want %v", i, got[i], want)
		}
	}
}

func TestSDUPipelineEndToEnd(t *testing.T) {
	// Three-point moving sum via SDU taps 0,1,2: out[j] = u[j]+u[j+1]+u[j+2].
	g := gen(t)
	d := diagram.NewDocument("sdu3")
	d.Declare(diagram.VarDecl{Name: "u", Plane: 0, Base: 0, Len: 256})
	d.Declare(diagram.VarDecl{Name: "v", Plane: 1, Base: 0, Len: 256})
	p := d.AddPipeline("sum3")
	mu, _ := p.AddIcon(diagram.IconMemPlane, "Mu", 0, 0)
	mu.Plane = 0
	mu.RdDMA = &diagram.DMASpec{Var: "u", Stride: 1, Count: 100}
	z, _ := p.AddIcon(diagram.IconSDU, "Z", 0, 0)
	z.Taps = []int{0, 1, 2}
	a1, _ := p.AddIcon(diagram.IconDoublet, "A", 0, 0)
	a1.Units[0] = diagram.UnitConfig{Op: arch.OpAdd}
	a1.Units[1] = diagram.UnitConfig{Op: arch.OpAdd}
	mv, _ := p.AddIcon(diagram.IconMemPlane, "Mv", 0, 0)
	mv.Plane = 1
	// Deepest tap delay is 2: output element e corresponds to u[e-2] at
	// tap 2 and u[e] at tap 0 — the moving window ending at e. Valid
	// windows start at e=2.
	mv.WrDMA = &diagram.DMASpec{Var: "v", Stride: 1, Count: 98, Skip: 2}
	conn := func(fi *diagram.Icon, fp string, ti *diagram.Icon, tp string, delay int) {
		t.Helper()
		if _, err := p.Connect(diagram.PadRef{Icon: fi.ID, Pad: fp}, diagram.PadRef{Icon: ti.ID, Pad: tp}, delay); err != nil {
			t.Fatal(err)
		}
	}
	conn(mu, "rd", z, "in", 0)
	// Taps carry intrinsic shifts: tap k's stream element e = u[e-k].
	// To sum u[e], u[e-1], u[e-2] no wire delays are needed: tap
	// streams are already aligned element-for-element.
	conn(z, "t0", a1, "u0.a", 0)
	conn(z, "t1", a1, "u0.b", 0)
	conn(a1, "u0.o", a1, "u1.a", 0)
	conn(z, "t2", a1, "u1.b", 0)
	conn(a1, "u1.o", mv, "wr", 0)
	in, _, err := g.Pipeline(d, p)
	if err != nil {
		t.Fatal(err)
	}
	n := sim.MustNode(arch.Default())
	u := make([]float64, 100)
	for i := range u {
		u[i] = float64(i + 1)
	}
	if err := n.WriteWords(0, 0, u); err != nil {
		t.Fatal(err)
	}
	if err := n.Exec(in); err != nil {
		t.Fatal(err)
	}
	got, _ := n.ReadWords(1, 0, 98)
	for j := 0; j < 98; j++ {
		e := j + 2
		want := u[e] + u[e-1] + u[e-2]
		if got[j] != want {
			t.Fatalf("sum3[%d] = %v, want %v", j, got[j], want)
		}
	}
}

func TestConstPoolOverflow(t *testing.T) {
	g := gen(t)
	d := diagram.NewDocument("consts")
	d.Declare(diagram.VarDecl{Name: "u", Plane: 0, Base: 0, Len: 128})
	p := d.AddPipeline("c")
	mu, _ := p.AddIcon(diagram.IconMemPlane, "Mu", 0, 0)
	mu.Plane = 0
	mu.RdDMA = &diagram.DMASpec{Var: "u", Stride: 1, Count: 10}
	prev := diagram.PadRef{Icon: mu.ID, Pad: "rd"}
	// Chain 9 units each with a distinct constant: 9 > 8 pool slots.
	names := []string{"T1", "T2", "T3"}
	slot := 0
	var icons []*diagram.Icon
	for _, nm := range names {
		ic, err := p.AddIcon(diagram.IconTriplet, nm, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		icons = append(icons, ic)
	}
	for k := 0; k < 9; k++ {
		ic := icons[k/3]
		s := k % 3
		cv := float64(k) + 0.5
		ic.Units[s] = diagram.UnitConfig{Op: arch.OpMul, ConstB: &cv}
		if _, err := p.Connect(prev, diagram.PadRef{Icon: ic.ID, Pad: mulPad(s, "a")}, 0); err != nil {
			t.Fatal(err)
		}
		prev = diagram.PadRef{Icon: ic.ID, Pad: mulPad(s, "o")}
		slot++
	}
	_, _, err := g.Pipeline(d, p)
	if err == nil {
		t.Fatal("9 distinct constants accepted into an 8-slot pool")
	}
	if !strings.Contains(err.Error(), "constants") {
		t.Errorf("unexpected error: %v", err)
	}
}

func mulPad(slot int, side string) string {
	return "u" + string(rune('0'+slot)) + "." + side
}

func TestConstInterning(t *testing.T) {
	// The same constant used twice occupies one pool slot.
	g := gen(t)
	d := diagram.NewDocument("intern")
	d.Declare(diagram.VarDecl{Name: "u", Plane: 0, Base: 0, Len: 128})
	p := d.AddPipeline("c")
	mu, _ := p.AddIcon(diagram.IconMemPlane, "Mu", 0, 0)
	mu.Plane = 0
	mu.RdDMA = &diagram.DMASpec{Var: "u", Stride: 1, Count: 10}
	db, _ := p.AddIcon(diagram.IconDoublet, "D", 0, 0)
	c1, c2 := 7.0, 7.0
	db.Units[0] = diagram.UnitConfig{Op: arch.OpMul, ConstB: &c1}
	db.Units[1] = diagram.UnitConfig{Op: arch.OpAdd, ConstB: &c2}
	if _, err := p.Connect(diagram.PadRef{Icon: mu.ID, Pad: "rd"}, diagram.PadRef{Icon: db.ID, Pad: "u0.a"}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Connect(diagram.PadRef{Icon: db.ID, Pad: "u0.o"}, diagram.PadRef{Icon: db.ID, Pad: "u1.a"}, 0); err != nil {
		t.Fatal(err)
	}
	in, _, err := g.Pipeline(d, p)
	if err != nil {
		t.Fatal(err)
	}
	_, ka, _ := in.FUInput(12, 1) // first doublet unit 0 = FU 12
	_, kb, _ := in.FUInput(13, 1)
	if ka != kb {
		t.Errorf("identical constants interned to different slots %d, %d", ka, kb)
	}
}

func TestDocumentFlowGeneration(t *testing.T) {
	g := gen(t)
	d, p := buildSAXPY(t, 1.0, 100)
	_ = p
	d.Flow = []diagram.FlowOp{
		{Label: "loop", Pipe: 0, Cond: diagram.CondFlagClear, Flag: 3, Branch: "loop"},
		{Pipe: -1, Cond: diagram.CondHalt},
	}
	prog, rep, err := document(g, d)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Len() != 2 {
		t.Fatalf("program length %d, want 2", prog.Len())
	}
	if len(rep.Pipes) != 1 {
		t.Errorf("report pipes = %d", len(rep.Pipes))
	}
	s0 := prog.Instrs[0].SeqOf()
	if s0.Cond != microcode.CondFlagClear || s0.Branch != 0 || s0.Next != 1 {
		t.Errorf("instr 0 seq = %+v", s0)
	}
	if prog.Instrs[1].SeqOf().Cond != microcode.CondHalt {
		t.Error("instr 1 should halt")
	}

	// Execute: sum over 100 elements of (u+w) with u=w=1 → 200 > 100:
	// flag sets on first pass, loop exits after one iteration.
	n := sim.MustNode(arch.Default())
	ones := make([]float64, 100)
	for i := range ones {
		ones[i] = 1
	}
	if err := n.WriteWords(0, 100, ones); err != nil {
		t.Fatal(err)
	}
	if err := n.WriteWords(1, 200, ones); err != nil {
		t.Fatal(err)
	}
	res, err := n.Run(prog, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed != 2 {
		t.Errorf("executed %d, want 2 (one compute + halt)", res.Executed)
	}
}

func TestDocumentWithoutFlowRunsPipesInOrder(t *testing.T) {
	g := gen(t)
	d, _ := buildSAXPY(t, 1.0, 10)
	prog, _, err := document(g, d)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Len() != 1 {
		t.Fatalf("program length %d", prog.Len())
	}
	if prog.Instrs[0].SeqOf().Cond != microcode.CondHalt {
		t.Error("implicit flow should halt at the end")
	}
}

func TestDocumentEmptyFails(t *testing.T) {
	g := gen(t)
	d := diagram.NewDocument("empty")
	if _, _, err := document(g, d); err == nil {
		t.Error("empty document generated")
	}
}

func TestDocumentChecksFlowReferences(t *testing.T) {
	g := gen(t)
	d, _ := buildSAXPY(t, 1.0, 10)
	d.Flow = []diagram.FlowOp{{Pipe: 9}}
	if _, _, err := document(g, d); err == nil {
		t.Error("bad flow reference generated")
	}
}

func TestGeneratedProgramSurvivesValidateAndDisassemble(t *testing.T) {
	g := gen(t)
	d, _ := buildSAXPY(t, 2.0, 100)
	prog, _, err := document(g, d)
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
	txt := prog.Disassemble()
	for _, want := range []string{"mul", "add", "M0.rd", "M2.wr", "reduce"} {
		if !strings.Contains(txt, want) {
			t.Errorf("disassembly missing %q", want)
		}
	}
}

func TestBypassedDoubletUsesUnitZero(t *testing.T) {
	g := gen(t)
	d := diagram.NewDocument("byp")
	d.Declare(diagram.VarDecl{Name: "u", Plane: 0, Base: 0, Len: 64})
	d.Declare(diagram.VarDecl{Name: "v", Plane: 1, Base: 0, Len: 64})
	p := d.AddPipeline("b")
	mu, _ := p.AddIcon(diagram.IconMemPlane, "Mu", 0, 0)
	mu.Plane = 0
	mu.RdDMA = &diagram.DMASpec{Var: "u", Stride: 1, Count: 32}
	mv, _ := p.AddIcon(diagram.IconMemPlane, "Mv", 0, 0)
	mv.Plane = 1
	mv.WrDMA = &diagram.DMASpec{Var: "v", Stride: 1, Count: 32}
	b, _ := p.AddIcon(diagram.IconDoubletBypass, "B", 0, 0)
	b.Units[0] = diagram.UnitConfig{Op: arch.OpAbs}
	if _, err := p.Connect(diagram.PadRef{Icon: mu.ID, Pad: "rd"}, diagram.PadRef{Icon: b.ID, Pad: "u0.a"}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Connect(diagram.PadRef{Icon: b.ID, Pad: "u0.o"}, diagram.PadRef{Icon: mv.ID, Pad: "wr"}, 0); err != nil {
		t.Fatal(err)
	}
	in, info, err := g.Pipeline(d, p)
	if err != nil {
		t.Fatal(err)
	}
	if info.FUsUsed != 1 {
		t.Errorf("FUs used = %d", info.FUsUsed)
	}
	// First doublet after 4 triplets: FU 12 active, FU 13 idle.
	if in.FUOp(12) != arch.OpAbs {
		t.Errorf("fu12 op = %v", in.FUOp(12))
	}
	if in.FUOp(13) != arch.OpNop {
		t.Errorf("bypassed unit fu13 op = %v", in.FUOp(13))
	}
	n := sim.MustNode(arch.Default())
	u := []float64{-1, 2, -3, 4}
	if err := n.WriteWords(0, 0, u); err != nil {
		t.Fatal(err)
	}
	if err := n.Exec(in); err != nil {
		t.Fatal(err)
	}
	got, _ := n.ReadWords(1, 0, 4)
	for i := range u {
		if got[i] != math.Abs(u[i]) {
			t.Fatalf("abs[%d] = %v", i, got[i])
		}
	}
}

func TestCacheDiagramEndToEnd(t *testing.T) {
	g := gen(t)
	d := diagram.NewDocument("cache")
	d.Declare(diagram.VarDecl{Name: "u", Plane: 0, Base: 0, Len: 64})
	p := d.AddPipeline("stage")
	mu, _ := p.AddIcon(diagram.IconMemPlane, "Mu", 0, 0)
	mu.Plane = 0
	mu.RdDMA = &diagram.DMASpec{Var: "u", Stride: 1, Count: 64}
	ch, _ := p.AddIcon(diagram.IconCache, "C3", 0, 0)
	ch.Plane = 3
	ch.WrDMA = &diagram.DMASpec{Stride: 1, Count: 64, Swap: true}
	s, _ := p.AddIcon(diagram.IconSinglet, "S", 0, 0)
	two := 2.0
	s.Units[0] = diagram.UnitConfig{Op: arch.OpMul, ConstB: &two}
	if _, err := p.Connect(diagram.PadRef{Icon: mu.ID, Pad: "rd"}, diagram.PadRef{Icon: s.ID, Pad: "u0.a"}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Connect(diagram.PadRef{Icon: s.ID, Pad: "u0.o"}, diagram.PadRef{Icon: ch.ID, Pad: "wr"}, 0); err != nil {
		t.Fatal(err)
	}
	in, _, err := g.Pipeline(d, p)
	if err != nil {
		t.Fatal(err)
	}
	n := sim.MustNode(arch.Default())
	u := make([]float64, 64)
	for i := range u {
		u[i] = float64(i)
	}
	if err := n.WriteWords(0, 0, u); err != nil {
		t.Fatal(err)
	}
	if err := n.Exec(in); err != nil {
		t.Fatal(err)
	}
	// Written to buf 0, swapped: read back from buf 1.
	for i := 0; i < 64; i++ {
		v, err := n.Cache[3].Read(1, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		if v != 2*u[i] {
			t.Fatalf("cache[%d] = %v, want %v", i, v, 2*u[i])
		}
	}
}

func TestDocumentFlowEdgeCases(t *testing.T) {
	g := gen(t)

	// IRQ pipelines propagate to the sequencer field.
	d, p := buildSAXPY(t, 1.0, 10)
	p.IRQ = true
	prog, _, err := document(g, d)
	if err != nil {
		t.Fatal(err)
	}
	if !prog.Instrs[0].SeqOf().IRQ {
		t.Error("pipeline IRQ not propagated")
	}

	// A conditional op that falls off the end is an error.
	d2, _ := buildSAXPY(t, 1.0, 10)
	d2.Flow = []diagram.FlowOp{
		{Label: "x", Pipe: 0, Cond: diagram.CondFlagSet, Flag: 1, Branch: "x"},
	}
	if _, _, err := document(g, d2); err == nil {
		t.Error("conditional falling off the end accepted")
	}

	// An unconditional final op quietly becomes a halt.
	d3, _ := buildSAXPY(t, 1.0, 10)
	d3.Flow = []diagram.FlowOp{{Pipe: 0, Cond: diagram.CondAlways}}
	prog3, _, err := document(g, d3)
	if err != nil {
		t.Fatal(err)
	}
	if prog3.Instrs[0].SeqOf().Cond != microcode.CondHalt {
		t.Error("trailing always-op did not become a halt")
	}

	// Explicit next labels are honoured.
	d4, _ := buildSAXPY(t, 1.0, 10)
	d4.Flow = []diagram.FlowOp{
		{Label: "a", Pipe: 0, Next: "c"},
		{Label: "b", Pipe: 0, Cond: diagram.CondHalt},
		{Label: "c", Pipe: 0, Next: "b"},
	}
	prog4, _, err := document(g, d4)
	if err != nil {
		t.Fatal(err)
	}
	if prog4.Instrs[0].SeqOf().Next != 2 {
		t.Errorf("next label resolved to %d, want 2", prog4.Instrs[0].SeqOf().Next)
	}
	if prog4.Instrs[2].SeqOf().Next != 1 {
		t.Errorf("c's next resolved to %d, want 1", prog4.Instrs[2].SeqOf().Next)
	}

	// The same pipeline referenced twice elaborates once but appears in
	// both instructions.
	d5, _ := buildSAXPY(t, 1.0, 10)
	d5.Flow = []diagram.FlowOp{
		{Pipe: 0},
		{Pipe: 0, Cond: diagram.CondHalt},
	}
	prog5, rep5, err := document(g, d5)
	if err != nil {
		t.Fatal(err)
	}
	if prog5.Len() != 2 || len(rep5.Pipes) != 1 {
		t.Errorf("len=%d pipes-elaborated=%d", prog5.Len(), len(rep5.Pipes))
	}
}

func TestPipelineRejectsWriteWithoutWire(t *testing.T) {
	// A WrDMA icon whose wr pad is unwired fails at the checker before
	// codegen's own guard; both layers refuse.
	g := gen(t)
	d, p := buildSAXPY(t, 1.0, 10)
	mv, _ := p.IconByName("Mv")
	if err := p.Disconnect(diagram.PadRef{Icon: mv.ID, Pad: "wr"}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := g.Pipeline(d, p); err == nil {
		t.Error("write DMA without a wire accepted")
	}
}
