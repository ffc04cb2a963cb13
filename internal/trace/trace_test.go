package trace

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/codegen"
	"repro/internal/diagram"
	"repro/internal/microcode"
	"repro/internal/sim"
)

// buildDoubler: v = 2*u + w through a doublet.
func buildDoubler(t testing.TB) (*diagram.Document, *diagram.Pipeline) {
	t.Helper()
	d := diagram.NewDocument("dbl")
	d.Declare(diagram.VarDecl{Name: "u", Plane: 0, Base: 0, Len: 64})
	d.Declare(diagram.VarDecl{Name: "w", Plane: 1, Base: 0, Len: 64})
	d.Declare(diagram.VarDecl{Name: "v", Plane: 2, Base: 0, Len: 64})
	p := d.AddPipeline("dbl")
	mu, _ := p.AddIcon(diagram.IconMemPlane, "Mu", 0, 0)
	mu.Plane = 0
	mu.RdDMA = &diagram.DMASpec{Var: "u", Stride: 1, Count: 16}
	mw, _ := p.AddIcon(diagram.IconMemPlane, "Mw", 0, 6)
	mw.Plane = 1
	mw.RdDMA = &diagram.DMASpec{Var: "w", Stride: 1, Count: 16}
	mv, _ := p.AddIcon(diagram.IconMemPlane, "Mv", 40, 3)
	mv.Plane = 2
	mv.WrDMA = &diagram.DMASpec{Var: "v", Stride: 1, Count: 16}
	db, _ := p.AddIcon(diagram.IconDoublet, "D", 18, 1)
	two := 2.0
	db.Units[0] = diagram.UnitConfig{Op: arch.OpMul, ConstB: &two}
	db.Units[1] = diagram.UnitConfig{Op: arch.OpAdd}
	conn := func(f, fp string, tt, tp string) {
		fi, _ := p.IconByName(f)
		ti, _ := p.IconByName(tt)
		if _, err := p.Connect(diagram.PadRef{Icon: fi.ID, Pad: fp}, diagram.PadRef{Icon: ti.ID, Pad: tp}, 0); err != nil {
			t.Fatal(err)
		}
	}
	conn("Mu", "rd", "D", "u0.a")
	conn("D", "u0.o", "D", "u1.a")
	conn("Mw", "rd", "D", "u1.b")
	conn("D", "u1.o", "Mv", "wr")
	return d, p
}

func setup(t testing.TB) (*sim.Node, *diagram.Document, *diagram.Pipeline, *codegen.PipeInfo, *microcode.Instr) {
	t.Helper()
	d, p := buildDoubler(t)
	gen := codegen.New(arch.MustInventory(arch.Default()))
	in, info, err := gen.Pipeline(d, p)
	if err != nil {
		t.Fatal(err)
	}
	node := sim.MustNode(arch.Default())
	u := make([]float64, 16)
	w := make([]float64, 16)
	for i := range u {
		u[i] = float64(i)
		w[i] = 100
	}
	if err := node.WriteWords(0, 0, u); err != nil {
		t.Fatal(err)
	}
	if err := node.WriteWords(1, 0, w); err != nil {
		t.Fatal(err)
	}
	return node, d, p, info, in
}

func TestCaptureValuesAtElement(t *testing.T) {
	node, _, p, info, in := setup(t)
	samples, err := Capture(node, in, p, info, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Expect values: Mu.rd=5, Mw.rd=100, D.u0.o=10, D.u1.o=110.
	byName := map[string]Sample{}
	for _, s := range samples {
		byName[s.PadName] = s
	}
	cases := map[string]float64{
		"Mu.rd":  5,
		"Mw.rd":  100,
		"D.u0.o": 10,
		"D.u1.o": 110,
	}
	for name, want := range cases {
		s, ok := byName[name]
		if !ok {
			t.Fatalf("no sample for %s (have %v)", name, byName)
		}
		if s.Val != want {
			t.Errorf("%s = %g, want %g", name, s.Val, want)
		}
		if !s.Valid {
			t.Errorf("%s marked invalid", name)
		}
	}
	// Cycles ascend along the dataflow.
	if byName["D.u0.o"].Cycle <= byName["Mu.rd"].Cycle {
		t.Error("mul sample not after its source")
	}
	if byName["D.u1.o"].Cycle <= byName["D.u0.o"].Cycle {
		t.Error("add sample not after mul")
	}
	// Tracer removed after capture.
	if node.Tracer != nil {
		t.Error("tracer left armed")
	}
	// Memory still written (the instruction really executed).
	got, _ := node.ReadWords(2, 0, 16)
	if got[5] != 110 {
		t.Errorf("v[5] = %g", got[5])
	}
}

func TestAnnotateRendersOrdered(t *testing.T) {
	node, _, p, info, in := setup(t)
	samples, err := Capture(node, in, p, info, 3)
	if err != nil {
		t.Fatal(err)
	}
	out := Annotate(p, samples)
	for _, want := range []string{"element 3", "Mu.rd", "D.u1.o", "= 106"} {
		if !strings.Contains(out, want) {
			t.Errorf("annotation missing %q:\n%s", want, out)
		}
	}
	// Order: Mu.rd line appears before D.u1.o line.
	if strings.Index(out, "Mu.rd") > strings.Index(out, "D.u1.o") {
		t.Error("annotation not in dataflow order")
	}
}

func TestAnimateTable(t *testing.T) {
	node, _, p, info, in := setup(t)
	out, err := Animate(node, in, p, info, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"e=0", "e=3", "D.u1.o", "Mu.rd"} {
		if !strings.Contains(out, want) {
			t.Errorf("animation missing %q:\n%s", want, out)
		}
	}
	// Element 2 of the add output: 2*2+100 = 104.
	if !strings.Contains(out, "104") {
		t.Errorf("animation missing expected value:\n%s", out)
	}
}

func TestAnnotateEmpty(t *testing.T) {
	_, _, p, _, _ := setup(t)
	out := Annotate(p, map[diagram.PadRef]Sample{})
	if !strings.Contains(out, "element 0") {
		t.Errorf("empty annotation: %q", out)
	}
}

// TestCapturePartialSamplesOnTrap: a trap abort mid-instruction still
// returns the pad values observed before the faulting cycle, together
// with the structured error — the annotated prefix is what pinpoints
// the bad operand.
func TestCapturePartialSamplesOnTrap(t *testing.T) {
	node, _, p, info, in := setup(t)
	// Element 10 overflows at the doubler (2·MaxFloat64 → +Inf with a
	// finite operand); the halt policy aborts the instruction there.
	if err := node.WriteWords(0, 10, []float64{math.MaxFloat64}); err != nil {
		t.Fatal(err)
	}
	node.TrapCfg = arch.TrapConfig{Policy: arch.TrapHalt}
	samples, err := Capture(node, in, p, info, 5)
	if err == nil {
		t.Fatal("overflow at element 10 did not trap")
	}
	var te *sim.TrapError
	if !errors.As(err, &te) {
		t.Fatalf("error %v does not wrap *sim.TrapError", err)
	}
	if te.Trap.Kind != sim.TrapOverflow || te.Trap.Element != 10 {
		t.Errorf("trap = %s, want overflow at element 10", te.Trap)
	}
	if len(samples) == 0 {
		t.Fatal("no samples captured before the abort")
	}
	for _, s := range samples {
		if s.PadName == "Mu.rd" && s.Val != 5 {
			t.Errorf("Mu.rd = %g, want 5", s.Val)
		}
	}
}
