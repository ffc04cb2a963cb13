package checker

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/diag"
	"repro/internal/diagram"
)

func newChecker(t testing.TB) *Checker {
	t.Helper()
	return New(arch.MustInventory(arch.Default()))
}

// buildAXPY constructs a complete, legal pipeline computing
// v = 2.5*u + w with a sum-reduction on the result, exercising most
// icon kinds.
func buildAXPY(t testing.TB) (*diagram.Document, *diagram.Pipeline) {
	t.Helper()
	d := diagram.NewDocument("axpy")
	d.Declare(diagram.VarDecl{Name: "u", Plane: 0, Base: 0, Len: 1 << 12})
	d.Declare(diagram.VarDecl{Name: "w", Plane: 1, Base: 0, Len: 1 << 12})
	d.Declare(diagram.VarDecl{Name: "v", Plane: 2, Base: 0, Len: 1 << 12})
	p := d.AddPipeline("axpy")

	mu, err := p.AddIcon(diagram.IconMemPlane, "Mu", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	mu.Plane = 0
	mu.RdDMA = &diagram.DMASpec{Var: "u", Stride: 1, Count: 1000}
	mw, _ := p.AddIcon(diagram.IconMemPlane, "Mw", 0, 8)
	mw.Plane = 1
	mw.RdDMA = &diagram.DMASpec{Var: "w", Stride: 1, Count: 1000}
	mv, _ := p.AddIcon(diagram.IconMemPlane, "Mv", 40, 5)
	mv.Plane = 2
	mv.WrDMA = &diagram.DMASpec{Var: "v", Stride: 1, Count: 1000}

	db, _ := p.AddIcon(diagram.IconDoublet, "D1", 20, 4)
	cb := 2.5
	db.Units[0] = diagram.UnitConfig{Op: arch.OpMul, ConstB: &cb}
	db.Units[1] = diagram.UnitConfig{Op: arch.OpAdd}
	sg, _ := p.AddIcon(diagram.IconSinglet, "R1", 30, 10)
	sg.Units[0] = diagram.UnitConfig{Op: arch.OpAdd, Reduce: true}

	conn := func(fi *diagram.Icon, fp string, ti *diagram.Icon, tp string, delay int) {
		t.Helper()
		if _, err := p.Connect(diagram.PadRef{Icon: fi.ID, Pad: fp}, diagram.PadRef{Icon: ti.ID, Pad: tp}, delay); err != nil {
			t.Fatal(err)
		}
	}
	conn(mu, "rd", db, "u0.a", 0)
	conn(db, "u0.o", db, "u1.a", 0)
	conn(mw, "rd", db, "u1.b", 0)
	conn(db, "u1.o", mv, "wr", 0)
	conn(db, "u1.o", sg, "u0.a", 0)
	return d, p
}

// pipeDiags returns CheckPipeline's findings alone.
func pipeDiags(c *Checker, d *diagram.Document, p *diagram.Pipeline) []Diagnostic {
	_, diags := c.CheckPipeline(d, p)
	return diags
}

func mustClean(t *testing.T, c *Checker, d *diagram.Document, p *diagram.Pipeline) {
	t.Helper()
	diags := pipeDiags(c, d, p)
	if es := Errors(diags); len(es) > 0 {
		for _, e := range es {
			t.Errorf("unexpected: %s", e)
		}
		t.Fatal("expected a clean pipeline")
	}
}

func wantRule(t *testing.T, diags []Diagnostic, rule string) {
	t.Helper()
	for _, d := range diags {
		if d.Rule == rule {
			return
		}
	}
	t.Errorf("expected diagnostic %s, got %v", rule, diags)
}

func TestCleanPipelinePasses(t *testing.T) {
	c := newChecker(t)
	d, p := buildAXPY(t)
	mustClean(t, c, d, p)
}

func TestCanPlaceInventoryLimits(t *testing.T) {
	c := newChecker(t)
	d := diagram.NewDocument("x")
	p := d.AddPipeline("p")
	// 4 triplets available.
	for i := 0; i < 4; i++ {
		if err := c.CanPlace(p, diagram.IconTriplet, 0); err != nil {
			t.Fatalf("triplet %d rejected: %v", i, err)
		}
		if _, err := p.AddIcon(diagram.IconTriplet, strings.Repeat("T", i+1), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	err := c.CanPlace(p, diagram.IconTriplet, 0)
	if err == nil {
		t.Fatal("5th triplet accepted")
	}
	if re, ok := err.(*RuleError); !ok || re.Rule != RuleInventory {
		t.Errorf("got %v, want %s", err, RuleInventory)
	}
	// A bypassed doublet still consumes a doublet.
	for i := 0; i < 8; i++ {
		kind := diagram.IconDoublet
		if i%2 == 0 {
			kind = diagram.IconDoubletBypass
		}
		if err := c.CanPlace(p, kind, 0); err != nil {
			t.Fatalf("doublet %d rejected: %v", i, err)
		}
		if _, err := p.AddIcon(kind, strings.Repeat("D", i+1), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CanPlace(p, diagram.IconDoubletBypass, 0); err == nil {
		t.Error("9th doublet accepted")
	}
	// SDUs: 2 available.
	for i := 0; i < 2; i++ {
		if err := c.CanPlace(p, diagram.IconSDU, 0); err != nil {
			t.Fatalf("SDU %d rejected: %v", i, err)
		}
		if _, err := p.AddIcon(diagram.IconSDU, strings.Repeat("S", i+1), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CanPlace(p, diagram.IconSDU, 0); err == nil {
		t.Error("3rd SDU accepted")
	}
}

func TestCanPlacePlaneRules(t *testing.T) {
	c := newChecker(t)
	d := diagram.NewDocument("x")
	p := d.AddPipeline("p")
	if err := c.CanPlace(p, diagram.IconMemPlane, 16); err == nil {
		t.Error("plane 16 accepted")
	}
	if err := c.CanPlace(p, diagram.IconMemPlane, -1); err == nil {
		t.Error("plane -1 accepted")
	}
	ic, _ := p.AddIcon(diagram.IconMemPlane, "M3", 0, 0)
	ic.Plane = 3
	// This is the paper's worked example: "if the user has routed the
	// output from one function unit to a particular memory plane, the
	// graphical editor will not let him send the output of a second
	// unit to the same plane."
	err := c.CanPlace(p, diagram.IconMemPlane, 3)
	if err == nil {
		t.Fatal("duplicate memory plane accepted")
	}
	if re, ok := err.(*RuleError); !ok || re.Rule != RulePlaneBusy {
		t.Errorf("got %v, want %s", err, RulePlaneBusy)
	}
	if err := c.CanPlace(p, diagram.IconMemPlane, 4); err != nil {
		t.Errorf("distinct plane rejected: %v", err)
	}
	// Cache planes independent of memory planes.
	if err := c.CanPlace(p, diagram.IconCache, 3); err != nil {
		t.Errorf("cache plane 3 rejected: %v", err)
	}
	if err := c.CanPlace(p, diagram.IconCache, 16); err == nil {
		t.Error("cache plane 16 accepted")
	}
}

func TestCanConnectRules(t *testing.T) {
	c := newChecker(t)
	d := diagram.NewDocument("x")
	p := d.AddPipeline("p")
	m, _ := p.AddIcon(diagram.IconMemPlane, "M", 0, 0)
	s, _ := p.AddIcon(diagram.IconSinglet, "S", 0, 0)
	sdu, _ := p.AddIcon(diagram.IconSDU, "Z", 0, 0)
	m2, _ := p.AddIcon(diagram.IconMemPlane, "M2", 0, 0)
	m2.Plane = 1

	pr := func(ic *diagram.Icon, pad string) diagram.PadRef {
		return diagram.PadRef{Icon: ic.ID, Pad: pad}
	}
	if err := c.CanConnect(p, pr(m, "rd"), pr(s, "u0.a"), 0); err != nil {
		t.Errorf("mem→FU rejected: %v", err)
	}
	if err := c.CanConnect(p, pr(m, "rd"), pr(sdu, "in"), 0); err != nil {
		t.Errorf("mem→SDU rejected: %v", err)
	}
	if err := c.CanConnect(p, pr(s, "u0.o"), pr(sdu, "in"), 0); err == nil {
		t.Error("FU→SDU accepted; SDUs reformat memory streams only")
	}
	if err := c.CanConnect(p, pr(m, "rd"), pr(sdu, "in"), 3); err == nil {
		t.Error("delayed SDU input accepted")
	}
	if err := c.CanConnect(p, pr(s, "u0.a"), pr(s, "u0.b"), 0); err == nil {
		t.Error("nonexistent routing accepted (self loop)")
	}
	if err := c.CanConnect(p, pr(s, "u0.o"), pr(s, "u0.a"), 0); err == nil {
		t.Error("direct self feedback accepted; must use reduction mode")
	}
	if err := c.CanConnect(p, pr(m, "rd"), pr(m, "wr"), 0); err == nil {
		t.Error("plane feeding itself accepted")
	}
	if err := c.CanConnect(p, pr(m, "rd"), pr(m2, "wr"), 0); err != nil {
		t.Errorf("plane-to-plane copy rejected: %v", err)
	}
	if err := c.CanConnect(p, pr(m, "rd"), pr(m2, "wr"), 1); err == nil {
		t.Error("delayed write channel accepted")
	}
	if err := c.CanConnect(p, pr(m, "rd"), pr(s, "u0.a"), 65); err == nil {
		t.Error("delay beyond register file accepted")
	}
	if err := c.CanConnect(p, pr(m, "rd"), pr(s, "u0.a"), 64); err != nil {
		t.Errorf("max legal delay rejected: %v", err)
	}
	// Unknown icons propagate errors.
	if err := c.CanConnect(p, diagram.PadRef{Icon: 99, Pad: "rd"}, pr(s, "u0.a"), 0); err == nil {
		t.Error("unknown source icon accepted")
	}
	if err := c.CanConnect(p, pr(m, "rd"), diagram.PadRef{Icon: 99, Pad: "u0.a"}, 0); err == nil {
		t.Error("unknown target icon accepted")
	}
}

// TestNonFiniteConstants: NaN and ±Inf operands and reduction initial
// values are R041 errors at edit time, and CheckPipeline reports the
// same rule for a document assembled without the editor.
func TestNonFiniteConstants(t *testing.T) {
	c := newChecker(t)
	d, p := buildAXPY(t)
	db, _ := p.IconByName("D1")
	nan, inf := math.NaN(), math.Inf(1)
	for name, u := range map[string]diagram.UnitConfig{
		"consta": {Op: arch.OpMul, ConstA: &nan},
		"constb": {Op: arch.OpMul, ConstB: &inf},
		"init":   {Op: arch.OpAdd, Reduce: true, RedInit: -inf},
	} {
		var de *diag.DiagError
		if err := c.CanSetOp(db, 0, u); !errors.As(err, &de) || de.Rule() != diag.RuleNonFinite {
			t.Errorf("%s: err = %v, want a %s diagnostic", name, err, diag.RuleNonFinite)
		}
	}
	db.Units[0].ConstB = &inf
	var found bool
	for _, dg := range pipeDiags(c, d, p) {
		found = found || (dg.Rule == diag.RuleNonFinite && dg.Severity == Error && dg.Icon == db.ID)
	}
	if !found {
		t.Errorf("CheckPipeline did not report %s on %s", diag.RuleNonFinite, db.Name)
	}
}

func TestCanSetOpAsymmetries(t *testing.T) {
	c := newChecker(t)
	d := diagram.NewDocument("x")
	p := d.AddPipeline("p")
	tr, _ := p.AddIcon(diagram.IconTriplet, "T", 0, 0)
	sg, _ := p.AddIcon(diagram.IconSinglet, "S", 0, 0)
	byp, _ := p.AddIcon(diagram.IconDoubletBypass, "B", 0, 0)

	// Triplet slot 0 holds the integer circuitry, slot 2 the min/max.
	if err := c.CanSetOp(tr, 0, diagram.UnitConfig{Op: arch.OpIAdd}); err != nil {
		t.Errorf("iadd on triplet slot 0 rejected: %v", err)
	}
	if err := c.CanSetOp(tr, 1, diagram.UnitConfig{Op: arch.OpIAdd}); err == nil {
		t.Error("iadd on triplet slot 1 accepted")
	}
	if err := c.CanSetOp(tr, 2, diagram.UnitConfig{Op: arch.OpMax}); err != nil {
		t.Errorf("max on triplet slot 2 rejected: %v", err)
	}
	if err := c.CanSetOp(tr, 0, diagram.UnitConfig{Op: arch.OpMax}); err == nil {
		t.Error("max on triplet slot 0 accepted")
	}
	// Every slot does floating point.
	for slot := 0; slot < 3; slot++ {
		if err := c.CanSetOp(tr, slot, diagram.UnitConfig{Op: arch.OpMul}); err != nil {
			t.Errorf("mul on triplet slot %d rejected: %v", slot, err)
		}
	}
	// Singlets are float-only.
	if err := c.CanSetOp(sg, 0, diagram.UnitConfig{Op: arch.OpIAdd}); err == nil {
		t.Error("iadd on singlet accepted")
	}
	if err := c.CanSetOp(sg, 0, diagram.UnitConfig{Op: arch.OpMax}); err == nil {
		t.Error("max on singlet accepted")
	}
	// Bypassed doublet exposes the integer-capable unit 0 only.
	if err := c.CanSetOp(byp, 0, diagram.UnitConfig{Op: arch.OpIAdd}); err != nil {
		t.Errorf("iadd on bypassed doublet rejected: %v", err)
	}
	if err := c.CanSetOp(byp, 0, diagram.UnitConfig{Op: arch.OpMax}); err == nil {
		t.Error("max on bypassed doublet accepted (min/max unit is the bypassed one)")
	}
	if err := c.CanSetOp(byp, 1, diagram.UnitConfig{Op: arch.OpAdd}); err == nil {
		t.Error("slot 1 of bypassed doublet accepted")
	}
	// Reduction restrictions.
	if err := c.CanSetOp(tr, 0, diagram.UnitConfig{Op: arch.OpSub, Reduce: true}); err == nil {
		t.Error("reduce on non-reducible op accepted")
	}
	cv := 1.0
	if err := c.CanSetOp(tr, 0, diagram.UnitConfig{Op: arch.OpAdd, Reduce: true, ConstB: &cv}); err == nil {
		t.Error("reduce with constant B accepted")
	}
	// Bad op value.
	if err := c.CanSetOp(tr, 0, diagram.UnitConfig{Op: arch.Op(200)}); err == nil {
		t.Error("undefined op accepted")
	}
	// Non-ALS icon.
	m, _ := p.AddIcon(diagram.IconMemPlane, "M", 0, 0)
	if err := c.CanSetOp(m, 0, diagram.UnitConfig{Op: arch.OpAdd}); err == nil {
		t.Error("op on memory plane accepted")
	}
}

func TestCanSetDMABounds(t *testing.T) {
	c := newChecker(t)
	d := diagram.NewDocument("x")
	d.Declare(diagram.VarDecl{Name: "u", Plane: 2, Base: 100, Len: 1000})
	p := d.AddPipeline("p")
	m, _ := p.AddIcon(diagram.IconMemPlane, "M", 0, 0)
	m.Plane = 2
	ch, _ := p.AddIcon(diagram.IconCache, "C", 0, 0)
	ch.Plane = 0

	ok := diagram.DMASpec{Var: "u", Offset: 0, Stride: 1, Count: 1000}
	if err := c.CanSetDMA(d, m, ok); err != nil {
		t.Errorf("legal DMA rejected: %v", err)
	}
	cases := []struct {
		name string
		spec diagram.DMASpec
		rule string
	}{
		{"zero count", diagram.DMASpec{Var: "u", Stride: 1, Count: 0}, RuleDMABounds},
		{"negative skip", diagram.DMASpec{Var: "u", Stride: 1, Count: 10, Skip: -1}, RuleDMABounds},
		{"overrun", diagram.DMASpec{Var: "u", Stride: 1, Count: 1001}, RuleDMABounds},
		{"stride overrun", diagram.DMASpec{Var: "u", Stride: 2, Count: 501}, RuleDMABounds},
		{"negative reach", diagram.DMASpec{Var: "u", Offset: -1, Stride: 1, Count: 1}, RuleDMABounds},
		{"unknown var", diagram.DMASpec{Var: "zz", Stride: 1, Count: 1}, RuleVarUnknown},
	}
	for _, tc := range cases {
		err := c.CanSetDMA(d, m, tc.spec)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if re, _ := err.(*RuleError); re == nil || re.Rule != tc.rule {
			t.Errorf("%s: got %v, want rule %s", tc.name, err, tc.rule)
		}
	}
	// Wrong plane for the variable.
	m5, _ := p.AddIcon(diagram.IconMemPlane, "M5", 0, 0)
	m5.Plane = 5
	if err := c.CanSetDMA(d, m5, ok); err == nil {
		t.Error("variable/plane mismatch accepted")
	}
	// Raw addresses without a variable.
	raw := diagram.DMASpec{Offset: 0, Stride: 1, Count: 100}
	if err := c.CanSetDMA(d, m, raw); err != nil {
		t.Errorf("raw-address DMA rejected: %v", err)
	}
	huge := diagram.DMASpec{Offset: c.Inv.Cfg.PlaneWords() - 1, Stride: 1, Count: 2}
	if err := c.CanSetDMA(d, m, huge); err == nil {
		t.Error("plane overrun accepted")
	}
	// Negative stride reading backwards is fine within bounds.
	back := diagram.DMASpec{Offset: 99, Stride: -1, Count: 100}
	if err := c.CanSetDMA(d, m, back); err != nil {
		t.Errorf("backward stream rejected: %v", err)
	}
	// Cache geometry is much smaller.
	if err := c.CanSetDMA(d, ch, diagram.DMASpec{Stride: 1, Count: 1024}); err != nil {
		t.Errorf("full-cache stream rejected: %v", err)
	}
	if err := c.CanSetDMA(d, ch, diagram.DMASpec{Stride: 1, Count: 1025}); err == nil {
		t.Error("cache overrun accepted")
	}
	if err := c.CanSetDMA(d, ch, diagram.DMASpec{Stride: 1, Count: 10, Buf: 2}); err == nil {
		t.Error("buffer select 2 accepted")
	}
	// DMA on a non-plane icon.
	s, _ := p.AddIcon(diagram.IconSinglet, "S", 0, 0)
	if err := c.CanSetDMA(d, s, ok); err == nil {
		t.Error("DMA on an ALS accepted")
	}
}

// TestCanSetDMAFieldWidths feeds DMA values that fit the variable's
// range but not their microcode field. Each must fail R007 naming the
// field and its width, before codegen's word setters would panic on it.
func TestCanSetDMAFieldWidths(t *testing.T) {
	c := newChecker(t)
	d := diagram.NewDocument("x")
	d.Declare(diagram.VarDecl{Name: "u", Plane: 0, Base: 0, Len: 16})
	p := d.AddPipeline("p")
	m, _ := p.AddIcon(diagram.IconMemPlane, "Mu", 0, 0)
	ch, _ := p.AddIcon(diagram.IconCache, "C", 0, 0)
	for _, tc := range []struct {
		name string
		icon *diagram.Icon
		spec diagram.DMASpec
		want string
	}{
		{"signed 16-bit stride", m, diagram.DMASpec{Var: "u", Stride: 70000, Count: 1}, "16-bit signed stride"},
		{"24-bit count", m, diagram.DMASpec{Var: "u", Stride: 0, Count: 99999999}, "24-bit count"},
		{"range wraps to 0", m, diagram.DMASpec{Var: "u", Stride: 4, Count: 4611686018427387905}, "24-bit count"},
		{"24-bit skip", m, diagram.DMASpec{Var: "u", Stride: 1, Count: 16, Skip: 16777216}, "24-bit skip"},
		{"signed 8-bit cache stride", ch, diagram.DMASpec{Stride: 200, Count: 1}, "8-bit signed stride"},
		{"12-bit cache skip", ch, diagram.DMASpec{Stride: 1, Count: 1, Skip: 5000}, "12-bit skip"},
	} {
		err := c.CanSetDMA(d, tc.icon, tc.spec)
		if re, _ := err.(*RuleError); re == nil || re.Rule != RuleDMABounds || !strings.Contains(re.Msg, tc.want) {
			t.Errorf("%s: got %v, want %s naming the %s field", tc.name, err, RuleDMABounds, tc.want)
		}
	}
	// The widest values that fit still pass.
	for _, tc := range []struct {
		icon *diagram.Icon
		spec diagram.DMASpec
	}{
		{m, diagram.DMASpec{Stride: -32768, Count: 1, Skip: 1<<24 - 1}},
		{m, diagram.DMASpec{Stride: 32767, Count: 1}},
		{ch, diagram.DMASpec{Stride: -128, Count: 1, Skip: 4095}},
	} {
		if err := c.CanSetDMA(d, tc.icon, tc.spec); err != nil {
			t.Errorf("%s %+v rejected: %v", tc.icon.Name, tc.spec, err)
		}
	}
}

// TestCanDeclare: a declaration needs a name and must lie inside one
// memory plane; every refusal is R033. A base and length whose sum
// wraps int64 are refused too.
func TestCanDeclare(t *testing.T) {
	c := newChecker(t)
	words := c.Inv.Cfg.PlaneWords()
	if err := c.CanDeclare(diagram.VarDecl{Name: "u", Plane: 15, Base: words - 16, Len: 16}); err != nil {
		t.Fatalf("declaration filling a plane's last 16 words refused: %v", err)
	}
	for _, v := range []diagram.VarDecl{
		{Plane: 0, Len: 16},
		{Name: "u", Plane: -1, Len: 16},
		{Name: "u", Plane: 16, Len: 16},
		{Name: "u", Len: 0},
		{Name: "u", Base: -1, Len: 16},
		{Name: "u", Base: words - 15, Len: 16},
		{Name: "u", Base: 1 << 62, Len: 1 << 62},
	} {
		var de *diag.DiagError
		if err := c.CanDeclare(v); !errors.As(err, &de) || de.Rule() != diag.RuleCapacity {
			t.Errorf("CanDeclare(%+v) = %v, want %s", v, err, diag.RuleCapacity)
		}
	}
}

func TestCanSetTaps(t *testing.T) {
	c := newChecker(t)
	d := diagram.NewDocument("x")
	p := d.AddPipeline("p")
	z, _ := p.AddIcon(diagram.IconSDU, "Z", 0, 0)
	s, _ := p.AddIcon(diagram.IconSinglet, "S", 0, 0)
	if err := c.CanSetTaps(z, []int{0, 1, 4096}); err != nil {
		t.Errorf("legal taps rejected: %v", err)
	}
	if err := c.CanSetTaps(z, nil); err == nil {
		t.Error("empty taps accepted")
	}
	if err := c.CanSetTaps(z, make([]int, 9)); err == nil {
		t.Error("9 taps accepted")
	}
	if err := c.CanSetTaps(z, []int{-1}); err == nil {
		t.Error("negative tap accepted")
	}
	if err := c.CanSetTaps(z, []int{1 << 17}); err == nil {
		t.Error("tap beyond buffer accepted")
	}
	if err := c.CanSetTaps(s, []int{1}); err == nil {
		t.Error("taps on an ALS accepted")
	}
}

func TestCheckPipelineFindsCycle(t *testing.T) {
	c := newChecker(t)
	d := diagram.NewDocument("x")
	p := d.AddPipeline("p")
	a, _ := p.AddIcon(diagram.IconSinglet, "A", 0, 0)
	b, _ := p.AddIcon(diagram.IconSinglet, "B", 0, 0)
	a.Units[0] = diagram.UnitConfig{Op: arch.OpMov}
	b.Units[0] = diagram.UnitConfig{Op: arch.OpMov}
	if _, err := p.Connect(diagram.PadRef{Icon: a.ID, Pad: "u0.o"}, diagram.PadRef{Icon: b.ID, Pad: "u0.a"}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Connect(diagram.PadRef{Icon: b.ID, Pad: "u0.o"}, diagram.PadRef{Icon: a.ID, Pad: "u0.a"}, 0); err != nil {
		t.Fatal(err)
	}
	wantRule(t, pipeDiags(c, d, p), RuleCycle)
}

func TestCheckPipelineConnectivityRules(t *testing.T) {
	c := newChecker(t)

	t.Run("missing operand", func(t *testing.T) {
		d, p := buildAXPY(t)
		db, _ := p.IconByName("D1")
		if err := p.Disconnect(diagram.PadRef{Icon: db.ID, Pad: "u1.b"}); err != nil {
			t.Fatal(err)
		}
		wantRule(t, pipeDiags(c, d, p), RuleUnconnected)
	})

	t.Run("missing DMA", func(t *testing.T) {
		d, p := buildAXPY(t)
		mu, _ := p.IconByName("Mu")
		mu.RdDMA = nil
		wantRule(t, pipeDiags(c, d, p), RuleMissingDMA)
	})

	t.Run("read-write same plane icon", func(t *testing.T) {
		d, p := buildAXPY(t)
		mu, _ := p.IconByName("Mu")
		db, _ := p.IconByName("D1")
		mv, _ := p.IconByName("Mv")
		// Reroute output into Mu, which is already read.
		if err := p.Disconnect(diagram.PadRef{Icon: mv.ID, Pad: "wr"}); err != nil {
			t.Fatal(err)
		}
		mu.WrDMA = &diagram.DMASpec{Var: "u", Offset: 2000, Stride: 1, Count: 1000}
		// Out-of-var write also triggers bounds; use raw address.
		mu.WrDMA = &diagram.DMASpec{Offset: 2000, Stride: 1, Count: 1000}
		if _, err := p.Connect(diagram.PadRef{Icon: db.ID, Pad: "u1.o"}, diagram.PadRef{Icon: mu.ID, Pad: "wr"}, 0); err != nil {
			t.Fatal(err)
		}
		wantRule(t, pipeDiags(c, d, p), RulePlaneBusy)
	})

	t.Run("wired unit without op", func(t *testing.T) {
		d, p := buildAXPY(t)
		db, _ := p.IconByName("D1")
		db.Units[1].Op = arch.OpNop
		wantRule(t, pipeDiags(c, d, p), RuleUnconnected)
	})

	t.Run("const and wire conflict", func(t *testing.T) {
		d, p := buildAXPY(t)
		db, _ := p.IconByName("D1")
		v := 1.0
		db.Units[1].ConstB = &v
		wantRule(t, pipeDiags(c, d, p), RuleConstConfl)
	})

	t.Run("reduce with wired B", func(t *testing.T) {
		d, p := buildAXPY(t)
		sg, _ := p.IconByName("R1")
		mw, _ := p.IconByName("Mw")
		if _, err := p.Connect(diagram.PadRef{Icon: mw.ID, Pad: "rd"}, diagram.PadRef{Icon: sg.ID, Pad: "u0.b"}, 0); err != nil {
			t.Fatal(err)
		}
		wantRule(t, pipeDiags(c, d, p), RuleReduceWire)
	})

	t.Run("unused icon warns", func(t *testing.T) {
		d, p := buildAXPY(t)
		if _, err := p.AddIcon(diagram.IconSinglet, "lonely", 0, 0); err != nil {
			t.Fatal(err)
		}
		diags := pipeDiags(c, d, p)
		if len(Errors(diags)) > 0 {
			t.Errorf("unused icon should not be an error: %v", diags)
		}
		wantRule(t, diags, RuleUnusedIcon)
	})

	t.Run("duplicate plane number", func(t *testing.T) {
		d, p := buildAXPY(t)
		mw, _ := p.IconByName("Mw")
		mw.Plane = 0 // collides with Mu
		wantRule(t, pipeDiags(c, d, p), RulePlaneBusy)
	})

	t.Run("stream count skew", func(t *testing.T) {
		d, p := buildAXPY(t)
		mw, _ := p.IconByName("Mw")
		mw.RdDMA.Count = 999
		wantRule(t, pipeDiags(c, d, p), RuleCountSkew)
	})

	t.Run("stream skew compensated by skip passes", func(t *testing.T) {
		d, p := buildAXPY(t)
		mw, _ := p.IconByName("Mw")
		mw.RdDMA.Count = 990
		mw.RdDMA.Skip = 10
		mustClean(t, c, d, p)
	})
}

func TestCheckPipelineSDURules(t *testing.T) {
	c := newChecker(t)
	d := diagram.NewDocument("x")
	p := d.AddPipeline("p")
	z, _ := p.AddIcon(diagram.IconSDU, "Z", 0, 0)
	s, _ := p.AddIcon(diagram.IconSinglet, "S", 0, 0)
	s.Units[0] = diagram.UnitConfig{Op: arch.OpMov}
	if _, err := p.Connect(diagram.PadRef{Icon: z.ID, Pad: "t0"}, diagram.PadRef{Icon: s.ID, Pad: "u0.a"}, 0); err != nil {
		t.Fatal(err)
	}
	// Tap wired, no input, no tap config.
	diags := pipeDiags(c, d, p)
	wantRule(t, diags, RuleUnconnected)

	m, _ := p.AddIcon(diagram.IconMemPlane, "M", 0, 0)
	m.RdDMA = &diagram.DMASpec{Stride: 1, Count: 10}
	if _, err := p.Connect(diagram.PadRef{Icon: m.ID, Pad: "rd"}, diagram.PadRef{Icon: z.ID, Pad: "in"}, 0); err != nil {
		t.Fatal(err)
	}
	z.Taps = []int{5}
	// Need somewhere for the data to go to avoid unused warnings being
	// the only finding; the pipeline is now structurally fine.
	if es := Errors(pipeDiags(c, d, p)); len(es) > 0 {
		t.Errorf("configured SDU pipeline has errors: %v", es)
	}
	// Wire tap t1 but configure only one tap.
	s2, _ := p.AddIcon(diagram.IconSinglet, "S2", 0, 0)
	s2.Units[0] = diagram.UnitConfig{Op: arch.OpMov}
	if _, err := p.Connect(diagram.PadRef{Icon: z.ID, Pad: "t1"}, diagram.PadRef{Icon: s2.ID, Pad: "u0.a"}, 0); err != nil {
		t.Fatal(err)
	}
	wantRule(t, pipeDiags(c, d, p), RuleUnconnected)
}

// TestUnconfiguredTapEveryMachine wires tap t6 of an SDU configured
// with two taps. Every SDU icon has the palette's eight tap pads, so
// the wire is R011 at check on a machine with four taps per unit just
// as on the default eight, not a tap codegen first finds unconfigured.
func TestUnconfiguredTapEveryMachine(t *testing.T) {
	for _, taps := range []int{8, 4} {
		cfg := arch.Default()
		cfg.SDUTaps = taps
		c := New(arch.MustInventory(cfg))
		d := diagram.NewDocument("x")
		d.Declare(diagram.VarDecl{Name: "u", Plane: 0, Base: 0, Len: 64})
		d.Declare(diagram.VarDecl{Name: "v", Plane: 1, Base: 0, Len: 64})
		p := d.AddPipeline("p")
		mu, _ := p.AddIcon(diagram.IconMemPlane, "Mu", 0, 0)
		mu.RdDMA = &diagram.DMASpec{Var: "u", Stride: 1, Count: 64}
		mv, _ := p.AddIcon(diagram.IconMemPlane, "Mv", 0, 0)
		mv.Plane = 1
		mv.WrDMA = &diagram.DMASpec{Var: "v", Stride: 1, Count: 64}
		z, _ := p.AddIcon(diagram.IconSDU, "Z", 0, 0)
		z.Taps = []int{0, 1}
		s, _ := p.AddIcon(diagram.IconSinglet, "S", 0, 0)
		s.Units[0] = diagram.UnitConfig{Op: arch.OpMov}
		for _, w := range [][2]diagram.PadRef{
			{{Icon: mu.ID, Pad: "rd"}, {Icon: z.ID, Pad: "in"}},
			{{Icon: z.ID, Pad: "t6"}, {Icon: s.ID, Pad: "u0.a"}},
			{{Icon: s.ID, Pad: "u0.o"}, {Icon: mv.ID, Pad: "wr"}},
		} {
			if _, err := p.Connect(w[0], w[1], 0); err != nil {
				t.Fatal(err)
			}
		}
		es := Errors(pipeDiags(c, d, p))
		if len(es) != 1 || es[0].Rule != RuleUnconnected || es[0].Msg != "Z tap t6 wired but not configured" {
			t.Errorf("%d taps per unit: findings %v, want one R011 for Z.t6", taps, es)
		}
	}
}

func TestCheckCompareSpec(t *testing.T) {
	c := newChecker(t)
	good := func() (*diagram.Document, *diagram.Pipeline) {
		d, p := buildAXPY(t)
		sg, _ := p.IconByName("R1")
		p.Compare = &diagram.CompareSpec{Icon: sg.ID, Slot: 0, Op: "lt", Threshold: 1e-6, Flag: 1}
		return d, p
	}
	d, p := good()
	mustClean(t, c, d, p)

	d, p = good()
	p.Compare.Op = "approx"
	wantRule(t, pipeDiags(c, d, p), RuleCompareSpec)

	d, p = good()
	p.Compare.Icon = 99
	wantRule(t, pipeDiags(c, d, p), RuleCompareSpec)

	d, p = good()
	p.Compare.Slot = 5
	wantRule(t, pipeDiags(c, d, p), RuleCompareSpec)

	d, p = good()
	p.Compare.Flag = 16
	wantRule(t, pipeDiags(c, d, p), RuleCompareSpec)

	d, p = good()
	db, _ := p.IconByName("D1")
	p.Compare.Icon = db.ID // unit 0 is not a reduction
	wantRule(t, pipeDiags(c, d, p), RuleCompareSpec)
}

func TestCheckDocumentFlow(t *testing.T) {
	c := newChecker(t)
	d, _ := buildAXPY(t)
	d.Flow = []diagram.FlowOp{
		{Label: "loop", Pipe: 0, Cond: diagram.CondFlagClear, Flag: 1, Branch: "loop"},
		{Pipe: -1, Cond: diagram.CondHalt},
	}
	if es := Errors(c.CheckDocument(d)); len(es) > 0 {
		t.Fatalf("legal flow rejected: %v", es)
	}
	d.Flow = append(d.Flow, diagram.FlowOp{Label: "loop", Pipe: 0})
	wantRule(t, c.CheckDocument(d), RuleFlow)

	d.Flow = []diagram.FlowOp{{Pipe: 7}}
	wantRule(t, c.CheckDocument(d), RuleFlow)

	d.Flow = []diagram.FlowOp{{Pipe: 0, Next: "ghost"}}
	wantRule(t, c.CheckDocument(d), RuleFlow)

	d.Flow = []diagram.FlowOp{{Pipe: 0, Cond: diagram.CondFlagSet, Flag: 1}}
	wantRule(t, c.CheckDocument(d), RuleFlow)
}

func TestAnalyzeEpochsAndDelays(t *testing.T) {
	c := newChecker(t)
	d, p := buildAXPY(t)
	an, diags := c.Analyze(d, p)
	if len(diags) > 0 {
		t.Fatalf("analyze diagnostics: %v", diags)
	}
	db, _ := p.IconByName("D1")
	mulPad := diagram.PadRef{Icon: db.ID, Pad: "u0.o"}
	addPad := diagram.PadRef{Icon: db.ID, Pad: "u1.o"}
	mulLat := arch.OpMul.Info().Latency
	addLat := arch.OpAdd.Info().Latency
	if got := an.L[mulPad]; got != mulLat {
		t.Errorf("L(mul) = %d, want %d", got, mulLat)
	}
	if got := an.L[addPad]; got != mulLat+addLat {
		t.Errorf("L(add) = %d, want %d", got, mulLat+addLat)
	}
	// The adder's B input (straight from memory, epoch 0) must be
	// delayed to match the mul output (epoch mulLat): the skew the
	// paper's users computed by hand.
	if got := an.HWDelayB[addPad]; got != mulLat {
		t.Errorf("hw delay B = %d, want %d", got, mulLat)
	}
	if got := an.HWDelayA[addPad]; got != 0 {
		t.Errorf("hw delay A = %d, want 0", got)
	}
	if an.VectorLen != 1000 {
		t.Errorf("vector len = %d, want 1000", an.VectorLen)
	}
	if an.MaxEpoch < mulLat+addLat {
		t.Errorf("max epoch = %d", an.MaxEpoch)
	}
	if len(an.Order) == 0 {
		t.Error("empty topological order")
	}
}

func TestAnalyzeIntendedShiftPreserved(t *testing.T) {
	// A wire delay is an intended element shift: the hardware delay on
	// that input must carry it on top of any alignment correction.
	c := newChecker(t)
	d := diagram.NewDocument("x")
	p := d.AddPipeline("p")
	m, _ := p.AddIcon(diagram.IconMemPlane, "M", 0, 0)
	m.RdDMA = &diagram.DMASpec{Stride: 1, Count: 100}
	s, _ := p.AddIcon(diagram.IconSinglet, "S", 0, 0)
	s.Units[0] = diagram.UnitConfig{Op: arch.OpAdd}
	if _, err := p.Connect(diagram.PadRef{Icon: m.ID, Pad: "rd"}, diagram.PadRef{Icon: s.ID, Pad: "u0.a"}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Connect(diagram.PadRef{Icon: m.ID, Pad: "rd"}, diagram.PadRef{Icon: s.ID, Pad: "u0.b"}, 3); err != nil {
		t.Fatal(err)
	}
	an, diags := c.Analyze(d, p)
	if len(diags) > 0 {
		t.Fatal(diags)
	}
	pad := diagram.PadRef{Icon: s.ID, Pad: "u0.o"}
	// Both inputs come from epoch 0; intended shifts are 0 and 3. The
	// unit's epoch is driven by the A side (0 − 0 = 0 > 0 − 3).
	if got := an.HWDelayA[pad]; got != 0 {
		t.Errorf("hw delay A = %d, want 0", got)
	}
	if got := an.HWDelayB[pad]; got != 3 {
		t.Errorf("hw delay B = %d, want 3 (the intended shift)", got)
	}
}

func TestCheckHWDelayOverflow(t *testing.T) {
	// Chain enough high-latency units on one side that the other side's
	// balancing delay exceeds the register file.
	c := newChecker(t)
	d := diagram.NewDocument("x")
	p := d.AddPipeline("p")
	m, _ := p.AddIcon(diagram.IconMemPlane, "M", 0, 0)
	m.RdDMA = &diagram.DMASpec{Stride: 1, Count: 100}
	prev := diagram.PadRef{Icon: m.ID, Pad: "rd"}
	// 6 divides in series: 72 cycles of latency.
	for i := 0; i < 6; i++ {
		sg, err := p.AddIcon(diagram.IconSinglet, "S"+strings.Repeat("x", i+1), 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		one := 1.0
		sg.Units[0] = diagram.UnitConfig{Op: arch.OpDiv, ConstB: &one}
		if _, err := p.Connect(prev, diagram.PadRef{Icon: sg.ID, Pad: "u0.a"}, 0); err != nil {
			t.Fatal(err)
		}
		prev = diagram.PadRef{Icon: sg.ID, Pad: "u0.o"}
	}
	// Hardware only has 4 singlets; use a doublet's units for the join.
	join, _ := p.AddIcon(diagram.IconDoublet, "J", 0, 0)
	join.Units[0] = diagram.UnitConfig{Op: arch.OpAdd}
	if _, err := p.Connect(prev, diagram.PadRef{Icon: join.ID, Pad: "u0.a"}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Connect(diagram.PadRef{Icon: m.ID, Pad: "rd"}, diagram.PadRef{Icon: join.ID, Pad: "u0.b"}, 0); err != nil {
		t.Fatal(err)
	}
	diags := pipeDiags(c, d, p)
	wantRule(t, diags, RuleHWDelay)
	wantRule(t, diags, RuleInventory) // 6 singlets placed, 4 exist
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Rule: "R001", Severity: Error, Pipe: 2, Icon: 3, Msg: "boom"}
	s := d.String()
	for _, want := range []string{"error", "R001", "pipe 2", "icon #3", "boom"} {
		if !strings.Contains(s, want) {
			t.Errorf("diagnostic %q missing %q", s, want)
		}
	}
	w := Diagnostic{Rule: "R015", Severity: Warning, Pipe: 0, Icon: -1, Msg: "meh"}
	if strings.Contains(w.String(), "icon") {
		t.Errorf("non-icon diagnostic mentions icon: %q", w.String())
	}
	if !strings.Contains(w.String(), "warning") {
		t.Errorf("warning not labelled: %q", w.String())
	}
}

func TestCheckDocumentLoopFlow(t *testing.T) {
	c := newChecker(t)
	d, _ := buildAXPY(t)
	// Legal counted loop.
	d.Flow = []diagram.FlowOp{
		{Label: "init", Pipe: -1, Ctr: 1, CtrLoad: true, CtrValue: 10},
		{Label: "body", Pipe: 0, Cond: diagram.CondLoop, Ctr: 1, Branch: "body"},
		{Pipe: -1, Cond: diagram.CondHalt},
	}
	if es := Errors(c.CheckDocument(d)); len(es) > 0 {
		t.Fatalf("legal counted loop rejected: %v", es)
	}
	// Loop without a branch label.
	d.Flow[1].Branch = ""
	wantRule(t, c.CheckDocument(d), RuleFlow)
	d.Flow[1].Branch = "body"
	// Counter out of range.
	d.Flow[1].Ctr = 4
	wantRule(t, c.CheckDocument(d), RuleFlow)
	d.Flow[1].Ctr = 1
	// Load value out of range.
	d.Flow[0].CtrValue = 1 << 24
	wantRule(t, c.CheckDocument(d), RuleFlow)
}
