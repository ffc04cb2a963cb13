package diagram

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/diag"
)

func TestIconKindNamesRoundTrip(t *testing.T) {
	for _, k := range AllKinds() {
		got, ok := KindByName(k.String())
		if !ok || got != k {
			t.Errorf("KindByName(%q) = %v,%v", k.String(), got, ok)
		}
	}
	if _, ok := KindByName("transmogrifier"); ok {
		t.Error("bogus kind resolved")
	}
}

func TestIconKindALSMapping(t *testing.T) {
	cases := []struct {
		k    IconKind
		want arch.ALSKind
		ok   bool
	}{
		{IconSinglet, arch.Singlet, true},
		{IconDoublet, arch.Doublet, true},
		{IconDoubletBypass, arch.Doublet, true},
		{IconTriplet, arch.Triplet, true},
		{IconMemPlane, 0, false},
		{IconCache, 0, false},
		{IconSDU, 0, false},
	}
	for _, tc := range cases {
		got, ok := tc.k.ALSKind()
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("%s.ALSKind() = %v,%v", tc.k, got, ok)
		}
	}
	if IconDoubletBypass.ActiveUnits() != 1 {
		t.Error("bypassed doublet should expose one programmable unit")
	}
	if IconTriplet.ActiveUnits() != 3 {
		t.Error("triplet should expose three units")
	}
	if IconMemPlane.ActiveUnits() != 0 {
		t.Error("memory plane has no units")
	}
}

func TestPadsPerKind(t *testing.T) {
	if got := len(IconTriplet.Pads()); got != 9 {
		t.Errorf("triplet pads = %d, want 9", got)
	}
	if got := len(IconDoubletBypass.Pads()); got != 3 {
		t.Errorf("bypassed doublet pads = %d, want 3", got)
	}
	if got := len(IconSDU.Pads()); got != 9 {
		t.Errorf("SDU pads = %d, want 9 (in + 8 taps)", got)
	}
	in, ok := IconMemPlane.PadDir("wr")
	if !ok || !in {
		t.Error("memplane wr should be an input pad")
	}
	in, ok = IconMemPlane.PadDir("rd")
	if !ok || in {
		t.Error("memplane rd should be an output pad")
	}
	if _, ok := IconMemPlane.PadDir("zz"); ok {
		t.Error("bogus pad resolved")
	}
}

// TestPadTables pins every kind's pad list — names, order and
// directions, an input marked "*" — and checks that an append to a
// shared list copies it and that PadDir allocates nothing.
func TestPadTables(t *testing.T) {
	want := map[IconKind]string{
		IconSinglet:       "u0.a* u0.b* u0.o",
		IconDoublet:       "u0.a* u0.b* u0.o u1.a* u1.b* u1.o",
		IconDoubletBypass: "u0.a* u0.b* u0.o",
		IconTriplet:       "u0.a* u0.b* u0.o u1.a* u1.b* u1.o u2.a* u2.b* u2.o",
		IconMemPlane:      "rd wr*",
		IconCache:         "rd wr*",
		IconSDU:           "in* t0 t1 t2 t3 t4 t5 t6 t7",
	}
	for _, k := range AllKinds() {
		var names []string
		for _, p := range k.Pads() {
			if p.Input {
				p.Name += "*"
			}
			names = append(names, p.Name)
		}
		if got := strings.Join(names, " "); got != want[k] {
			t.Errorf("%s pads %q, want %q", k, got, want[k])
		}
		pads := k.Pads()
		if cap(pads) != len(pads) {
			t.Errorf("%s: Pads() has spare capacity, so an append would write into the shared list", k)
		}
		last := pads[len(pads)-1].Name
		if allocs := testing.AllocsPerRun(50, func() { k.PadDir(last) }); allocs != 0 {
			t.Errorf("%s: PadDir makes %v allocs, want 0", k, allocs)
		}
	}
	if IconKind(-1).Pads() != nil || numIconKinds.Pads() != nil {
		t.Error("an unknown icon kind has pads")
	}
}

func TestUnitPadParsing(t *testing.T) {
	cases := []struct {
		pad        string
		slot, side int
		ok         bool
	}{
		{"u0.a", 0, 0, true},
		{"u1.b", 1, 1, true},
		{"u2.o", 2, 2, true},
		{"u9.a", 9, 0, true},
		{"rd", 0, 0, false},
		{"u0.x", 0, 0, false},
		{"ua.a", 0, 0, false},
		{"u10.a", 0, 0, false},
	}
	for _, tc := range cases {
		slot, side, ok := UnitPad(tc.pad)
		if ok != tc.ok || (ok && (slot != tc.slot || side != tc.side)) {
			t.Errorf("UnitPad(%q) = %d,%d,%v", tc.pad, slot, side, ok)
		}
	}
}

// TestPadNamesRoundTrip checks the pad vocabulary: every pad of every
// icon kind decomposes through UnitPad or TapPad and the name functions
// give it back, and a slot, side or tap no icon has names no pad.
func TestPadNamesRoundTrip(t *testing.T) {
	for _, k := range AllKinds() {
		for _, p := range k.Pads() {
			if slot, side, ok := UnitPad(p.Name); ok {
				if got := UnitPadName(slot, side); got != p.Name {
					t.Errorf("%s pad %q: UnitPadName(%d, %d) = %q", k, p.Name, slot, side, got)
				}
				if p.Input != (side != 2) {
					t.Errorf("%s pad %q: input %v, but side %d", k, p.Name, p.Input, side)
				}
				continue
			}
			if tap, ok := TapPad(p.Name); ok {
				if got := TapPadName(tap); got != p.Name {
					t.Errorf("%s pad %q: TapPadName(%d) = %q", k, p.Name, tap, got)
				}
				continue
			}
			switch p.Name {
			case "rd", "wr", "in":
			default:
				t.Errorf("%s pad %q is neither a unit, a tap nor a channel pad", k, p.Name)
			}
		}
	}
	for _, bad := range [][2]int{{-1, 0}, {3, 0}, {0, -1}, {0, 3}} {
		if got := UnitPadName(bad[0], bad[1]); got != "" {
			t.Errorf("UnitPadName(%d, %d) = %q, want \"\"", bad[0], bad[1], got)
		}
	}
	for _, bad := range []int{-1, 8} {
		if got := TapPadName(bad); got != "" {
			t.Errorf("TapPadName(%d) = %q, want \"\"", bad, got)
		}
	}
	for _, bad := range []string{"t8", "t-1", "t", "t01", "u0.a", "in"} {
		if _, ok := TapPad(bad); ok {
			t.Errorf("TapPad(%q) ok", bad)
		}
	}
}

func buildSample(t testing.TB) (*Document, *Pipeline) {
	t.Helper()
	d := NewDocument("sample")
	d.Declare(VarDecl{Name: "u", Plane: 0, Base: 0, Len: 1000})
	d.Declare(VarDecl{Name: "v", Plane: 1, Base: 0, Len: 1000})
	p := d.AddPipeline("axpy")
	if _, err := p.AddIcon(IconMemPlane, "M0", 2, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AddIcon(IconSinglet, "S1", 20, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AddIcon(IconMemPlane, "M1", 40, 10); err != nil {
		t.Fatal(err)
	}
	return d, p
}

func TestAddIconNamesUnique(t *testing.T) {
	_, p := buildSample(t)
	if _, err := p.AddIcon(IconSinglet, "S1", 0, 0); err == nil {
		t.Error("duplicate icon name accepted")
	}
	if _, err := p.AddIcon(IconSinglet, "", 0, 0); err == nil {
		t.Error("empty icon name accepted")
	}
}

func TestIconLookup(t *testing.T) {
	_, p := buildSample(t)
	ic, err := p.IconByName("S1")
	if err != nil {
		t.Fatal(err)
	}
	same, err := p.Icon(ic.ID)
	if err != nil || same != ic {
		t.Error("Icon by ID mismatch")
	}
	if _, err := p.Icon(999); err == nil {
		t.Error("bogus ID resolved")
	}
	if _, err := p.IconByName("nope"); err == nil {
		t.Error("bogus name resolved")
	}
}

func TestConnectRules(t *testing.T) {
	_, p := buildSample(t)
	m0, _ := p.IconByName("M0")
	s1, _ := p.IconByName("S1")
	m1, _ := p.IconByName("M1")

	if _, err := p.Connect(PadRef{m0.ID, "rd"}, PadRef{s1.ID, "u0.a"}, 0); err != nil {
		t.Fatalf("legal connect rejected: %v", err)
	}
	// Duplicate driver on the same input pad.
	if _, err := p.Connect(PadRef{m1.ID, "rd"}, PadRef{s1.ID, "u0.a"}, 0); err == nil {
		t.Error("double-driven pad accepted")
	}
	// Output-to-output.
	if _, err := p.Connect(PadRef{m0.ID, "rd"}, PadRef{s1.ID, "u0.o"}, 0); err == nil {
		t.Error("wire into an output pad accepted")
	}
	// Input as source.
	if _, err := p.Connect(PadRef{s1.ID, "u0.a"}, PadRef{m1.ID, "wr"}, 0); err == nil {
		t.Error("wire sourced at an input pad accepted")
	}
	// Unknown pads.
	if _, err := p.Connect(PadRef{m0.ID, "zz"}, PadRef{s1.ID, "u0.b"}, 0); err == nil {
		t.Error("unknown source pad accepted")
	}
	if _, err := p.Connect(PadRef{m0.ID, "rd"}, PadRef{s1.ID, "zz"}, 0); err == nil {
		t.Error("unknown target pad accepted")
	}
	// Unknown icons.
	if _, err := p.Connect(PadRef{99, "rd"}, PadRef{s1.ID, "u0.b"}, 0); err == nil {
		t.Error("unknown source icon accepted")
	}
	if _, err := p.Connect(PadRef{m0.ID, "rd"}, PadRef{99, "u0.b"}, 0); err == nil {
		t.Error("unknown target icon accepted")
	}
	// Negative delay.
	if _, err := p.Connect(PadRef{s1.ID, "u0.o"}, PadRef{m1.ID, "wr"}, -1); err == nil {
		t.Error("negative delay accepted")
	}
	// Fan-out from one source is legal.
	if _, err := p.Connect(PadRef{m0.ID, "rd"}, PadRef{s1.ID, "u0.b"}, 2); err != nil {
		t.Errorf("fan-out rejected: %v", err)
	}
	fanOut := 0
	for _, w := range p.Wires {
		if w.From == (PadRef{m0.ID, "rd"}) {
			fanOut++
		}
	}
	if fanOut != 2 {
		t.Errorf("wires from M0.rd = %d, want 2", fanOut)
	}
}

func TestDisconnect(t *testing.T) {
	_, p := buildSample(t)
	m0, _ := p.IconByName("M0")
	s1, _ := p.IconByName("S1")
	to := PadRef{s1.ID, "u0.a"}
	if _, err := p.Connect(PadRef{m0.ID, "rd"}, to, 0); err != nil {
		t.Fatal(err)
	}
	if err := p.Disconnect(to); err != nil {
		t.Fatal(err)
	}
	if p.WireTo(to) != nil {
		t.Error("wire survives disconnect")
	}
	if err := p.Disconnect(to); err == nil {
		t.Error("double disconnect accepted")
	}
}

func TestRemoveIconDropsWires(t *testing.T) {
	_, p := buildSample(t)
	m0, _ := p.IconByName("M0")
	s1, _ := p.IconByName("S1")
	m1, _ := p.IconByName("M1")
	mustConnect(t, p, PadRef{m0.ID, "rd"}, PadRef{s1.ID, "u0.a"}, 0)
	mustConnect(t, p, PadRef{s1.ID, "u0.o"}, PadRef{m1.ID, "wr"}, 0)
	p.Compare = &CompareSpec{Icon: s1.ID, Slot: 0, Op: "lt", Threshold: 1e-6}
	if err := p.RemoveIcon(s1.ID); err != nil {
		t.Fatal(err)
	}
	if len(p.Wires) != 0 {
		t.Errorf("%d wires survive icon removal", len(p.Wires))
	}
	if p.Compare != nil {
		t.Error("compare spec survives icon removal")
	}
	if err := p.RemoveIcon(s1.ID); err == nil {
		t.Error("double removal accepted")
	}
	// IDs are not recycled.
	ic, err := p.AddIcon(IconSinglet, "S2", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ic.ID == s1.ID {
		t.Error("icon ID recycled after removal")
	}
}

func mustConnect(t testing.TB, p *Pipeline, from, to PadRef, delay int) *Wire {
	t.Helper()
	w, err := p.Connect(from, to, delay)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestDeclareReplaces(t *testing.T) {
	d := NewDocument("x")
	d.Declare(VarDecl{Name: "u", Plane: 0, Len: 10})
	d.Declare(VarDecl{Name: "u", Plane: 5, Len: 20})
	if len(d.Decls) != 1 {
		t.Fatalf("decls = %d, want 1", len(d.Decls))
	}
	v, ok := d.Decl("u")
	if !ok || v.Plane != 5 || v.Len != 20 {
		t.Errorf("Decl = %+v,%v", v, ok)
	}
	if _, ok := d.Decl("w"); ok {
		t.Error("bogus decl resolved")
	}
}

func TestDocumentPipeLookup(t *testing.T) {
	d, _ := buildSample(t)
	if _, err := d.Pipe(0); err != nil {
		t.Error(err)
	}
	if _, err := d.Pipe(1); err == nil {
		t.Error("bogus pipe resolved")
	}
	if _, err := d.Pipe(-1); err == nil {
		t.Error("negative pipe resolved")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	d, p := buildSample(t)
	m0, _ := p.IconByName("M0")
	s1, _ := p.IconByName("S1")
	m1, _ := p.IconByName("M1")
	s1.Units[0] = UnitConfig{Op: arch.OpMul, ConstB: f64(2.5)}
	m0.RdDMA = &DMASpec{Var: "u", Offset: 0, Stride: 1, Count: 1000}
	m1.WrDMA = &DMASpec{Var: "v", Offset: 0, Stride: 1, Count: 1000}
	mustConnect(t, p, PadRef{m0.ID, "rd"}, PadRef{s1.ID, "u0.a"}, 0)
	mustConnect(t, p, PadRef{s1.ID, "u0.o"}, PadRef{m1.ID, "wr"}, 3)
	d.Flow = []FlowOp{{Label: "start", Pipe: 0, Cond: CondHalt}}

	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != d.Name || len(got.Pipes) != 1 || len(got.Decls) != 2 {
		t.Fatalf("round trip lost structure: %+v", got)
	}
	gp := got.Pipes[0]
	if len(gp.Icons) != 3 || len(gp.Wires) != 2 {
		t.Fatalf("round trip lost icons/wires")
	}
	gs1, err := gp.IconByName("S1")
	if err != nil {
		t.Fatal(err)
	}
	if gs1.Units[0].Op != arch.OpMul || gs1.Units[0].ConstB == nil || *gs1.Units[0].ConstB != 2.5 {
		t.Error("unit config lost in round trip")
	}
	// nextID restored: a fresh icon must not collide.
	ni, err := gp.AddIcon(IconSinglet, "fresh", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, ic := range gp.Icons[:len(gp.Icons)-1] {
		if ic.ID == ni.ID {
			t.Error("loaded document recycles icon IDs")
		}
	}
	if strings.Contains(buf.String(), "nextID") {
		t.Error("private bookkeeping leaked into the semantic output")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
}

// TestLoadRejectsMalformed covers the shapes the editor never writes
// and later stages used to crash on or silently drop. Each must fail
// R039 naming the pipeline and the icon.
func TestLoadRejectsMalformed(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(p *Pipeline)
		want   string
	}{
		{"invalid opcode", func(p *Pipeline) { p.Icons[1].Units[0].Op = 99 }, `icon #1 "S1" unit 0: invalid opcode 99`},
		{"unknown kind", func(p *Pipeline) { p.Icons[1].Kind = 77 }, `icon #1 "S1" has unknown kind 77`},
		{"missing units", func(p *Pipeline) { p.Icons[1].Units = nil }, `icon #1 "S1": a singlet needs 1 units, has 0`},
		{"absent wire endpoint", func(p *Pipeline) {
			p.Wires = append(p.Wires, &Wire{From: PadRef{99, "rd"}, To: PadRef{98, "u0.a"}})
		}, "names absent icon #99"},
		{"null icon", func(p *Pipeline) { p.Icons = append(p.Icons, nil) }, "null icon"},
		{"null wire", func(p *Pipeline) { p.Wires = append(p.Wires, nil) }, "null wire"},
	} {
		d, p := buildSample(t)
		tc.mutate(p)
		var buf bytes.Buffer
		if err := d.Save(&buf); err != nil {
			t.Fatal(err)
		}
		_, err := Load(&buf)
		if de, _ := err.(*diag.DiagError); de == nil || de.Rule() != diag.RuleDocIO ||
			!strings.Contains(de.Error(), "pipeline 0") || !strings.Contains(de.Error(), tc.want) {
			t.Errorf("%s: got %v, want %s naming pipeline 0 and %q", tc.name, err, diag.RuleDocIO, tc.want)
		}
	}
	if _, err := Load(strings.NewReader(`{"pipes":[null]}`)); err == nil {
		t.Error("null pipeline accepted")
	}
}

// TestLoadCheckAllocatesNothing: Load's icon and wire rules cost no
// allocation on a valid pipeline; undo and redo restore through Load.
func TestLoadCheckAllocatesNothing(t *testing.T) {
	_, p := buildSample(t)
	for _, w := range [][2]PadRef{{{0, "rd"}, {1, "u0.a"}}, {{1, "u0.o"}, {2, "wr"}}} {
		if _, err := p.Connect(w[0], w[1], 0); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := p.checkLoaded(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("checking a valid pipeline makes %v allocs, want 0", allocs)
	}
}

func f64(v float64) *float64 { return &v }

// Property: Connect never allows two wires into the same pad, for
// arbitrary connect/disconnect sequences.
func TestSingleDriverProperty(t *testing.T) {
	fn := func(ops []uint8) bool {
		d := NewDocument("prop")
		p := d.AddPipeline("p")
		m, _ := p.AddIcon(IconMemPlane, "M", 0, 0)
		s, _ := p.AddIcon(IconDoublet, "S", 0, 0)
		pads := []PadRef{{s.ID, "u0.a"}, {s.ID, "u0.b"}, {s.ID, "u1.a"}, {s.ID, "u1.b"}}
		for _, op := range ops {
			pad := pads[int(op)%len(pads)]
			if op%2 == 0 {
				p.Connect(PadRef{m.ID, "rd"}, pad, 0)
			} else {
				p.Disconnect(pad)
			}
		}
		seen := map[PadRef]int{}
		for _, w := range p.Wires {
			seen[w.To]++
			if seen[w.To] > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Error(err)
	}
}
