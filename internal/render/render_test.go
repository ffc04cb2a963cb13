package render

import (
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/diagram"
	"repro/internal/editor"
)

func sample(t testing.TB) (*editor.Editor, *diagram.Pipeline) {
	t.Helper()
	ed := editor.New(arch.MustInventory(arch.Default()), "render-test")
	script := `
var u plane=0 base=0 len=4096
var v plane=1 base=0 len=4096
place memplane Mu at 1 2 plane=0
place memplane Mv at 46 3 plane=1
place doublet D1 at 20 1
place sdu Z at 1 8
op D1.u0 mul constb=0.5
op D1.u1 add reduce init=0
connect Mu.rd -> D1.u0.a
connect D1.u0.o -> Mv.wr
dma Mu rd var=u stride=1 count=100
dma Mv wr var=v stride=1 count=100
`
	if _, err := ed.ExecScript(strings.NewReader(script)); err != nil {
		t.Fatal(err)
	}
	z, _ := ed.Current().IconByName("Z")
	z.Taps = []int{0, 1, 4}
	return ed, ed.Current()
}

func TestCanvasPrimitives(t *testing.T) {
	c := NewCanvas(10, 4)
	c.Set(0, 0, 'x')
	c.Set(-1, -1, 'y') // ignored
	c.Set(10, 4, 'y')  // ignored
	if c.Get(0, 0) != 'x' {
		t.Error("Set/Get broken")
	}
	if c.Get(-1, 0) != ' ' {
		t.Error("out-of-bounds Get should be space")
	}
	c.Text(2, 1, "hello world ignored tail")
	if c.Get(2, 1) != 'h' || c.Get(9, 1) != 'o' {
		t.Error("Text broken")
	}
	c.Box(0, 0, 5, 3, '-', '|', '+')
	if c.Get(0, 0) != '+' || c.Get(2, 0) != '-' || c.Get(0, 1) != '|' {
		t.Error("Box broken")
	}
	s := c.String()
	if len(strings.Split(s, "\n")) != 5 {
		t.Error("String row count wrong")
	}
}

func TestLineCrossingsMarked(t *testing.T) {
	c := NewCanvas(10, 10)
	c.HLine(0, 9, 5)
	c.VLine(5, 0, 9)
	if c.Get(5, 5) != '+' {
		t.Errorf("crossing = %q", c.Get(5, 5))
	}
	if c.Get(2, 5) != '-' || c.Get(5, 2) != '|' {
		t.Error("line bodies wrong")
	}
	// Reversed coordinates still draw.
	c2 := NewCanvas(10, 10)
	c2.HLine(9, 0, 1)
	c2.VLine(1, 9, 0)
	if c2.Get(4, 1) != '-' || c2.Get(1, 4) != '|' {
		t.Error("reversed lines not drawn")
	}
}

func TestIconSizeAndPads(t *testing.T) {
	d := diagram.NewDocument("t")
	p := d.AddPipeline("t")
	tr, _ := p.AddIcon(diagram.IconTriplet, "T", 5, 3)
	w, h := IconSize(tr)
	if w != 14 || h != 10 {
		t.Errorf("triplet size = %d,%d", w, h)
	}
	// Every pad of every kind must have a position inside the icon's
	// bounding box.
	for _, k := range diagram.AllKinds() {
		ic, err := p.AddIcon(k, "x"+k.String(), 10, 10)
		if err != nil {
			t.Fatal(err)
		}
		if k == diagram.IconSDU {
			ic.Taps = []int{0, 1, 2, 3, 4, 5, 6, 7}
		}
		iw, ih := IconSize(ic)
		for _, pad := range k.Pads() {
			x, y, ok := PadPos(ic, pad.Name)
			if !ok {
				t.Errorf("%s pad %s has no position", k, pad.Name)
				continue
			}
			if x < ic.X || x > ic.X+iw || y < ic.Y || y > ic.Y+ih {
				t.Errorf("%s pad %s at (%d,%d) outside icon at (%d,%d) size (%d,%d)",
					k, pad.Name, x, y, ic.X, ic.Y, iw, ih)
			}
		}
		if _, _, ok := PadPos(ic, "nope"); ok {
			t.Errorf("%s resolved bogus pad", k)
		}
	}
}

func TestPipelineRenderShowsStructure(t *testing.T) {
	_, p := sample(t)
	out := Pipeline(p)
	for _, want := range []string{"Mu", "Mv", "D1", "mul", "add", "M[0]", "M[1]", "SDU"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// Wires drawn: at least some wire characters present.
	if !strings.Contains(out, "-") || !strings.Contains(out, "*") {
		t.Error("render lacks wires or pads")
	}
}

func TestNetlistRender(t *testing.T) {
	_, p := sample(t)
	out := Netlist(p)
	for _, want := range []string{"D1.u0 = mul(Mu.rd, 0.5)", "acc init=0", "plane 0", "taps=[0 1 4]"} {
		if !strings.Contains(out, want) {
			t.Errorf("netlist missing %q:\n%s", want, out)
		}
	}
}

func TestIconGalleryShowsAllKinds(t *testing.T) {
	out := IconGallery()
	for _, k := range diagram.AllKinds() {
		if !strings.Contains(out, k.String()) {
			t.Errorf("gallery missing %s", k)
		}
	}
	// The Figure 4 "double box" marking must be visible for the
	// integer-capable unit of multi-unit ALSs.
	if !strings.Contains(out, "=") {
		t.Error("gallery lacks double-box marking")
	}
}

func TestWindowLayout(t *testing.T) {
	ed, _ := sample(t)
	if _, err := ed.Exec("flow label=go pipe=0 cond=halt"); err != nil {
		t.Fatal(err)
	}
	out := Window(ed)
	for _, want := range []string{"DECLARATIONS", "CONTROL FLOW", "CONTROL PANEL", "singlet", "pipeline: 0/1", "u M[0]"} {
		if !strings.Contains(out, want) {
			t.Errorf("window missing %q", want)
		}
	}
	// Message strip shows the last event.
	if !strings.Contains(out, "flow") {
		t.Error("message strip missing last command")
	}
	// All rows share the same display width (box alignment); rune
	// count, not bytes — the double-box '‖' is multibyte.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	w := len([]rune(lines[0]))
	for i, l := range lines {
		if n := len([]rune(l)); n != w {
			t.Errorf("line %d width %d != %d", i, n, w)
		}
	}
}

func TestDatapathDiagram(t *testing.T) {
	cfg := arch.Default()
	out := Datapath(cfg.Nodes(), cfg.MemPlanes, cfg.PlaneBytes>>20, cfg.CachePlanes,
		cfg.CacheBytes>>10, cfg.ShiftDelayUnits, cfg.Triplets, cfg.Doublets, cfg.Singlets)
	for _, want := range []string{"Hyperspace Router", "FLONET", "Shift/Delay", "64 nodes", "16x128MB"} {
		if !strings.Contains(out, want) {
			t.Errorf("datapath missing %q:\n%s", want, out)
		}
	}
}

func TestSVGWellFormed(t *testing.T) {
	_, p := sample(t)
	out := SVG(p)
	if !strings.HasPrefix(out, "<svg") || !strings.HasSuffix(out, "</svg>") {
		t.Fatal("not an svg document")
	}
	for _, want := range []string{"<rect", "<polyline", "<circle", "mul"} {
		if !strings.Contains(out, want) {
			t.Errorf("svg missing %q", want)
		}
	}
	if strings.Count(out, "<rect") < 4 {
		t.Error("too few rects for the sample diagram")
	}
	// Escaping: no raw name leakage breaking XML.
	p.Label = "a<b&c"
	out = SVG(p)
	if strings.Contains(out, "a<b&c") {
		t.Error("unescaped label in svg")
	}
	if !strings.Contains(out, "a&lt;b&amp;c") {
		t.Error("escaped label missing")
	}
}

func TestSVGCompareAnnotation(t *testing.T) {
	_, p := sample(t)
	p.Compare = &diagram.CompareSpec{Icon: 2, Slot: 1, Op: "lt", Threshold: 1e-6, Flag: 1}
	out := SVG(p)
	if !strings.Contains(out, "flag 1") {
		t.Error("compare annotation missing")
	}
	outA := Pipeline(p)
	if !strings.Contains(outA, "compare") {
		t.Error("ascii compare annotation missing")
	}
}

func TestStatsReport(t *testing.T) {
	cfg := arch.Default()
	st := simStats()
	out := StatsReport(st, cfg)
	for _, want := range []string{"instructions 3", "MFLOPS", "utilization", "fu0", "###"} {
		if !strings.Contains(out, want) {
			t.Errorf("stats report missing %q:\n%s", want, out)
		}
	}
	// Idle units are omitted from the bar chart.
	if strings.Contains(out, "fu5") {
		t.Error("idle unit listed")
	}
	// Empty stats render without the chart.
	empty := StatsReport(simEmptyStats(), cfg)
	if strings.Contains(empty, "fu0") {
		t.Error("empty stats grew a chart")
	}
}
