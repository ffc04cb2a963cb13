package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/jacobi"
)

const saxpyScript = `
doc saxpy
var u plane=0 base=0 len=4096
var w plane=1 base=0 len=4096
var v plane=2 base=0 len=4096
place memplane Mu at 2 4 plane=0
place memplane Mw at 2 12 plane=1
place memplane Mv at 44 8 plane=2
place doublet D1 at 20 6
op D1.u0 mul constb=3
op D1.u1 add
connect Mu.rd -> D1.u0.a
connect D1.u0.o -> D1.u1.a
connect Mw.rd -> D1.u1.b
connect D1.u1.o -> Mv.wr
dma Mu rd var=u stride=1 count=256
dma Mw rd var=w stride=1 count=256
dma Mv wr var=v stride=1 count=256
`

func TestEnvironmentEndToEnd(t *testing.T) {
	env := MustNew(arch.Default())
	u := make([]float64, 256)
	w := make([]float64, 256)
	for i := range u {
		u[i] = float64(i)
		w[i] = 1
	}
	if err := env.Node.WriteWords(0, 0, u); err != nil {
		t.Fatal(err)
	}
	if err := env.Node.WriteWords(1, 0, w); err != nil {
		t.Fatal(err)
	}
	prog, res, err := env.BuildAndRun(saxpyScript, 10)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Len() != 1 || res.Executed != 1 {
		t.Errorf("prog %d instrs, executed %d", prog.Len(), res.Executed)
	}
	got, _ := env.Node.ReadWords(2, 0, 256)
	for i := range got {
		if got[i] != 3*u[i]+w[i] {
			t.Fatalf("v[%d] = %g", i, got[i])
		}
	}
}

func TestEnvironmentCheckAndRenders(t *testing.T) {
	env := MustNew(arch.Default())
	if _, err := env.Script(saxpyScript); err != nil {
		t.Fatal(err)
	}
	if diags := env.Check(); len(diags) != 0 {
		t.Errorf("clean script yielded %v", diags)
	}
	win := env.Window()
	if !strings.Contains(win, "CONTROL PANEL") {
		t.Error("window render broken")
	}
	art, err := env.RenderPipeline(0)
	if err != nil || !strings.Contains(art, "D1") {
		t.Errorf("pipeline render: %v", err)
	}
	svg, err := env.RenderSVG(0)
	if err != nil || !strings.HasPrefix(svg, "<svg") {
		t.Errorf("svg render: %v", err)
	}
	if _, err := env.RenderPipeline(7); err == nil {
		t.Error("render of missing pipeline accepted")
	}
	if _, err := env.RenderSVG(7); err == nil {
		t.Error("svg of missing pipeline accepted")
	}
}

func TestEnvironmentSaveLoadDocument(t *testing.T) {
	env := MustNew(arch.Default())
	if _, err := env.Script(saxpyScript); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := env.SaveDocument(&buf); err != nil {
		t.Fatal(err)
	}
	env2 := MustNew(arch.Default())
	if err := env2.LoadDocument(&buf); err != nil {
		t.Fatal(err)
	}
	if env2.Ed.Doc.Name != "saxpy" {
		t.Errorf("loaded doc name %q", env2.Ed.Doc.Name)
	}
	if _, _, err := env2.Generate(); err != nil {
		t.Errorf("loaded document does not generate: %v", err)
	}
	if err := env2.LoadDocument(strings.NewReader("garbage")); err == nil {
		t.Error("garbage document loaded")
	}
}

func TestEnvironmentGenerateRefusesBrokenDoc(t *testing.T) {
	env := MustNew(arch.Default())
	broken := strings.Replace(saxpyScript, "connect Mw.rd -> D1.u1.b\n", "", 1)
	if _, err := env.Script(broken); err != nil {
		t.Fatal(err)
	}
	if _, _, err := env.Generate(); err == nil {
		t.Error("broken document generated")
	}
}

func TestEnvironmentTrace(t *testing.T) {
	env := MustNew(arch.Default())
	if _, err := env.Script(saxpyScript); err != nil {
		t.Fatal(err)
	}
	u := make([]float64, 256)
	for i := range u {
		u[i] = float64(i)
	}
	if err := env.Node.WriteWords(0, 0, u); err != nil {
		t.Fatal(err)
	}
	out, err := env.Trace(0, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"element 7", "Mu.rd", "= 7", "D1.u1.o"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q:\n%s", want, out)
		}
	}
	if _, err := env.Trace(9, 0); err == nil {
		t.Error("trace of missing pipeline accepted")
	}
}

func TestEnvironmentJacobiWorkflow(t *testing.T) {
	// The Figure 3 loop applied to the paper's example: script from the
	// jacobi generator, full generate + run in the environment.
	env := MustNew(arch.Default())
	p := jacobi.NewModelProblem(6, 1e-3, 200)
	if _, err := env.Script(p.Script()); err != nil {
		t.Fatal(err)
	}
	prog, rep, err := env.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Pipes) != 2 {
		t.Errorf("report pipes = %d", len(rep.Pipes))
	}
	if err := p.Load(env.Node); err != nil {
		t.Fatal(err)
	}
	res, err := env.Execute(prog, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !env.Node.Flag(1) {
		t.Error("convergence flag not raised")
	}
	ref := p.Reference()
	if int(res.Executed)-1 != ref.Iters {
		t.Errorf("executed %d sweeps, reference %d", res.Executed-1, ref.Iters)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	cfg := arch.Default()
	cfg.TotalFUs = 3
	if _, err := New(cfg); err == nil {
		t.Error("bad config accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNew should panic")
		}
	}()
	MustNew(cfg)
}
