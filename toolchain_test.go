package repro_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/diagram"
	"repro/internal/editor"
	"repro/internal/hypercube"
	"repro/internal/jacobi"
	"repro/internal/microcode"
	"repro/internal/pipeline"
	"repro/internal/sim"
)

// TestToolchainRoundTrip exercises the nsced → nscasm → nscsim data
// path at the library level: an editor session saved as semantic JSON,
// reloaded, assembled to a binary microcode file, reloaded, and
// executed — the workflow the three CLI tools expose.
func TestToolchainRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := arch.Default()

	// Stage 1 (nsced): edit and save the semantic data structures.
	env := core.MustNew(cfg)
	script := `
doc toolchain
var u plane=0 base=0 len=512
var v plane=1 base=0 len=512
place memplane Mu at 1 2 plane=0
place memplane Mv at 40 2 plane=1
place doublet D at 18 1
op D.u0 mul constb=2
op D.u1 add constb=7
connect Mu.rd -> D.u0.a
connect D.u0.o -> D.u1.a
connect D.u1.o -> Mv.wr
dma Mu rd var=u stride=1 count=512
dma Mv wr var=v stride=1 count=512
`
	if _, err := env.Script(script); err != nil {
		t.Fatal(err)
	}
	docPath := filepath.Join(dir, "prog.json")
	f, err := os.Create(docPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := env.SaveDocument(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Stage 2 (nscasm): load the JSON, check, generate, save binary.
	df, err := os.Open(docPath)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := diagram.Load(df)
	df.Close()
	if err != nil {
		t.Fatal(err)
	}
	res, err := pipeline.New(arch.MustInventory(cfg)).CompileDocument(doc)
	if err != nil {
		t.Fatal(err)
	}
	prog := res.Prog
	binPath := filepath.Join(dir, "prog.nscm")
	bf, err := os.Create(binPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.WriteTo(bf); err != nil {
		t.Fatal(err)
	}
	bf.Close()

	// Stage 3 (nscsim): load the binary onto a fresh node and run.
	node := sim.MustNode(cfg)
	pf, err := os.Open(binPath)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := microcode.ReadProgram(pf, node.F)
	pf.Close()
	if err != nil {
		t.Fatal(err)
	}
	u := make([]float64, 512)
	for i := range u {
		u[i] = float64(i)
	}
	if err := node.WriteWords(0, 0, u); err != nil {
		t.Fatal(err)
	}
	if _, err := node.Run(loaded, 10); err != nil {
		t.Fatal(err)
	}
	v, err := node.ReadWords(1, 0, 512)
	if err != nil {
		t.Fatal(err)
	}
	for i := range v {
		if v[i] != 2*u[i]+7 {
			t.Fatalf("v[%d] = %g, want %g", i, v[i], 2*u[i]+7)
		}
	}

	// The saved JSON is readable semantic data: spot-check content.
	raw, err := os.ReadFile(docPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"name": "toolchain"`, `"kind": 1`, `"var": "u"`} {
		if !bytes.Contains(raw, []byte(want)) {
			t.Errorf("semantic JSON missing %q", want)
		}
	}
	// And the disassembly names everything a reviewer would look for.
	dis := loaded.Disassemble()
	for _, want := range []string{"mul", "add", "M0.rd", "M1.wr", "const"} {
		if !strings.Contains(dis, want) {
			t.Errorf("disassembly missing %q", want)
		}
	}
}

// TestDocumentedArchitectureClaims pins the README/DESIGN numbers.
func TestDocumentedArchitectureClaims(t *testing.T) {
	cfg := arch.Default()
	f := microcode.MustFormat(cfg)
	if f.Bits != 5292 {
		t.Errorf("instruction width %d bits; README/EXPERIMENTS say 5292 — update the docs", f.Bits)
	}
	if n := f.NumFields(); n != 682 {
		t.Errorf("field count %d; docs say 682", n)
	}
}

// TestSharedTablesUnchangedByUse runs a Jacobi solve on a fresh 8-rank
// machine and an editor session with undo, redo, copy, check and
// codegen, all on one Config's shared Inventory and Format, and then
// checks that both tables still equal freshly built ones. The fresh
// tables come from the same Config with another clock, which moves no
// field of either table but Cfg.
func TestSharedTablesUnchangedByUse(t *testing.T) {
	cfg := arch.Default()
	cfg.HypercubeDim = 3
	inv, err := arch.NewInventory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := microcode.NewFormat(cfg)
	if err != nil {
		t.Fatal(err)
	}

	m, err := hypercube.New(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	m.StopAfter = 12
	if _, err := m.SolveJacobi(jacobi.NewModelProblem(10, 1e-4, 12)); err != nil {
		t.Fatal(err)
	}
	ed := editor.New(inv, "session")
	if _, err := ed.ExecScript(strings.NewReader(`
var u plane=0 base=0 len=64
var v plane=1 base=0 len=64
place memplane Mu at 1 2 plane=0
place memplane Mv at 40 2 plane=1
place triplet T at 18 1
op T.u0 mul constb=2
op T.u2 maxabs reduce init=0
connect Mu.rd -> T.u0.a
connect T.u0.o -> T.u2.a
connect T.u0.o -> Mv.wr
dma Mu rd var=u stride=1 count=64
dma Mv wr var=v stride=1 count=64
compare T.u2 lt 0.5 flag=1
undo
redo
pipe copy 0
pipe 0
check
`)); err != nil {
		t.Fatal(err)
	}
	if _, err := pipeline.New(inv).CompileDocument(ed.Doc); err != nil {
		t.Fatal(err)
	}

	other := cfg
	other.ClockHz = 19.5e6
	freshInv, err := arch.NewInventory(other)
	if err != nil {
		t.Fatal(err)
	}
	freshF, err := microcode.NewFormat(other)
	if err != nil {
		t.Fatal(err)
	}
	if freshInv == inv || freshF == f {
		t.Fatal("a different Config returned the shared table")
	}
	if inv.Cfg != cfg || !reflect.DeepEqual(inv.ALSs, freshInv.ALSs) || !reflect.DeepEqual(inv.FUs, freshInv.FUs) {
		t.Error("the shared Inventory changed during use")
	}
	used := *f
	used.Cfg = other
	if f.Cfg != cfg || !reflect.DeepEqual(&used, freshF) {
		t.Error("the shared Format changed during use")
	}
}
