package pipeline

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/codegen"
	"repro/internal/compiler"
	"repro/internal/diag"
	"repro/internal/diagram"
	"repro/internal/editor"
	"repro/internal/microcode"
)

// FuzzPipeline feeds the parser's fuzz corpus through the whole
// source-to-microcode path, compiler.CompileProgram and then
// CompileDocument: whatever the front end accepts must either
// compile to validated microcode or fail with a typed diagnostic —
// never panic — and a second run of the same input must produce the
// identical program and diagnostics (the determinism the compile
// cache's content addressing relies on).
func FuzzPipeline(f *testing.F) {
	seeds := []string{
		"v = u",
		"v = u@(1,0,0) + 2.5*f - abs(w)",
		"v = max(u, min(w, 1e-3))",
		"v = ((((u))))",
		"v = -u * -3",
		"v = u@(-1,-1,-1) / 6",
		"v = 1 + ",
		"v == u",
		"@(1,2,3)",
		"v = u@(999999,0,0)",
		"v = u * (1e308 * 10)",
		"v = u@(20000000,0,0)",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	inv := arch.MustInventory(arch.Default())
	f.Fuzz(func(t *testing.T, src string) {
		st, err := compiler.Parse(src)
		if err != nil {
			// The parser must reject with a typed record.
			if diag.AsDiagnostic(err, "").Rule != diag.RuleParseSyntax {
				t.Fatalf("Parse(%q): untyped rejection %v", src, err)
			}
			return
		}
		planes := map[string]int{}
		for i, name := range st.Vars() {
			if _, ok := planes[name]; !ok {
				planes[name] = i % int(inv.Cfg.MemPlanes)
			}
		}
		opt := compiler.Options{N: 8, Nz: 4, Planes: planes}

		// Two independent compiles (no shared cache) must agree on
		// success/failure, program bits and diagnostics.
		run := func() (*Result, error) {
			prog, err := compiler.CompileProgram([]string{src}, inv, opt)
			if err != nil {
				return nil, err
			}
			return New(inv).CompileDocument(prog.Doc)
		}
		res1, err1 := run()
		res2, err2 := run()
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("compile of %q is nondeterministic: %v vs %v", src, err1, err2)
		}
		if err1 != nil {
			if diag.AsDiagnostic(err1, "").Rule == "" {
				t.Fatalf("compile of %q failed untyped: %v", src, err1)
			}
			if err1.Error() != err2.Error() {
				t.Fatalf("compile of %q: divergent errors %q vs %q", src, err1, err2)
			}
			return
		}
		if h1, h2 := hashProg(res1.Prog), hashProg(res2.Prog); h1 != h2 {
			t.Fatalf("compile of %q: divergent microcode %s vs %s", src, h1, h2)
		}
		if err := res1.Prog.Validate(); err != nil {
			t.Fatalf("compile of %q produced invalid microcode: %v", src, err)
		}
	})
}

// smokeScript is a complete one-pipeline document (v = 3·u); its read
// channel is icon 0 and its singlet icon 2.
const smokeScript = `doc smoke
var u plane=0 base=0 len=16
var v plane=1 base=0 len=16
place memplane Mu at 1 2 plane=0
place memplane Mv at 40 2 plane=1
place singlet S at 20 2
op S.u0 mul constb=3
connect Mu.rd -> S.u0.a
connect S.u0.o -> Mv.wr
dma Mu rd var=u stride=1 count=16
dma Mv wr var=v stride=1 count=16
`

// cacheScript is smokeScript reading from a cache (icon 0) instead.
const cacheScript = `doc smoke
var v plane=1 base=0 len=16
place cache C at 1 2 plane=0
place memplane Mv at 40 2 plane=1
place singlet S at 20 2
op S.u0 mul constb=3
connect C.rd -> S.u0.a
connect S.u0.o -> Mv.wr
dma C rd buf=0 offset=0 stride=1 count=1
dma Mv wr var=v stride=1 count=1
`

// FuzzLoadCompile feeds document JSON through diagram.Load and
// CompileDocument, the nscasm -in path: every input must either
// compile to valid microcode or fail with a typed diagnostic, never
// panic. The seeds are the smoke document, variants that once
// crashed the checker or codegen (DMA values wider than their field,
// an invalid opcode, an unknown icon kind, missing units, and a wire
// between absent icons), and the storedRows edits the editor refuses.
func FuzzLoadCompile(f *testing.F) {
	inv := arch.MustInventory(arch.Default())
	seed := func(script string, mutate func(p *diagram.Pipeline)) {
		ed := editor.New(inv, "fuzz")
		if _, err := ed.ExecScript(strings.NewReader(script)); err != nil {
			f.Fatal(err)
		}
		mutate(ed.Doc.Pipes[0])
		var buf bytes.Buffer
		if err := ed.Doc.Save(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	readDMA := func(spec diagram.DMASpec) func(p *diagram.Pipeline) {
		return func(p *diagram.Pipeline) { p.Icons[0].RdDMA = &spec }
	}
	seed(smokeScript, func(*diagram.Pipeline) {})
	seed(smokeScript, readDMA(diagram.DMASpec{Var: "u", Stride: 70000, Count: 1}))
	seed(smokeScript, readDMA(diagram.DMASpec{Var: "u", Stride: 0, Count: 99999999}))
	seed(smokeScript, readDMA(diagram.DMASpec{Var: "u", Stride: 4, Count: 4611686018427387905}))
	seed(smokeScript, readDMA(diagram.DMASpec{Var: "u", Stride: 1, Count: 16, Skip: 16777216}))
	seed(cacheScript, readDMA(diagram.DMASpec{Stride: 200, Count: 1}))
	seed(cacheScript, readDMA(diagram.DMASpec{Stride: 1, Count: 1, Skip: 5000}))
	seed(smokeScript, func(p *diagram.Pipeline) { p.Icons[2].Units[0].Op = 99 })
	seed(smokeScript, func(p *diagram.Pipeline) { p.Icons[2].Kind = 77 })
	seed(smokeScript, func(p *diagram.Pipeline) { p.Icons[2].Units = nil })
	seed(smokeScript, func(p *diagram.Pipeline) {
		p.Wires = append(p.Wires, &diagram.Wire{From: diagram.PadRef{Icon: 99, Pad: "rd"}, To: diagram.PadRef{Icon: 98, Pad: "u0.a"}})
	})
	for _, row := range storedRows(inv.Cfg) {
		f.Add(storedBytes(f, inv, row))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		doc, err := diagram.Load(bytes.NewReader(data))
		if err != nil {
			if diag.AsDiagnostic(err, "").Rule == "" {
				t.Fatalf("Load failed untyped: %v", err)
			}
			return
		}
		res, err := New(inv).CompileDocument(doc)
		if err != nil {
			var ce *codegen.CheckError
			if !errors.As(err, &ce) && diag.AsDiagnostic(err, "").Rule == "" {
				t.Fatalf("compile failed untyped: %v", err)
			}
			return
		}
		if err := res.Prog.Validate(); err != nil {
			t.Fatalf("compiled program invalid: %v", err)
		}
	})
}

func hashProg(p *microcode.Program) string {
	h := sha256.New()
	if _, err := p.WriteTo(h); err != nil {
		panic(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}
