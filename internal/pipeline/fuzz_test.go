package pipeline

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/arch"
	"repro/internal/compiler"
	"repro/internal/diag"
	"repro/internal/microcode"
)

// FuzzPipeline feeds the parser's fuzz corpus through the whole
// source-to-microcode path: whatever the front end accepts must either
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

		// Two independent pipelines (no shared cache) must agree on
		// success/failure, program bits and diagnostics.
		run := func() (*Result, error) {
			pl := New(inv)
			pl.Cache = nil
			return pl.CompileSource([]string{src}, opt)
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

func hashProg(p *microcode.Program) string {
	h := sha256.New()
	if _, err := p.WriteTo(h); err != nil {
		panic(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}
