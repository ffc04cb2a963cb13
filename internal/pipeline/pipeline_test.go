package pipeline_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/checker"
	"repro/internal/codegen"
	"repro/internal/compiler"
	"repro/internal/diag"
	"repro/internal/diagram"
	"repro/internal/editor"
	"repro/internal/jacobi"
	"repro/internal/microcode"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

func progHash(t *testing.T, p *microcode.Program) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
}

func goldenHashes(t *testing.T) map[string]string {
	t.Helper()
	b, err := os.ReadFile("testdata/golden_fixtures.json")
	if err != nil {
		t.Fatal(err)
	}
	m := map[string]string{}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

const sduStencilSrc = "v = 0.25*(u@(1,0,0)+u@(-1,0,0)+u@(0,1,0)+u@(0,-1,0)) - w"

var sduStencilOpt = compiler.Options{N: 8, Nz: 4, Planes: map[string]int{"u": 0, "w": 1, "v": 2}}

var programMultiSrc = []string{
	"v = u@(1,0,0) + u@(-1,0,0) + u@(0,0,1)",
	"w = v*0.5 + u",
	"r = abs(w - v)",
}

var programMultiOpt = compiler.Options{N: 6, Nz: 4, Planes: map[string]int{"u": 0, "v": 1, "w": 2, "r": 3}}

// sourceDoc builds the document of a stencil program, the pipeline's
// input for source.
func sourceDoc(tb testing.TB, inv *arch.Inventory, stmts []string, opt compiler.Options) *diagram.Document {
	tb.Helper()
	prog, err := compiler.CompileProgram(stmts, inv, opt)
	if err != nil {
		tb.Fatal(err)
	}
	return prog.Doc
}

const flowScript = `
doc flowdoc
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
flow label=top pipe=0 loadctr=4
flow pipe=0 cond=loop ctr=0 branch=top
flow pipe=0 cond=halt
`

// TestGoldenEquivalence proves the pipeline emits bit-identical
// microcode to the pre-refactor direct codegen path: the hashes in
// testdata/golden_fixtures.json were captured from the seed tree
// before the pipeline existed. The two source programs reach the
// pipeline as documents built by compiler.CompileProgram.
func TestGoldenEquivalence(t *testing.T) {
	golden := goldenHashes(t)
	cfg := arch.Default()
	inv := arch.MustInventory(cfg)

	t.Run("jacobi-subset", func(t *testing.T) {
		subCfg := arch.Subset()
		subPl := pipeline.New(arch.MustInventory(subCfg))
		prob := jacobi.NewModelProblem(8, 1e-4, 10)
		doc, _, err := prob.SubsetBuild(subCfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := subPl.CompileDocument(doc)
		if err != nil {
			t.Fatal(err)
		}
		if h := progHash(t, res.Prog); h != golden["jacobi-subset"] {
			t.Errorf("hash %s, golden %s", h, golden["jacobi-subset"])
		}
	})

	t.Run("sdu-stencil", func(t *testing.T) {
		pl := pipeline.New(inv)
		res, err := pl.CompileDocument(sourceDoc(t, inv, []string{sduStencilSrc}, sduStencilOpt))
		if err != nil {
			t.Fatal(err)
		}
		if h := progHash(t, res.Prog); h != golden["sdu-stencil"] {
			t.Errorf("hash %s, golden %s", h, golden["sdu-stencil"])
		}
	})

	t.Run("program-multi", func(t *testing.T) {
		pl := pipeline.New(inv)
		res, err := pl.CompileDocument(sourceDoc(t, inv, programMultiSrc, programMultiOpt))
		if err != nil {
			t.Fatal(err)
		}
		if h := progHash(t, res.Prog); h != golden["program-multi"] {
			t.Errorf("hash %s, golden %s", h, golden["program-multi"])
		}
	})

	t.Run("document-flow", func(t *testing.T) {
		pl := pipeline.New(inv)
		ed := editor.New(inv, "flow")
		if _, err := ed.ExecScript(strings.NewReader(flowScript)); err != nil {
			t.Fatal(err)
		}
		res, err := pl.CompileDocument(ed.Doc)
		if err != nil {
			t.Fatal(err)
		}
		if h := progHash(t, res.Prog); h != golden["document-flow"] {
			t.Errorf("hash %s, golden %s", h, golden["document-flow"])
		}
	})
}

// TestCompileCache exercises the content-addressed compile cache: a
// repeat compile is a hit with identical bits, any input change is a
// miss, and counters track both.
func TestCompileCache(t *testing.T) {
	inv := arch.MustInventory(arch.Default())
	pl := pipeline.New(inv)
	doc := sourceDoc(t, inv, programMultiSrc, programMultiOpt)

	cold, err := pl.CompileDocument(doc)
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheHit {
		t.Error("first compile reported a cache hit")
	}
	warm, err := pl.CompileDocument(doc)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit {
		t.Error("repeat compile missed the cache")
	}
	if progHash(t, cold.Prog) != progHash(t, warm.Prog) {
		t.Error("cache hit returned different microcode")
	}
	st := pl.Cache.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want hits=1 misses=1 entries=1", st)
	}

	// A mutated cached program must not corrupt the cache.
	warm.Prog.Instrs[0].W[0] ^= 0xFFFF
	again, err := pl.CompileDocument(doc)
	if err != nil {
		t.Fatal(err)
	}
	if progHash(t, again.Prog) != progHash(t, cold.Prog) {
		t.Error("mutating a hit's program corrupted the cached copy")
	}

	// Different planes → a different document, so a different key.
	opt2 := programMultiOpt
	opt2.Planes = map[string]int{"u": 0, "v": 1, "w": 2, "r": 4}
	if _, err := pl.CompileDocument(sourceDoc(t, inv, programMultiSrc, opt2)); err != nil {
		t.Fatal(err)
	}
	if st := pl.Cache.Stats(); st.Entries != 2 {
		t.Errorf("entries = %d after distinct compile, want 2", st.Entries)
	}

	pl.Cache.Reset()
	if st := pl.Cache.Stats(); st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Errorf("stats after reset = %+v", st)
	}
}

// TestDocumentCache covers editing: an edit invalidates, an unchanged
// document hits.
func TestDocumentCache(t *testing.T) {
	inv := arch.MustInventory(arch.Default())
	pl := pipeline.New(inv)
	ed := editor.New(inv, "flow")
	if _, err := ed.ExecScript(strings.NewReader(flowScript)); err != nil {
		t.Fatal(err)
	}
	if _, err := pl.CompileDocument(ed.Doc); err != nil {
		t.Fatal(err)
	}
	res, err := pl.CompileDocument(ed.Doc)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Error("unchanged document missed the cache")
	}
	// Any semantic edit invalidates.
	if _, err := ed.Exec("op D.u1 add constb=9"); err != nil {
		t.Fatal(err)
	}
	res, err = pl.CompileDocument(ed.Doc)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit {
		t.Error("edited document served from the cache")
	}
}

// TestPassTimings verifies the pass framework reports every pass, in
// order, and counts each pass once in the obs layer.
func TestPassTimings(t *testing.T) {
	inv := arch.MustInventory(arch.Default())
	pl := pipeline.New(inv)
	pl.Obs = obs.New()

	res, err := pl.CompileDocument(sourceDoc(t, inv, []string{sduStencilSrc}, sduStencilOpt))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"check", "codegen", "validate"}
	if len(res.Passes) != len(want) {
		t.Fatalf("got %d passes, want %d", len(res.Passes), len(want))
	}
	for i, pt := range res.Passes {
		if pt.Name != want[i] {
			t.Errorf("pass %d = %q, want %q", i, pt.Name, want[i])
		}
	}
	totals := pl.Obs.Reg.Totals()
	for _, name := range want {
		if n := totals["counter/pipeline.pass."+name]; n != 1 {
			t.Errorf("pipeline.pass.%s counted %d runs, want 1", name, n)
		}
	}
}

// TestDiagnosticsTyped asserts each front-end layer surfaces its
// stable rule code on the error compiler.CompileProgram returns. The
// non-finite case is a constant folding to +Inf, which the compiler's
// editor must reject before its undo snapshot has to serialize it.
func TestDiagnosticsTyped(t *testing.T) {
	inv := arch.MustInventory(arch.Default())
	cases := []struct {
		name  string
		stmts []string
		opt   compiler.Options
		rule  string
	}{
		{"parse-syntax", []string{"v = u +"}, sduStencilOpt, diag.RuleParseSyntax},
		{"const-expr", []string{"v = 1 + 2"}, sduStencilOpt, diag.RuleConstExpr},
		{"no-plane", []string{"v = q"}, sduStencilOpt, diag.RuleNoPlane},
		{"bad-grid", []string{"v = u"}, compiler.Options{N: 0, Nz: 0, Planes: sduStencilOpt.Planes}, diag.RuleProgram},
		{"plane-range", []string{"v = u"}, compiler.Options{N: 8, Nz: 4, Planes: map[string]int{"u": 99, "v": 1}}, diag.RuleCapacity},
		{"plane-overflow", []string{"v = u@(20000000,0,0)"}, sduStencilOpt, diag.RuleCapacity},
		{"non-finite", []string{"v = u * (1e308 * 10)"}, sduStencilOpt, diag.RuleNonFinite},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := compiler.CompileProgram(tc.stmts, inv, tc.opt)
			if err == nil {
				t.Fatal("compile succeeded, want error")
			}
			if got := diag.AsDiagnostic(err, "").Rule; got != tc.rule {
				t.Errorf("error %q has rule %q, want %s", err, got, tc.rule)
			}
		})
	}
}

// TestFailedCompileNotCached ensures errors are never served from the
// cache: a document whose check fails stores no entry, and compiling
// it again runs the passes again.
func TestFailedCompileNotCached(t *testing.T) {
	inv := arch.MustInventory(arch.Default())
	pl := pipeline.New(inv)
	doc := sourceDoc(t, inv, programMultiSrc, programMultiOpt)
	doc.Flow[0].Ctr = 7 // no such loop counter
	for i := 0; i < 2; i++ {
		res, err := pl.CompileDocument(doc)
		var ce *codegen.CheckError
		if !errors.As(err, &ce) || ce.Diags[0].Rule != checker.RuleFlow {
			t.Fatalf("compile error %v, want a %s check error", err, checker.RuleFlow)
		}
		if res.CacheHit {
			t.Fatal("a failed compile was served from the cache")
		}
	}
	if st := pl.Cache.Stats(); st.Entries != 0 || st.Misses != 2 {
		t.Errorf("after two failed compiles stats = %+v, want no entry and two misses", st)
	}
}

// BenchmarkCompileCache times, in each iteration, a cold compile of a
// document (the cache reset first) and a warm one (a hit), and reports
// both and their ratio. A hit still hashes the document's JSON form,
// so the ratio is about 0.4, not orders of magnitude. CI's bench-smoke
// runs it.
func BenchmarkCompileCache(b *testing.B) {
	inv := arch.MustInventory(arch.Default())
	jdoc, _, err := jacobi.NewBoxProblem(8, 4, 1e-6, 1).BuildDocument(inv.Cfg)
	if err != nil {
		b.Fatal(err)
	}
	docs := []struct {
		name string
		doc  *diagram.Document
	}{
		{"program-multi", sourceDoc(b, inv, programMultiSrc, programMultiOpt)},
		{"jacobi-8x8x4", jdoc},
	}
	for _, d := range docs {
		b.Run(d.name, func(b *testing.B) {
			pl := pipeline.New(inv)
			var cold, warm time.Duration
			for i := 0; i < b.N; i++ {
				pl.Cache.Reset()
				t0 := time.Now()
				if _, err := pl.CompileDocument(d.doc); err != nil {
					b.Fatal(err)
				}
				t1 := time.Now()
				res, err := pl.CompileDocument(d.doc)
				if err != nil || !res.CacheHit {
					b.Fatalf("warm compile: hit %v, error %v", res != nil && res.CacheHit, err)
				}
				cold += t1.Sub(t0)
				warm += time.Since(t1)
			}
			b.ReportMetric(float64(cold.Microseconds())/float64(b.N), "cold-us/op")
			b.ReportMetric(float64(warm.Microseconds())/float64(b.N), "warm-us/op")
			b.ReportMetric(float64(warm)/float64(cold), "warm/cold")
		})
	}
}
