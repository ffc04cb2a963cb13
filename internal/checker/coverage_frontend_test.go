// The front-end rule-coverage gate: every diagnostic code declared in
// internal/diag/codes.go (the R030+ block that extends the checker's
// own R001–R024 rules) must be provably produced by at least one
// trigger here. Adding a code without a trigger — or retiring a code
// while its trigger still fires — fails the build. The external test
// package lets the triggers drive the real clients (compiler,
// pipeline, codegen, diagram) without import cycles.
package checker_test

import (
	"errors"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/codegen"
	"repro/internal/compiler"
	"repro/internal/diag"
	"repro/internal/diagram"
	"repro/internal/editor"
	"repro/internal/engine"
	"repro/internal/hypercube"
	"repro/internal/pipeline"
)

// declaredFrontendRules scans the shared vocabulary for rule-code
// constants, the same way the checker's own gate scans checker.go.
func declaredFrontendRules(t *testing.T) []string {
	t.Helper()
	src, err := os.ReadFile("../diag/codes.go")
	if err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(`Rule\w+\s*=\s*"(R0\d{2})"`)
	var codes []string
	seen := map[string]bool{}
	for _, m := range re.FindAllStringSubmatch(string(src), -1) {
		if !seen[m[1]] {
			seen[m[1]] = true
			codes = append(codes, m[1])
		}
	}
	if len(codes) == 0 {
		t.Fatal("no rule constants found in internal/diag/codes.go")
	}
	return codes
}

// codeOf requires err to be a typed diagnostic and returns its code.
func codeOf(t *testing.T, err error) string {
	t.Helper()
	if err == nil {
		t.Fatal("trigger produced no error")
	}
	var de *diag.DiagError
	if !errors.As(err, &de) {
		t.Fatalf("trigger error is untyped: %v", err)
	}
	return de.D.Rule
}

// sourceErr compiles statements through compiler.CompileProgram and
// the pipeline and returns the failure.
func sourceErr(t *testing.T, stmts []string, opt compiler.Options) error {
	t.Helper()
	inv := arch.MustInventory(arch.Default())
	prog, err := compiler.CompileProgram(stmts, inv, opt)
	if err != nil {
		return err
	}
	_, err = pipeline.New(inv).CompileDocument(prog.Doc)
	return err
}

// scriptDoc builds a document from editor commands.
func scriptDoc(t *testing.T, script string) *diagram.Document {
	t.Helper()
	ed := editor.New(arch.MustInventory(arch.Default()), "gate")
	if _, err := ed.ExecScript(strings.NewReader(script)); err != nil {
		t.Fatal(err)
	}
	return ed.Doc
}

// lowerChecked runs the codegen pass on a document from the analyses
// its check returns, as the pipeline's check and codegen passes do.
func lowerChecked(doc *diagram.Document) error {
	gen := codegen.New(arch.MustInventory(arch.Default()))
	_, ans := gen.Chk.Check(doc)
	_, _, err := gen.Lower(doc, ans)
	return err
}

var gridOpt = compiler.Options{N: 8, Nz: 4, Planes: map[string]int{"u": 0, "v": 1}}

// frontendCoverage maps each R030+ code to a trigger that must emit it.
var frontendCoverage = map[string]func(t *testing.T) error{
	diag.RuleParseSyntax: func(t *testing.T) error { // R030
		return sourceErr(t, []string{"v = u +"}, gridOpt)
	},
	diag.RuleConstExpr: func(t *testing.T) error { // R031
		return sourceErr(t, []string{"v = 1 + 2"}, gridOpt)
	},
	diag.RuleNoPlane: func(t *testing.T) error { // R032
		return sourceErr(t, []string{"v = q"}, gridOpt)
	},
	diag.RuleCapacity: func(t *testing.T) error { // R033
		return sourceErr(t, []string{"v = u@(999999,0,0)"}, gridOpt)
	},
	diag.RuleGenResource: func(t *testing.T) error { // R034
		// Nine distinct constants in one instruction overflow the
		// 8-slot constant pool during lowering.
		script := `
var u plane=0 base=0 len=64
var v plane=1 base=0 len=64
place memplane Mu at 1 2 plane=0
place memplane Mv at 70 2 plane=1
place triplet T1 at 14 1
place triplet T2 at 30 1
place triplet T3 at 46 1
op T1.u0 add constb=1
op T1.u1 add constb=2
op T1.u2 add constb=3
op T2.u0 add constb=4
op T2.u1 add constb=5
op T2.u2 add constb=6
op T3.u0 add constb=7
op T3.u1 add constb=8
op T3.u2 add constb=9
connect Mu.rd -> T1.u0.a
connect T1.u0.o -> T1.u1.a
connect T1.u1.o -> T1.u2.a
connect T1.u2.o -> T2.u0.a
connect T2.u0.o -> T2.u1.a
connect T2.u1.o -> T2.u2.a
connect T2.u2.o -> T3.u0.a
connect T3.u0.o -> T3.u1.a
connect T3.u1.o -> T3.u2.a
connect T3.u2.o -> Mv.wr
dma Mu rd var=u stride=1 count=64
dma Mv wr var=v stride=1 count=64
`
		return lowerChecked(scriptDoc(t, script))
	},
	diag.RuleGenStruct: func(t *testing.T) error { // R035
		// A write-side DMA program with nothing wired to the write
		// port: structurally inconsistent at lowering time.
		script := `
var u plane=0 base=0 len=64
var v plane=1 base=0 len=64
place memplane Mu at 1 2 plane=0
place memplane Mv at 40 2 plane=1
place singlet S at 18 1
op S.u0 add constb=1
connect Mu.rd -> S.u0.a
dma Mu rd var=u stride=1 count=64
dma Mv wr var=v stride=1 count=64
`
		return lowerChecked(scriptDoc(t, script))
	},
	diag.RuleFlowGen: func(t *testing.T) error { // R036
		return lowerChecked(diagram.NewDocument("empty"))
	},
	diag.RuleDiagram: func(t *testing.T) error { // R037
		d := diagram.NewDocument("x")
		p := d.AddPipeline("p")
		_, err := p.AddIcon(diagram.IconSinglet, "", 0, 0)
		return err
	},
	diag.RuleProgram: func(t *testing.T) error { // R038
		return sourceErr(t, nil, gridOpt)
	},
	diag.RuleDocIO: func(t *testing.T) error { // R039
		_, err := diagram.Load(strings.NewReader("{not json"))
		return err
	},
	diag.RuleFaultPlan: func(t *testing.T) error { // R040
		_, err := engine.ParseFaultPlan("teleport:kill@1:0")
		return err
	},
	diag.RuleNonFinite: func(t *testing.T) error { // R041
		return sourceErr(t, []string{"v = u * (1e308 * 10)"}, gridOpt)
	},
	diag.RuleCheckpoint: func(t *testing.T) error { // R042
		_, err := hypercube.ReadCheckpoint(strings.NewReader("not a checkpoint"))
		return err
	},
}

// TestFrontendRuleCoverage cross-checks the trigger table against the
// declared codes: no untested code, no stale trigger.
func TestFrontendRuleCoverage(t *testing.T) {
	for _, code := range declaredFrontendRules(t) {
		var name string
		var trigger func(t *testing.T) error
		for rule, fn := range frontendCoverage {
			if rule == code {
				name, trigger = rule, fn
				break
			}
		}
		if trigger == nil {
			t.Errorf("code %s declared in internal/diag/codes.go has no coverage trigger", code)
			continue
		}
		t.Run(code, func(t *testing.T) {
			got := codeOf(t, trigger(t))
			if got != name {
				t.Errorf("trigger for %s produced %s", name, got)
			}
		})
	}
	for rule := range frontendCoverage {
		found := false
		for _, code := range declaredFrontendRules(t) {
			if code == rule {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("trigger table covers %s but internal/diag/codes.go no longer declares it", rule)
		}
	}
}
