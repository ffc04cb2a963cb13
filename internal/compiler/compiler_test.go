package compiler

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/checker"
	"repro/internal/codegen"
	"repro/internal/jacobi"
	"repro/internal/pipeline"
	"repro/internal/sim"
)

func TestParseBasics(t *testing.T) {
	st, err := Parse("v = u@(1,0,0) + 2.5*f - abs(w)")
	if err != nil {
		t.Fatal(err)
	}
	if st.Dst != "v" {
		t.Errorf("dst = %q", st.Dst)
	}
	if st.Expr.Kind != "sub" {
		t.Errorf("root = %q", st.Expr.Kind)
	}
	if st.Expr.L.Kind != "add" || st.Expr.L.L.Kind != "var" || st.Expr.L.L.DX != 1 {
		t.Errorf("left subtree wrong: %+v", st.Expr.L)
	}
	if st.Expr.R.Kind != "abs" {
		t.Errorf("right = %q", st.Expr.R.Kind)
	}
}

func TestParsePrecedenceAndFolding(t *testing.T) {
	st, err := Parse("v = 1 + 2*3")
	if err != nil {
		t.Fatal(err)
	}
	if st.Expr.Kind != "num" || st.Expr.Val != 7 {
		t.Errorf("constant folding: %+v", st.Expr)
	}
	st, err = Parse("v = (1+2)*u")
	if err != nil {
		t.Fatal(err)
	}
	if st.Expr.Kind != "mul" || st.Expr.L.Val != 3 {
		t.Errorf("paren fold: %+v", st.Expr)
	}
	st, err = Parse("v = -3 * u")
	if err != nil {
		t.Fatal(err)
	}
	if st.Expr.L.Kind != "num" || st.Expr.L.Val != -3 {
		t.Errorf("negation fold: %+v", st.Expr.L)
	}
	// min/max parse.
	st, err = Parse("v = max(u, w@(0,1,0))")
	if err != nil {
		t.Fatal(err)
	}
	if st.Expr.Kind != "max" || st.Expr.R.DY != 1 {
		t.Errorf("max parse: %+v", st.Expr)
	}
	// Scientific notation and negative shifts.
	st, err = Parse("v = 1e-3 * u@(-1,0,-2)")
	if err != nil {
		t.Fatal(err)
	}
	if st.Expr.L.Val != 1e-3 || st.Expr.R.DX != -1 || st.Expr.R.DZ != -2 {
		t.Errorf("sci/neg parse: %+v", st.Expr)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"= u",
		"v u + 1",
		"v = ",
		"v = u +",
		"v = (u",
		"v = u@(1,2)",
		"v = u@(a,b,c)",
		"v = $",
		"v = abs(u",
		"v = min(u)",
		"v = u 3",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("parsed %q", src)
		}
	}
}

func TestKeyCSE(t *testing.T) {
	a, _ := Parse("v = u@(1,0,0) + u@(1,0,0)")
	if a.Expr.L.key() != a.Expr.R.key() {
		t.Error("identical subtrees key differently")
	}
	b, _ := Parse("v = u@(1,0,0) + u@(0,1,0)")
	if b.Expr.L.key() == b.Expr.R.key() {
		t.Error("distinct shifts key identically")
	}
}

// TestCompiledJacobiMatchesReference compiles Equation 1 (with the
// boundary blend) and checks the microcode agrees with the scalar
// sweep bit-for-bit — the compiler-back-end experiment A3.
func TestCompiledJacobiMatchesReference(t *testing.T) {
	inv := arch.MustInventory(arch.Default())
	p := jacobi.NewModelProblem(8, 1e-4, 10)
	h2 := p.H * p.H
	src := strings.Join([]string{
		"v = u + mask*((",
		"u@(1,0,0) + u@(-1,0,0) + u@(0,1,0) + u@(0,-1,0) + u@(0,0,1) + u@(0,0,-1)",
		"+", floatStr(h2), "*f) / 6 - u)",
	}, " ")
	res, err := Compile(src, inv, Options{
		N: p.N, Nz: p.Nz,
		Planes: map[string]int{"u": jacobi.PlaneU, "f": jacobi.PlaneF, "mask": jacobi.PlaneMask, "v": jacobi.PlaneV},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Base != p.N*p.N {
		t.Errorf("base = %d, want N²=%d", res.Base, p.N*p.N)
	}
	if res.Taps != 7 {
		t.Errorf("taps = %d, want 7", res.Taps)
	}
	// Checker-clean document.
	chk := checker.New(inv)
	if es := checker.Errors(chk.CheckDocument(res.Doc)); len(es) > 0 {
		t.Fatalf("compiled document has errors: %v", es)
	}
	// Generate and execute one sweep.
	gen := codegen.New(inv)
	in, info, err := gen.Pipeline(res.Doc, res.Doc.Pipes[0])
	if err != nil {
		t.Fatal(err)
	}
	if info.FUsUsed != res.FUsUsed {
		t.Errorf("info FUs %d != result FUs %d", info.FUsUsed, res.FUsUsed)
	}
	node := sim.MustNode(arch.Default())
	if err := p.Load(node); err != nil {
		t.Fatal(err)
	}
	if err := node.Exec(in); err != nil {
		t.Fatal(err)
	}
	got, err := node.ReadWords(jacobi.PlaneV, 0, p.Cells())
	if err != nil {
		t.Fatal(err)
	}
	// One reference sweep. The compiled expression computes
	// u + mask*(upd - u) with a division instead of the hand diagram's
	// multiply, so compare within floating-point rounding.
	ref := p.Reference()
	_ = ref
	want := make([]float64, p.Cells())
	u := append([]float64(nil), p.U0...)
	refSweep(p, u, want)
	for g := range want {
		if math.Abs(got[g]-want[g]) > 1e-15 {
			t.Fatalf("v[%d] = %g, want %g", g, got[g], want[g])
		}
	}
}

// refSweep mirrors the compiled expression's arithmetic (division by 6
// rather than multiplication by 1/6).
func refSweep(p *jacobi.Problem, u, v []float64) {
	n, nn := p.N, p.N*p.N
	h2 := p.H * p.H
	at := func(g int) float64 {
		if g < 0 || g >= len(u) {
			return 0
		}
		return u[g]
	}
	for g := range u {
		s := at(g+1) + at(g-1) + at(g+n) + at(g-n) + at(g+nn) + at(g-nn)
		upd := (s + h2*p.F[g]) / 6
		v[g] = u[g] + p.Mask[g]*(upd-u[g])
	}
}

func floatStr(v float64) string {
	return strings.TrimRight(strings.TrimRight(
		strings.ReplaceAll(strings.TrimSpace(fmtFloat(v)), "+", ""), "0"), ".")
}

func fmtFloat(v float64) string { return strconvFormat(v) }

func strconvFormat(v float64) string {
	return strings.TrimSpace(strings.ReplaceAll(fmtG(v), " ", ""))
}

func fmtG(v float64) string { return fmt.Sprintf("%.17g", v) }

func TestCompileMinMaxMapping(t *testing.T) {
	inv := arch.MustInventory(arch.Default())
	res, err := Compile("v = max(u, w)", inv, Options{
		N: 4, Nz: 4, Planes: map[string]int{"u": 0, "w": 1, "v": 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The max op must land on a min/max-capable slot; the checker
	// would have vetoed otherwise, so a clean document is the proof.
	chk := checker.New(inv)
	if es := checker.Errors(chk.CheckDocument(res.Doc)); len(es) > 0 {
		t.Fatalf("minmax mapping produced errors: %v", es)
	}
	if res.FUsUsed != 1 {
		t.Errorf("FUs = %d", res.FUsUsed)
	}
}

func TestCompileCSESharesUnits(t *testing.T) {
	inv := arch.MustInventory(arch.Default())
	// (u+w) appears twice; CSE must map it once: mul(add, add) would be
	// 3 units without CSE, 2 with.
	res, err := Compile("v = (u + w) * (u + w)", inv, Options{
		N: 4, Nz: 4, Planes: map[string]int{"u": 0, "w": 1, "v": 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FUsUsed != 2 {
		t.Errorf("FUs = %d, want 2 (CSE)", res.FUsUsed)
	}
}

func TestCompileErrors(t *testing.T) {
	inv := arch.MustInventory(arch.Default())
	planes := map[string]int{"u": 0, "v": 1}
	cases := []struct {
		name, src string
		opt       Options
	}{
		{"no planes for var", "v = u + w", Options{N: 4, Nz: 4, Planes: planes}},
		{"no plane for dst", "x = u", Options{N: 4, Nz: 4, Planes: planes}},
		{"constant expr", "v = 1 + 2", Options{N: 4, Nz: 4, Planes: planes}},
		{"bad grid", "v = u", Options{N: 0, Nz: 4, Planes: planes}},
		{"parse error", "v = u +", Options{N: 4, Nz: 4, Planes: planes}},
	}
	for _, tc := range cases {
		if _, err := Compile(tc.src, inv, tc.opt); err == nil {
			t.Errorf("%s: compiled", tc.name)
		}
	}
	// Too many shifted variables for the SDUs.
	_, err := Compile("v = u@(1,0,0) + w@(1,0,0) + x@(1,0,0)", inv, Options{
		N: 4, Nz: 4,
		Planes: map[string]int{"u": 0, "w": 1, "x": 2, "v": 3},
	})
	if err == nil {
		t.Error("3 shifted vars accepted with 2 SDUs")
	}
	// Stencil span beyond the SDU buffer.
	_, err = Compile("v = u@(0,0,120) + u@(0,0,-120)", inv, Options{
		N: 24, Nz: 241, Planes: map[string]int{"u": 0, "v": 1},
	})
	if err == nil {
		t.Error("oversized stencil span accepted")
	}
}

func TestCompileUnitExhaustion(t *testing.T) {
	inv := arch.MustInventory(arch.Default())
	// Build an expression with more ops than the node has units (32):
	// a chain of 40 additions of distinct shifts would exceed the tap
	// budget; use plain vars multiplied pairwise instead.
	var sb strings.Builder
	sb.WriteString("v = u")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&sb, " + u*%d.0", i+2)
	}
	_, err := Compile(sb.String(), inv, Options{
		N: 4, Nz: 4, Planes: map[string]int{"u": 0, "v": 1},
	})
	if err == nil {
		t.Error("80-op expression mapped onto 32 units")
	}
}

// TestCompileProgramTwoStage compiles a two-statement program — a
// shifted average into a temporary, then a blend back into v — and
// verifies the generated two-instruction microcode against a host
// mirror.
func TestCompileProgramTwoStage(t *testing.T) {
	inv := arch.MustInventory(arch.Default())
	const n = 6
	prog, err := CompileProgram([]string{
		"tmp = 0.25*(u@(1,0,0) + u@(-1,0,0) + u@(0,1,0) + u@(0,-1,0))",
		"v = 0.5*u + 0.5*tmp",
	}, inv, Options{
		N: n, Nz: n,
		Planes: map[string]int{"u": 0, "tmp": 1, "v": 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Doc.Pipes) != 2 || len(prog.Stmts) != 2 {
		t.Fatalf("pipes=%d stmts=%d", len(prog.Doc.Pipes), len(prog.Stmts))
	}
	if prog.Stmts[0].Base != n || prog.Stmts[1].Base != 0 {
		t.Errorf("bases = %d,%d", prog.Stmts[0].Base, prog.Stmts[1].Base)
	}
	chk := checker.New(inv)
	if es := checker.Errors(chk.CheckDocument(prog.Doc)); len(es) > 0 {
		t.Fatalf("program has errors: %v", es)
	}
	res, err := pipeline.New(inv).CompileDocument(prog.Doc)
	if err != nil {
		t.Fatal(err)
	}
	mc := res.Prog
	if mc.Len() != 2 {
		t.Fatalf("microcode length %d", mc.Len())
	}
	node := sim.MustNode(arch.Default())
	cells := n * n * n
	u := make([]float64, cells)
	for i := range u {
		u[i] = float64(i % 7)
	}
	if err := node.WriteWords(0, 0, u); err != nil {
		t.Fatal(err)
	}
	if _, err := node.Run(mc, 10); err != nil {
		t.Fatal(err)
	}
	got, err := node.ReadWords(2, 0, cells)
	if err != nil {
		t.Fatal(err)
	}
	at := func(g int) float64 {
		if g < 0 || g >= cells {
			return 0
		}
		return u[g]
	}
	for g := 0; g < cells; g++ {
		tmp := 0.25 * (at(g+1) + at(g-1) + at(g+n) + at(g-n))
		want := 0.5*u[g] + 0.5*tmp
		if got[g] != want {
			t.Fatalf("v[%d] = %g, want %g", g, got[g], want)
		}
	}
}

func TestCompileProgramErrors(t *testing.T) {
	inv := arch.MustInventory(arch.Default())
	if _, err := CompileProgram(nil, inv, Options{N: 4, Nz: 4}); err == nil {
		t.Error("empty program compiled")
	}
	_, err := CompileProgram([]string{"v = u", "w = +"}, inv, Options{
		N: 4, Nz: 4, Planes: map[string]int{"u": 0, "v": 1, "w": 2},
	})
	if err == nil {
		t.Error("parse error in statement 1 not reported")
	}
}
