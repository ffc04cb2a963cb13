package jacobi

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/checker"
	"repro/internal/codegen"
	"repro/internal/editor"
	"repro/internal/render"
	"repro/internal/sim"
)

func TestModelProblemSetup(t *testing.T) {
	p := NewModelProblem(8, 1e-4, 100)
	if p.Cells() != 512 {
		t.Fatalf("cells = %d", p.Cells())
	}
	if p.Index(1, 2, 3) != 1+2*8+3*64 {
		t.Error("index order wrong")
	}
	interior, boundary := 0, 0
	for _, m := range p.Mask {
		if m == 1 {
			interior++
		} else {
			boundary++
		}
	}
	if interior != 6*6*6 {
		t.Errorf("interior = %d, want 216", interior)
	}
	if interior+boundary != 512 {
		t.Error("mask not total")
	}
	if p.H != 1.0/7.0 {
		t.Errorf("h = %v", p.H)
	}
}

func TestValidate(t *testing.T) {
	cfg := arch.Default()
	if err := NewModelProblem(8, 1e-4, 10).Validate(cfg); err != nil {
		t.Error(err)
	}
	if err := NewModelProblem(2, 1e-4, 10).Validate(cfg); err == nil {
		t.Error("N=2 accepted")
	}
	// N=200: 2N² = 80000 > 65536.
	big := &Problem{N: 200, H: 1, Tol: 1, MaxIter: 1,
		F: make([]float64, 8e6), U0: make([]float64, 8e6), Mask: make([]float64, 8e6)}
	if err := big.Validate(cfg); err == nil {
		t.Error("oversized grid accepted")
	}
	if err := NewModelProblem(8, 1e-4, 10).Validate(arch.Subset()); err == nil {
		t.Error("subset machine (no SDU) accepted")
	}
	bad := NewModelProblem(8, 1e-4, 10)
	bad.F = bad.F[:100]
	if err := bad.Validate(cfg); err == nil {
		t.Error("mismatched arrays accepted")
	}
}

func TestReferenceConverges(t *testing.T) {
	p := NewModelProblem(8, 1e-5, 500)
	ref := p.Reference()
	if !ref.Converged {
		t.Fatalf("reference did not converge in %d iterations (last residual %g)",
			ref.Iters, ref.Residuals[len(ref.Residuals)-1])
	}
	// Residuals decrease monotonically for this SPD problem.
	for i := 1; i < len(ref.Residuals); i++ {
		if ref.Residuals[i] > ref.Residuals[i-1]*1.0001 {
			t.Errorf("residual rose at iteration %d: %g -> %g", i, ref.Residuals[i-1], ref.Residuals[i])
		}
	}
	// Boundary stays exactly zero; interior is positive (f > 0).
	for k := 0; k < p.N; k++ {
		for j := 0; j < p.N; j++ {
			for i := 0; i < p.N; i++ {
				g := p.Index(i, j, k)
				onBoundary := i == 0 || i == p.N-1 || j == 0 || j == p.N-1 || k == 0 || k == p.N-1
				if onBoundary && ref.U[g] != 0 {
					t.Fatalf("boundary (%d,%d,%d) = %g", i, j, k, ref.U[g])
				}
				if !onBoundary && ref.U[g] <= 0 {
					t.Fatalf("interior (%d,%d,%d) = %g, want positive", i, j, k, ref.U[g])
				}
			}
		}
	}
	// Symmetry: the model problem is symmetric under i<->j.
	for k := 0; k < p.N; k++ {
		for j := 0; j < p.N; j++ {
			for i := 0; i < p.N; i++ {
				if math.Abs(ref.U[p.Index(i, j, k)]-ref.U[p.Index(j, i, k)]) > 1e-12 {
					t.Fatalf("asymmetry at (%d,%d,%d)", i, j, k)
				}
			}
		}
	}
}

func TestScriptBuildsCleanDocument(t *testing.T) {
	cfg := arch.Default()
	p := NewModelProblem(8, 1e-4, 100)
	doc, ed, err := p.BuildDocument(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Pipes) != 2 {
		t.Fatalf("pipes = %d, want 2 (ping-pong pair)", len(doc.Pipes))
	}
	if len(doc.Flow) != 3 {
		t.Fatalf("flow ops = %d, want 3", len(doc.Flow))
	}
	diags := ed.Check()
	if es := checker.Errors(diags); len(es) > 0 {
		t.Fatalf("document has checker errors: %v", es)
	}
	// Every editor command succeeded (the environment accepted the
	// whole interaction sequence).
	for _, ev := range ed.Log {
		if !ev.OK() {
			t.Errorf("editor rejected: %s", ev)
		}
	}
	// Each pipeline uses all 4 triplets and the SDU: 12 units, as in
	// the completed Figure 11 diagram.
	gen := codegen.New(arch.MustInventory(cfg))
	in, info, err := gen.Pipeline(doc, doc.Pipes[0])
	if err != nil {
		t.Fatal(err)
	}
	_ = in
	if info.FUsUsed != 12 {
		t.Errorf("FUs used = %d, want 12", info.FUsUsed)
	}
	if len(info.SDUMap) != 1 {
		t.Errorf("SDUs used = %d, want 1", len(info.SDUMap))
	}
	if info.VectorLen != int64(p.Cells()+p.N*p.N) {
		t.Errorf("vector len = %d", info.VectorLen)
	}
}

// TestBuildDocumentIsOneEdit: the build script is one edit, so one
// Undo gives back the document a fresh editor starts from, and nothing
// is left to undo.
func TestBuildDocumentIsOneEdit(t *testing.T) {
	cfg := arch.Default()
	_, ed, err := NewModelProblem(8, 1e-4, 100).BuildDocument(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ed.Undo(); err != nil {
		t.Fatal(err)
	}
	var got, want bytes.Buffer
	if err := ed.Doc.Save(&got); err != nil {
		t.Fatal(err)
	}
	if err := editor.New(arch.MustInventory(cfg), "jacobi3d").Doc.Save(&want); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("one undo left\n%s\nwant a fresh editor's\n%s", got.String(), want.String())
	}
	if ed.Undo() == nil {
		t.Error("a second undo succeeded: the build script made more than one edit")
	}
}

// TestNSCMatchesReference is the headline correctness result: the
// microcode generated from the editor-built diagrams computes the same
// iterate stream as the scalar reference, bit for bit, and converges on
// the same iteration.
func TestNSCMatchesReference(t *testing.T) {
	cfg := arch.Default()
	p := NewModelProblem(8, 1e-4, 300)
	ref := p.Reference()
	got, err := p.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Converged {
		t.Fatalf("NSC run did not converge (%d iterations, residual %g)", got.Iterations, got.Residual)
	}
	if got.Iterations != ref.Iters {
		t.Errorf("NSC converged in %d iterations, reference in %d", got.Iterations, ref.Iters)
	}
	for g := range ref.U {
		if got.U[g] != ref.U[g] {
			t.Fatalf("u[%d] = %g, reference %g (first mismatch)", g, got.U[g], ref.U[g])
		}
	}
	// The residual register matches the reference's final residual.
	if want := ref.Residuals[len(ref.Residuals)-1]; got.Residual != want {
		t.Errorf("residual register = %g, reference %g", got.Residual, want)
	}
	if got.Stats.Cycles <= 0 || got.MFLOPS <= 0 {
		t.Errorf("stats empty: %+v", got.Stats)
	}
	// Sanity: achieved rate cannot exceed the machine peak.
	if got.MFLOPS > cfg.PeakFLOPS()/1e6 {
		t.Errorf("MFLOPS %.1f exceeds peak %.1f", got.MFLOPS, cfg.PeakFLOPS()/1e6)
	}
}

func TestNSCOddIterationParity(t *testing.T) {
	// A looser tolerance converging after an odd number of sweeps must
	// read the result from plane V. Tol chosen so the run stops after
	// exactly 1 sweep: first residual is h²/6 ≈ 0.0034.
	cfg := arch.Default()
	p := NewModelProblem(6, 1.0, 50) // converges immediately (residual < 1)
	ref := p.Reference()
	if ref.Iters != 1 {
		t.Fatalf("expected 1 reference iteration, got %d", ref.Iters)
	}
	got, err := p.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Iterations != 1 {
		t.Fatalf("iterations = %d", got.Iterations)
	}
	for g := range ref.U {
		if got.U[g] != ref.U[g] {
			t.Fatalf("u[%d] = %g, want %g", g, got.U[g], ref.U[g])
		}
	}
}

func TestNSCMaxIterBudget(t *testing.T) {
	cfg := arch.Default()
	p := NewModelProblem(8, 1e-30, 5) // will not converge in 5 sweeps
	if _, err := p.Run(cfg); err == nil {
		t.Error("budget exhaustion not reported")
	}
}

func TestDiagramRenders(t *testing.T) {
	cfg := arch.Default()
	p := NewModelProblem(8, 1e-4, 100)
	doc, _, err := p.BuildDocument(cfg)
	if err != nil {
		t.Fatal(err)
	}
	art := render.Pipeline(doc.Pipes[0])
	for _, want := range []string{"T1", "T4", "maxabs", "SDU", "M[0]", "M[3]"} {
		if !strings.Contains(art, want) {
			t.Errorf("Figure 11 rendering missing %q", want)
		}
	}
	net := render.Netlist(doc.Pipes[0])
	if !strings.Contains(net, "T3.u1 = mul") || !strings.Contains(net, "compare T4.u2 lt") {
		t.Errorf("netlist incomplete:\n%s", net)
	}
	svg := render.SVG(doc.Pipes[0])
	if !strings.HasPrefix(svg, "<svg") {
		t.Error("svg render failed")
	}
}

func TestLoadRejectsBadPlane(t *testing.T) {
	p := NewModelProblem(8, 1e-4, 10)
	n := sim.MustNode(arch.Default())
	if err := p.Load(n); err != nil {
		t.Fatal(err)
	}
	// Spot-check loaded data.
	f, err := n.ReadWords(PlaneF, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range f {
		if v != 1 {
			t.Fatal("f not loaded")
		}
	}
}

// TestJacobiOnRevisedMachine exercises the §4 knowledge-base
// robustness claim end to end: the same editor script, checker,
// generator and simulator run unchanged on a revised machine
// description (different ALS mix, bigger caches, more taps), down to
// bit-identical numerics. Only the microcode width changes.
func TestJacobiOnRevisedMachine(t *testing.T) {
	revised := arch.Default()
	revised.Triplets = 6
	revised.Doublets = 5
	revised.Singlets = 4
	revised.TotalFUs = 32
	revised.CacheBytes = 16 << 10
	revised.SDUTaps = 12
	if err := revised.Validate(); err != nil {
		t.Fatal(err)
	}
	p := NewModelProblem(8, 1e-4, 300)
	ref := p.Reference()
	got, err := p.Run(revised)
	if err != nil {
		t.Fatal(err)
	}
	if got.Iterations != ref.Iters {
		t.Errorf("revised machine converged in %d iterations, reference %d", got.Iterations, ref.Iters)
	}
	for g := range ref.U {
		if got.U[g] != ref.U[g] {
			t.Fatalf("u[%d] differs on the revised machine", g)
		}
	}
	// The instruction format adapted (more taps widen the SDU group).
	fDefault := microcodeFormatBits(t, arch.Default())
	fRevised := microcodeFormatBits(t, revised)
	if fRevised <= fDefault {
		t.Errorf("revised format %d bits not wider than default %d despite extra taps", fRevised, fDefault)
	}
}

func microcodeFormatBits(t *testing.T, cfg arch.Config) int {
	t.Helper()
	g := codegen.New(arch.MustInventory(cfg))
	return g.F.Bits
}

// TestRunTrapPolicyThreading: Problem.Trap reaches the node and the
// event counts come back on Result.Traps. MaxFloat64 seeds in the
// interior overflow the neighbour sum with finite operands — a
// genuine new exception, not a propagated one.
func TestRunTrapPolicyThreading(t *testing.T) {
	cfg := arch.Default()
	mk := func(pol arch.TrapPolicy) *Problem {
		p := NewModelProblem(5, 1e-4, 10)
		// Two opposite neighbours of (2,2,2): its neighbour sum adds
		// MaxFloat64 + MaxFloat64 and rounds to +Inf.
		p.U0[p.Index(1, 2, 2)] = math.MaxFloat64
		p.U0[p.Index(3, 2, 2)] = math.MaxFloat64
		p.Trap = arch.TrapConfig{Policy: pol}
		return p
	}

	// Quiet: the poisoned solve never aborts — it burns its iteration
	// budget with the overflow events counted on the partial result.
	res, err := mk(arch.TrapQuietNaN).Run(cfg)
	if err == nil {
		t.Fatal("poisoned problem converged")
	}
	var te *sim.TrapError
	if errors.As(err, &te) {
		t.Fatalf("quiet policy aborted with a trap: %v", err)
	}
	if res == nil || res.Traps.Overflow == 0 || res.Traps.Quieted == 0 {
		t.Errorf("traps = %v, want overflow events", res)
	}

	// Halt: the run aborts with the structured error.
	_, err = mk(arch.TrapHalt).Run(cfg)
	if !errors.As(err, &te) {
		t.Fatalf("halt policy error = %v, want *sim.TrapError", err)
	}
	if te.Trap.Kind != sim.TrapOverflow {
		t.Errorf("trap kind %v, want overflow", te.Trap.Kind)
	}

	// A clean armed run raises nothing and reports all-zero counters.
	p := NewModelProblem(5, 1e-4, 200)
	p.Trap = arch.TrapConfig{Policy: arch.TrapHalt}
	clean, err := p.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !clean.Converged || !clean.Traps.Zero() {
		t.Errorf("clean armed run: converged=%v traps=%s", clean.Converged, clean.Traps)
	}
}
