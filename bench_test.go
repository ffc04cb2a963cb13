// Benchmark harness: one benchmark per figure and per quantitative
// claim of the paper (the paper has no numbered tables; see DESIGN.md
// §4 for the experiment index and EXPERIMENTS.md for paper-vs-measured
// results). Each benchmark times the relevant operation and prints its
// paper-style report exactly once.
package repro_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/arch"
	"repro/internal/checker"
	"repro/internal/codegen"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/diagram"
	"repro/internal/editor"
	"repro/internal/engine"
	"repro/internal/hypercube"
	"repro/internal/jacobi"
	"repro/internal/microcode"
	"repro/internal/multigrid"
	"repro/internal/render"
	"repro/internal/sim"
	"repro/internal/trace"
)

// --- F1: Figure 1, the simplified datapath diagram. ---

func BenchmarkFig1DatapathInventory(b *testing.B) {
	cfg := arch.Default()
	var out string
	for i := 0; i < b.N; i++ {
		out = render.Datapath(cfg.Nodes(), cfg.MemPlanes, cfg.PlaneBytes>>20,
			cfg.CachePlanes, cfg.CacheBytes>>10, cfg.ShiftDelayUnits,
			cfg.Triplets, cfg.Doublets, cfg.Singlets)
	}
	inv := arch.MustInventory(cfg)
	report := out + fmt.Sprintf(`
component inventory vs paper (§2):
  functional units/node   %3d   (paper: 32)
  ALSs                    %3d   (%d triplets, %d doublets, %d singlets)
  memory planes           %3d x %d MB = %d GB/node   (paper: 16 x 128 MB = 2 GB)
  data caches             %3d x %d KB double-buffered (paper: 16)
  shift/delay units       %3d   (paper: 2)
  peak rate          %8.0f MFLOPS/node   (paper: 640)
  64-node system     %8.2f GFLOPS, %d GB (paper: ~40 GFLOPS, 128 GB)
`, len(inv.FUs), len(inv.ALSs), cfg.Triplets, cfg.Doublets, cfg.Singlets,
		cfg.MemPlanes, cfg.PlaneBytes>>20, cfg.NodeMemoryBytes()>>30,
		cfg.CachePlanes, cfg.CacheBytes>>10, cfg.ShiftDelayUnits,
		cfg.PeakFLOPS()/1e6, cfg.PeakSystemFLOPS()/1e9, cfg.TotalMemoryBytes()>>30)
	reportOnce("F1 datapath (Figure 1)", report)
}

// --- F2/F11: the Jacobi pipeline diagram, drawn and completed. ---

func BenchmarkFig2JacobiDiagram(b *testing.B) {
	cfg := arch.Default()
	p := jacobi.NewModelProblem(8, 1e-4, 10)
	var doc *diagram.Document
	for i := 0; i < b.N; i++ {
		var err error
		doc, _, err = p.BuildDocument(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportOnce("F2 working diagram (Figure 2)", render.Netlist(doc.Pipes[0]))
}

func BenchmarkFig11CompletedJacobi(b *testing.B) {
	cfg := arch.Default()
	p := jacobi.NewModelProblem(8, 1e-4, 300)
	var res *jacobi.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = p.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	ref := p.Reference()
	doc, _, _ := p.BuildDocument(cfg)
	exact := 0
	for g := range ref.U {
		if res.U[g] == ref.U[g] {
			exact++
		}
	}
	b.ReportMetric(res.MFLOPS, "MFLOPS")
	b.ReportMetric(float64(res.Iterations), "iterations")
	reportOnce("F11 completed Jacobi pipeline (Figure 11)",
		render.Pipeline(doc.Pipes[0])+fmt.Sprintf(`
executed on the node simulator:
  converged            %v in %d iterations (reference: %d)
  bit-identical values %d / %d
  residual register    %.6e (reference %.6e)
  cycles               %d  (%.1f MFLOPS of %g peak)
`, res.Converged, res.Iterations, ref.Iters, exact, len(ref.U),
			res.Residual, ref.Residuals[len(ref.Residuals)-1],
			res.Stats.Cycles, res.MFLOPS, cfg.PeakFLOPS()/1e6))
}

// --- F3: Figure 3, the component pipeline. ---

func BenchmarkFig3EnvironmentPipeline(b *testing.B) {
	script := `
doc fig3
var u plane=0 base=0 len=256
var v plane=1 base=0 len=256
place memplane Mu at 1 2 plane=0
place memplane Mv at 40 2 plane=1
place singlet S at 20 2
op S.u0 mul constb=3
connect Mu.rd -> S.u0.a
connect S.u0.o -> Mv.wr
dma Mu rd var=u stride=1 count=256
dma Mv wr var=v stride=1 count=256
`
	for i := 0; i < b.N; i++ {
		env := core.MustNew(arch.Default())
		if _, _, err := env.BuildAndRun(script, 4); err != nil {
			b.Fatal(err)
		}
	}
	env := core.MustNew(arch.Default())
	events, _ := env.Script(script)
	prog, rep, err := env.Generate()
	if err != nil {
		b.Fatal(err)
	}
	reportOnce("F3 environment components (Figure 3)", fmt.Sprintf(`graphical editor  -> %d interactions accepted, semantic data structures built
checker           -> %d diagnostics on the complete document
microcode gen     -> %d instruction(s) x %d bits; pipeline fill %d cycles
executable        -> runs on the node simulator (see F11/E1)`,
		len(events), len(env.Check()), prog.Len(), prog.F.Bits, rep.Pipes[0].FillCycles))
}

// --- F4: the ALS icon palette. ---

func BenchmarkFig4ALSIcons(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = render.IconGallery()
	}
	reportOnce("F4 icon palette (Figure 4)", out)
}

// --- F5: the display window. ---

func BenchmarkFig5DisplayWindow(b *testing.B) {
	env := core.MustNew(arch.Default())
	if _, err := env.Script(jacobi.NewModelProblem(8, 1e-4, 10).Script()); err != nil {
		b.Fatal(err)
	}
	if err := env.Ed.Jump(0); err != nil {
		b.Fatal(err)
	}
	var out string
	for i := 0; i < b.N; i++ {
		out = env.Window()
	}
	// The window is large; show the frame.
	lines := strings.Split(out, "\n")
	head := strings.Join(lines[:min(14, len(lines))], "\n")
	reportOnce("F5 display window (Figure 5)", head+"\n   ... ("+fmt.Sprint(len(lines))+" rows total)")
}

// --- F6/F7: icon selection and placement. ---

func BenchmarkFig6PlaceIcons(b *testing.B) {
	cmds := []string{
		"place triplet T1 at 30 1",
		"place triplet T2 at 30 12",
		"place triplet T3 at 48 4",
		"place triplet T4 at 64 8",
		"place sdu Z at 15 2",
		"place memplane Mu at 1 6 plane=0",
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ed := editor.New(arch.MustInventory(arch.Default()), "fig6")
		for _, c := range cmds {
			if _, err := ed.Exec(c); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	ed := editor.New(arch.MustInventory(arch.Default()), "fig6")
	var log []string
	for _, c := range cmds {
		msg, _ := ed.Exec(c)
		log = append(log, "  > "+c+"   -- "+msg)
	}
	_, err := ed.Exec("place triplet T5 at 1 1")
	log = append(log, fmt.Sprintf("  > place triplet T5 at 1 1   -- REJECTED: %v", err))
	reportOnce("F6/F7 placing icons (Figures 6-7)", strings.Join(log, "\n"))
}

// --- F8: rubber-band connections with checker vetoes. ---

func BenchmarkFig8Connections(b *testing.B) {
	setup := func() *editor.Editor {
		ed := editor.New(arch.MustInventory(arch.Default()), "fig8")
		for _, c := range []string{
			"var u plane=0 base=0 len=256",
			"place memplane Mu at 1 2 plane=0",
			"place sdu Z at 14 2",
			"place singlet S at 30 2",
			"op S.u0 mov",
		} {
			if _, err := ed.Exec(c); err != nil {
				b.Fatal(err)
			}
		}
		return ed
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ed := setup()
		if _, err := ed.Exec("connect Mu.rd -> S.u0.a"); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	ed := setup()
	var log []string
	ok, _ := ed.Exec("connect Mu.rd -> Z.in")
	log = append(log, "  > connect Mu.rd -> Z.in      -- "+ok)
	_, err := ed.Exec("connect S.u0.o -> Z.in")
	log = append(log, fmt.Sprintf("  > connect S.u0.o -> Z.in     -- REJECTED: %v", err))
	_, err = ed.Exec("connect S.u0.o -> S.u0.a")
	log = append(log, fmt.Sprintf("  > connect S.u0.o -> S.u0.a   -- REJECTED: %v", err))
	reportOnce("F8 rubber-band wiring (Figure 8)", strings.Join(log, "\n"))
}

// --- F9: the DMA popup subwindow. ---

func BenchmarkFig9DMASubwindow(b *testing.B) {
	setup := func() *editor.Editor {
		ed := editor.New(arch.MustInventory(arch.Default()), "fig9")
		for _, c := range []string{
			"var u plane=3 base=10000 len=4096",
			"place cache C3 at 1 2 plane=3",
			"place memplane M3 at 1 8 plane=3",
		} {
			if _, err := ed.Exec(c); err != nil {
				b.Fatal(err)
			}
		}
		return ed
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ed := setup()
		if _, err := ed.Exec("dma M3 rd var=u offset=0 stride=4 count=1024"); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	ed := setup()
	var log []string
	// Figure 9's example fields: plane 3, offset 10000, stride 4.
	ok, _ := ed.Exec("dma M3 rd var=u offset=0 stride=4 count=1024")
	log = append(log, "  > dma M3 rd var=u stride=4 count=1024    -- "+ok)
	ok, _ = ed.Exec("dma C3 rd buf=1 stride=1 count=512 swap")
	log = append(log, "  > dma C3 rd buf=1 count=512 swap         -- "+ok)
	_, err := ed.Exec("dma M3 rd var=u offset=0 stride=4 count=1025")
	log = append(log, fmt.Sprintf("  > dma M3 rd stride=4 count=1025          -- REJECTED: %v", err))
	reportOnce("F9 DMA subwindow (Figure 9)", strings.Join(log, "\n"))
}

// --- F10: programming individual function units. ---

func BenchmarkFig10FunctionUnitOps(b *testing.B) {
	setup := func() *editor.Editor {
		ed := editor.New(arch.MustInventory(arch.Default()), "fig10")
		if _, err := ed.Exec("place triplet T at 1 1"); err != nil {
			b.Fatal(err)
		}
		return ed
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ed := setup()
		if _, err := ed.Exec("op T.u0 add"); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	ed := setup()
	var log []string
	for _, c := range []string{"op T.u0 iadd", "op T.u1 mul constb=0.5", "op T.u2 maxabs reduce init=0"} {
		msg, err := ed.Exec(c)
		if err != nil {
			b.Fatal(err)
		}
		log = append(log, "  > "+c+"   -- "+msg)
	}
	_, err := ed.Exec("op T.u1 iadd")
	log = append(log, fmt.Sprintf("  > op T.u1 iadd   -- REJECTED: %v", err))
	_, err = ed.Exec("op T.u0 max")
	log = append(log, fmt.Sprintf("  > op T.u0 max    -- REJECTED: %v", err))
	reportOnce("F10 function-unit menu (Figure 10)", strings.Join(log, "\n"))
}

// --- E1: Equation 1, numeric convergence. ---

func BenchmarkEq1JacobiConvergence(b *testing.B) {
	cfg := arch.Default()
	p := jacobi.NewModelProblem(12, 1e-5, 2000)
	var ref *jacobi.RefResult
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ref = p.Reference()
		}
	})
	var res *jacobi.Result
	b.Run("nsc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var err error
			res, err = p.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	if ref == nil {
		ref = p.Reference()
	}
	if res == nil {
		var err error
		res, err = p.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	var hist strings.Builder
	for i := 0; i < len(ref.Residuals); i += 40 {
		fmt.Fprintf(&hist, "  iter %4d   residual %.6e\n", i+1, ref.Residuals[i])
	}
	fmt.Fprintf(&hist, "  iter %4d   residual %.6e (converged)\n", ref.Iters, ref.Residuals[len(ref.Residuals)-1])
	reportOnce("E1 Equation 1 convergence", fmt.Sprintf(
		"grid 12³, tol 1e-5: NSC %d iterations (reference %d), register %.6e\n%s",
		res.Iterations, ref.Iters, res.Residual, hist.String()))
}

// --- P1: peak 640 MFLOPS per node. ---

func BenchmarkP1PeakMFLOPS(b *testing.B) {
	cfg := arch.Default()
	const count = 1 << 16
	in, err := buildPeakPipeline(cfg, count)
	if err != nil {
		b.Fatal(err)
	}
	var node *sim.Node
	for i := 0; i < b.N; i++ {
		node, err = freshNodeWithRamp(cfg, count)
		if err != nil {
			b.Fatal(err)
		}
		if err := node.Exec(in); err != nil {
			b.Fatal(err)
		}
	}
	got := node.Stats.MFLOPS(cfg.ClockHz)
	b.ReportMetric(got, "simMFLOPS")
	reportOnce("P1 peak rate (§2: 640 MFLOPS/node)", fmt.Sprintf(`all 32 functional units chained over a %d-element vector:
  achieved %8.2f MFLOPS
  peak     %8.2f MFLOPS (32 units x 20 MHz)
  ratio    %8.2f%%  (loss = issue overhead + pipeline fill %d cycles)`,
		count, got, cfg.PeakFLOPS()/1e6, 100*got/(cfg.PeakFLOPS()/1e6), node.Stats.Cycles-count-int64(cfg.IssueOverheadCycles)))
}

// --- P2: 64 nodes -> ~40 GFLOPS, 128 GB; weak scaling. ---

func BenchmarkP2HypercubeScaling(b *testing.B) {
	cfg := arch.Default()
	const n, slab = 16, 4
	rows := []string{fmt.Sprintf("%5s %7s %12s %14s %12s %10s %8s",
		"nodes", "iters", "cycles", "comm-cycles", "GFLOPS", "peak-GF", "eff%")}
	run := func(dim, workers int) (*hypercube.JacobiResult, *hypercube.Machine) {
		p := 1 << uint(dim)
		g := jacobi.NewBoxProblem(n, p*slab+2, 1e-9, 4000)
		m, err := hypercube.New(cfg, dim)
		if err != nil {
			b.Fatal(err)
		}
		m.StopAfter = 10 // fixed work per node: pure weak-scaling measurement
		m.Workers = workers
		res, err := m.SolveJacobi(g)
		if err != nil {
			b.Fatal(err)
		}
		return res, m
	}
	for dim := 0; dim <= 6; dim++ {
		var res *hypercube.JacobiResult
		var m *hypercube.Machine
		b.Run(fmt.Sprintf("nodes=%d", 1<<uint(dim)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, m = run(dim, 1)
			}
			b.ReportMetric(res.GFLOPS, "GFLOPS")
		})
		if res != nil {
			rows = append(rows, fmt.Sprintf("%5d %7d %12d %14d %12.3f %10.2f %7.1f%%",
				m.P(), res.Iterations, res.Cycles, m.CommCycles, res.GFLOPS, m.PeakGFLOPS(), 100*res.Efficiency(m)))
		}
	}
	// Host-side wall-clock scaling of the parallel driver: same 64-node
	// simulation, dispatched across 1, 4 and GOMAXPROCS pool workers.
	// Simulated metrics (cycles, residuals) are bit-identical across
	// worker counts; only host time changes.
	for _, w := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("nodes=64/workers=%d", w), func(b *testing.B) {
			var res *hypercube.JacobiResult
			for i := 0; i < b.N; i++ {
				res, _ = run(6, w)
			}
			b.ReportMetric(res.GFLOPS, "GFLOPS")
		})
	}
	rows = append(rows, fmt.Sprintf("\npaper's system claim: 64 nodes = %.2f GFLOPS peak, %d GB memory",
		cfg.PeakSystemFLOPS()/1e9, cfg.TotalMemoryBytes()>>30))
	reportOnce("P2 hypercube weak scaling (§2)", strings.Join(rows, "\n"))
}

// --- S9: the decode-once execution engine. ---

// BenchmarkPlanCache measures what the compiled-plan cache buys on the
// Figure 11 Jacobi sweep instruction: "decode-every-dispatch" recompiles
// the 5292-bit word into an ExecPlan on every Exec (the engine's
// behavior before the decode/run split), while "cached" decodes once
// and replays the plan — the steady state of every iterative solver in
// this repo, where one instruction executes thousands of times.
// "fresh-machine" times the first forward sweep of a fresh 8-node
// machine on the worker pool: its boards share one plan table, so the
// sweep decodes once and every board's first dispatch takes that plan.
func BenchmarkPlanCache(b *testing.B) {
	cfg := arch.Default()
	p := jacobi.NewModelProblem(8, 1e-4, 10)
	doc, _, err := p.BuildDocument(cfg)
	if err != nil {
		b.Fatal(err)
	}
	gen := codegen.New(arch.MustInventory(cfg))
	in, _, err := gen.Pipeline(doc, doc.Pipes[0])
	if err != nil {
		b.Fatal(err)
	}
	node := sim.MustNode(cfg)
	if err := p.Load(node); err != nil {
		b.Fatal(err)
	}
	b.Run("decode-every-dispatch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := node.ExecUncached(in); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := node.Exec(in); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fresh-machine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			m, err := hypercube.New(cfg, 3)
			if err != nil {
				b.Fatal(err)
			}
			for _, nd := range m.Nodes {
				if err := p.Load(nd); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
			if err := engine.ParallelFor(-1, len(m.Nodes), func(r int) error { return m.Nodes[r].Exec(in) }); err != nil {
				b.Fatal(err)
			}
		}
	})
	st := node.PlanCacheStats()
	reportOnce("S9 plan cache (decode-once engine)", fmt.Sprintf(
		"Figure 11 Jacobi sweep, %d-bit instruction: %d plan(s) compiled, %d cache hits, %d misses\nthe decode layer runs once per distinct instruction; dispatch replays the immutable ExecPlan",
		gen.F.Bits, st.Entries, st.Hits, st.Misses))
}

// --- P3: "a few thousand bits per instruction, dozens of fields". ---

func BenchmarkP3MicrocodeWidth(b *testing.B) {
	cfg := arch.Default()
	f := microcode.MustFormat(cfg)
	in := f.NewInstr()
	in.SetFUOp(0, arch.OpAdd)
	var enc, dec int64
	b.Run("encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			in.SetMemDMA(i%16, microcode.MemDMA{Enable: true, Addr: int64(i), Stride: 1, Count: 100})
		}
		enc = int64(b.N)
	})
	b.Run("decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = in.MemDMAOf(i % 16)
		}
		dec = int64(b.N)
	})
	_ = enc
	_ = dec
	groups := f.FieldGroups()
	var gl []string
	for _, name := range f.GroupNames() {
		gl = append(gl, fmt.Sprintf("  %-8s %5d bits", name, groups[name]))
	}
	reportOnce("P3 microcode width (§3)", fmt.Sprintf(
		"instruction width: %d bits in %d fields across %d field groups (paper: 'a few thousand bits ... dozens of separate fields')\n%s",
		f.Bits, f.NumFields(), len(groups), strings.Join(gl, "\n")))
}

// --- P4: the memory-plane allocation problem. ---

func BenchmarkP4PlaneAllocation(b *testing.B) {
	cfg := arch.Default()
	vars, uses := alloc.JacobiWorkload(512 * 1024)
	var naive, colored alloc.Assignment
	var err error
	for i := 0; i < b.N; i++ {
		naive, err = alloc.Naive(vars, cfg.MemPlanes, cfg.PlaneWords())
		if err != nil {
			b.Fatal(err)
		}
		colored, err = alloc.Color(vars, uses, cfg.MemPlanes, cfg.PlaneWords())
		if err != nil {
			b.Fatal(err)
		}
	}
	cn := alloc.Cost(naive, vars, uses, cfg)
	cc := alloc.Cost(colored, vars, uses, cfg)
	reportOnce("P4 plane allocation (§3)", fmt.Sprintf(`Jacobi working set (4 arrays x 512k words), one sweep pair:
  layout     conflicts  copy-instrs  extra-cycles  extra-words
  naive      %9d  %11d  %12d  %11d
  colored    %9d  %11d  %12d  %11d
the naive (capacity-only) layout packs co-streamed arrays into one
plane; every sweep must first copy them apart — §3's "multiple copies
of arrays, or ... relocate them between phases".`,
		cn.Conflicts, cn.CopyInstructions, cn.ExtraCycles, cn.ExtraWords,
		cc.Conflicts, cc.CopyInstructions, cc.ExtraCycles, cc.ExtraWords))
}

// --- A1: specification effort, visual environment vs raw microcode. ---

func BenchmarkA1SpecificationEffort(b *testing.B) {
	cfg := arch.Default()
	p := jacobi.NewModelProblem(8, 1e-4, 10)
	gen := codegen.New(arch.MustInventory(cfg))
	var in *microcode.Instr
	for i := 0; i < b.N; i++ {
		doc, _, err := p.BuildDocument(cfg)
		if err != nil {
			b.Fatal(err)
		}
		in, _, err = gen.Pipeline(doc, doc.Pipes[0])
		if err != nil {
			b.Fatal(err)
		}
	}
	// Count fields a hand microprogrammer would have to set: fields
	// whose value differs from the power-on instruction.
	fresh := gen.F.NewInstr()
	fieldsSet, bitsSet := 0, 0
	for _, fl := range gen.F.Fields {
		if in.W.Get(fl) != fresh.W.Get(fl) {
			fieldsSet++
			bitsSet += fl.Width
		}
	}
	script := p.Script()
	lines := 0
	for _, l := range strings.Split(script, "\n") {
		l = strings.TrimSpace(l)
		if l != "" && !strings.HasPrefix(l, "#") {
			lines++
		}
	}
	reportOnce("A1 specification effort (§6)", fmt.Sprintf(`one Jacobi instruction:
  raw microcode:      %4d fields explicitly set (%d bits of %d-bit word)
  visual environment: %4d editor interactions for the WHOLE program
                      (two pipelines + declarations + control flow);
                      timing delays, switch settings and DMA start
                      times all derived automatically`,
		fieldsSet, bitsSet, gen.F.Bits, lines))
}

// --- A2: edit-time checking vs generate-time discovery. ---

func BenchmarkA2CheckerAblation(b *testing.B) {
	type mistake struct {
		name string
		cmds []string // applied after a valid base session
	}
	base := []string{
		"var u plane=0 base=0 len=256",
		"place memplane Mu at 1 2 plane=0",
		"place triplet T at 20 1",
		"place sdu Z at 40 1",
		"dma Mu rd var=u stride=1 count=256",
	}
	mistakes := []mistake{
		{"5th triplet (inventory)", []string{"place triplet T2 at 1 1", "place triplet T3 at 1 1", "place triplet T4 at 1 1", "place triplet T5 at 1 1"}},
		{"duplicate plane", []string{"place memplane M2 at 1 9 plane=0"}},
		{"integer op on float slot", []string{"op T.u1 iadd"}},
		{"minmax op on integer slot", []string{"op T.u0 max"}},
		{"DMA overruns variable", []string{"dma Mu rd var=u stride=1 count=257"}},
		{"FU feeding the SDU", []string{"op T.u0 mov", "connect Mu.rd -> T.u0.a", "connect T.u0.o -> Z.in"}},
		{"delay beyond register file", []string{"op T.u0 mov", "connect Mu.rd -> T.u0.a delay=65"}},
		{"reduce with non-reducible op", []string{"op T.u0 sub reduce"}},
		{"9 SDU taps", []string{"taps Z 1 2 3 4 5 6 7 8 9"}},
		{"variable on plane 99", []string{"var w plane=99 base=0 len=4"}},
	}
	inv := arch.MustInventory(arch.Default())
	run := func() (caught int) {
		for _, m := range mistakes {
			ed := editor.New(inv, "ablation")
			for _, c := range base {
				if _, err := ed.Exec(c); err != nil {
					b.Fatal(err)
				}
			}
			rejected := false
			for _, c := range m.cmds {
				if _, err := ed.Exec(c); err != nil {
					rejected = true
					break
				}
			}
			if rejected {
				caught++
			}
		}
		return caught
	}
	var caught int
	for i := 0; i < b.N; i++ {
		caught = run()
	}
	reportOnce("A2 edit-time checking (§4/§6)", fmt.Sprintf(`error corpus of %d classic NSC programming mistakes:
  caught at edit time (command rejected): %d / %d
  with edit-time checking disabled every one of them would surface only
  at microcode generation — "errors are caught sooner when they do
  occur" (§6)`, len(mistakes), caught, len(mistakes)))
	if caught != len(mistakes) {
		b.Fatalf("only %d/%d mistakes caught at edit time", caught, len(mistakes))
	}
}

// --- A3: the compiler back end vs the hand-drawn diagram. ---

func BenchmarkA3CompilerBackend(b *testing.B) {
	cfg := arch.Default()
	inv := arch.MustInventory(cfg)
	p := jacobi.NewModelProblem(8, 1e-4, 10)
	src := fmt.Sprintf("v = u + mask*(( u@(1,0,0) + u@(-1,0,0) + u@(0,1,0) + u@(0,-1,0) + u@(0,0,1) + u@(0,0,-1) + %.17g*f) / 6 - u)", p.H*p.H)
	opts := compiler.Options{N: p.N, Nz: p.Nz,
		Planes: map[string]int{"u": jacobi.PlaneU, "f": jacobi.PlaneF, "mask": jacobi.PlaneMask, "v": jacobi.PlaneV}}
	var cres *compiler.Result
	for i := 0; i < b.N; i++ {
		var err error
		cres, err = compiler.Compile(src, inv, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	gen := codegen.New(inv)
	_, cinfo, err := gen.Pipeline(cres.Doc, cres.Doc.Pipes[0])
	if err != nil {
		b.Fatal(err)
	}
	hdoc, _, err := p.BuildDocument(cfg)
	if err != nil {
		b.Fatal(err)
	}
	_, hinfo, err := gen.Pipeline(hdoc, hdoc.Pipes[0])
	if err != nil {
		b.Fatal(err)
	}
	reportOnce("A3 compiler back end (§6 future work)", fmt.Sprintf(`Equation 1 compiled from the expression "%s..."
               FUs  fill-cycles  flops/elem  residual-check
  compiled    %4d  %11d  %10d  no (not expressible in the expression language)
  hand-drawn  %4d  %11d  %10d  yes (maxabs reduction + sequencer compare)
the compiler reproduces the update exactly but maps a deeper pipeline
(division instead of reciprocal-multiply) and cannot express the
convergence machinery — "it remains to be seen whether this approach
can compete with compiled high-level languages" (§6).`,
		src[:24], cinfo.FUsUsed, cinfo.FillCycles, cinfo.FLOPsPerElement,
		hinfo.FUsUsed, hinfo.FillCycles, hinfo.FLOPsPerElement))
}

// --- A4: the debugging/animation extension. ---

func BenchmarkA4DebugTrace(b *testing.B) {
	cfg := arch.Default()
	p := jacobi.NewModelProblem(6, 1e-3, 10)
	doc, _, err := p.BuildDocument(cfg)
	if err != nil {
		b.Fatal(err)
	}
	gen := codegen.New(arch.MustInventory(cfg))
	in, info, err := gen.Pipeline(doc, doc.Pipes[0])
	if err != nil {
		b.Fatal(err)
	}
	node := sim.MustNode(cfg)
	if err := p.Load(node); err != nil {
		b.Fatal(err)
	}
	var samples map[diagram.PadRef]trace.Sample
	// Element N²+N+1+N² .. pick an interior element: grid g=(1,1,1) is
	// element e = g + N² = 43+36 = 79 for N=6.
	elem := int64(p.Index(1, 1, 1) + p.N*p.N)
	for i := 0; i < b.N; i++ {
		samples, err = trace.Capture(node, in, doc.Pipes[0], info, elem)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportOnce("A4 debugging extension (§6)", trace.Annotate(doc.Pipes[0], samples))
}

// --- A5: the simplified architectural subset. ---

func BenchmarkA5SubsetModel(b *testing.B) {
	p := jacobi.NewModelProblem(8, 1e-4, 500)
	var full, sub *jacobi.Result
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var err error
			full, err = p.Run(arch.Default())
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("subset", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var err error
			sub, err = p.SubsetRun(arch.Subset())
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	if full == nil {
		var err error
		if full, err = p.Run(arch.Default()); err != nil {
			b.Fatal(err)
		}
	}
	if sub == nil {
		var err error
		if sub, err = p.SubsetRun(arch.Subset()); err != nil {
			b.Fatal(err)
		}
	}
	fullDoc, _, _ := p.BuildDocument(arch.Default())
	subDoc, _, _ := p.SubsetBuild(arch.Subset())
	fullIcons, subIcons := 0, 0
	for _, pp := range fullDoc.Pipes {
		fullIcons += len(pp.Icons)
	}
	for _, pp := range subDoc.Pipes {
		subIcons += len(pp.Icons)
	}
	reportOnce("A5 architectural subset (§6)", fmt.Sprintf(`point Jacobi, 8³ grid:
                      full NSC      subset (8 float-only singlets, no SDU)
  pipelines        %9d     %9d  (stencil / blend / broadcast phases)
  icons            %9d     %9d
  copies of u      %9d     %9d  (planes occupied by the same array)
  instrs/sweep     %9.1f     %9.1f
  cycles/sweep     %9.0f     %9.0f
  MFLOPS           %9.1f     %9.1f
"by ignoring certain features of the architecture, it may become easier
to program, but performance may be adversely affected" — the subset
needs 3 instructions and 8 array copies per sweep where the full model
needs 1 and 0.`,
		len(fullDoc.Pipes), len(subDoc.Pipes), fullIcons, subIcons, 1, 8,
		float64(full.Stats.Instructions-1)/float64(full.Iterations),
		float64(sub.Stats.Instructions-1)/float64(sub.Iterations),
		float64(full.Stats.Cycles)/float64(full.Iterations),
		float64(sub.Stats.Cycles)/float64(sub.Iterations),
		full.MFLOPS, sub.MFLOPS))
}

// --- checker throughput: the knowledge base consulted per keystroke. ---

func BenchmarkCheckerFullDocument(b *testing.B) {
	cfg := arch.Default()
	p := jacobi.NewModelProblem(8, 1e-4, 10)
	doc, _, err := p.BuildDocument(cfg)
	if err != nil {
		b.Fatal(err)
	}
	chk := checker.New(arch.MustInventory(cfg))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if es := checker.Errors(chk.CheckDocument(doc)); len(es) > 0 {
			b.Fatal(es)
		}
	}
}

// --- microcode generation throughput. ---

func BenchmarkCodegenJacobiDocument(b *testing.B) {
	cfg := arch.Default()
	p := jacobi.NewModelProblem(8, 1e-4, 10)
	doc, _, err := p.BuildDocument(cfg)
	if err != nil {
		b.Fatal(err)
	}
	gen := codegen.New(arch.MustInventory(cfg))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The three stages pipeline.CompileDocument runs, called
		// directly so the benchmark times codegen and no cache.
		ds, ans := gen.Chk.Check(doc)
		if es := checker.Errors(ds); len(es) > 0 {
			b.Fatal(es)
		}
		prog, _, err := gen.Lower(doc, ans)
		if err != nil {
			b.Fatal(err)
		}
		if err := gen.Validate(prog); err != nil {
			b.Fatal(err)
		}
	}
}

// --- simulator throughput in simulated elements per second. ---

func BenchmarkSimulatorThroughput(b *testing.B) {
	cfg := arch.Default()
	const count = 1 << 15
	in, err := buildPeakPipeline(cfg, count)
	if err != nil {
		b.Fatal(err)
	}
	node, err := freshNodeWithRamp(cfg, count)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := node.Exec(in); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(count * 8)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// --- M1: the reference [6] workload — multigrid on the NSC. ---

func BenchmarkM1MultigridVCycle(b *testing.B) {
	cfg := arch.Default()
	var res *multigrid.Result
	var s *multigrid.Solver
	for i := 0; i < b.N; i++ {
		var err error
		s, err = multigrid.New(cfg, 17, 3, 1e-6, 100)
		if err != nil {
			b.Fatal(err)
		}
		res, err = s.Run()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.VCycles), "vcycles")
	fineSweeps := res.VCycles * (multigrid.PreSweeps + multigrid.PostSweeps)
	reportOnce("M1 multigrid (reference [6])", fmt.Sprintf(`V(%d,%d), ω=%.4f, levels 17³/9³/5³ on one node:
  converged in %d V-cycles (%d fine-grid sweeps; plain Jacobi needs ~1400)
  NSC residual register %.3e; host mirror bit-identical
  %d instructions, %d cycles, %.1f MFLOPS
smoothing, residual and correction all execute as visual-environment
pipelines; restriction/prolongation run on the host — the
between-phase data reformatting of §3.`,
		multigrid.PreSweeps, multigrid.PostSweeps, multigrid.DefaultOmega, res.VCycles, fineSweeps, res.Residual,
		res.Stats.Instructions, res.Stats.Cycles, res.Stats.MFLOPS(cfg.ClockHz)))
}

// --- S11: the fault-injection layer. ---

// BenchmarkS11FaultOverhead prices the robustness machinery added to
// the hypercube driver. "nil-plan" is the baseline solve (Machine.Faults
// == nil: the dispatch/exchange/merge paths see only nil checks);
// "armed-empty" installs a plan with zero events (the full bookkeeping
// allocated but never triggered); "faulted" runs a seeded kill plan
// with sweep-boundary checkpoints, so retries, backoff and snapshot
// cost all land in the measurement. The first two must agree on every
// simulated clock — zero-fault runs must cost nothing in machine time.
func BenchmarkS11FaultOverhead(b *testing.B) {
	cfg := arch.Default()
	build := func() *jacobi.Problem {
		return jacobi.NewBoxProblem(8, 10, 1e-4, 400) // 8 interior planes over the 4-node cube
	}
	run := func(plan *engine.FaultPlan, every int) (*hypercube.JacobiResult, *hypercube.Machine) {
		m, err := hypercube.New(cfg, 2)
		if err != nil {
			b.Fatal(err)
		}
		m.Workers = 1
		m.StopAfter = 10
		m.Faults = plan
		m.CheckpointEvery = every
		res, err := m.SolveJacobi(build())
		if err != nil {
			b.Fatal(err)
		}
		return res, m
	}
	var nilRes, emptyRes, faultedRes *hypercube.JacobiResult
	var nilM, emptyM, faultedM *hypercube.Machine
	b.Run("nil-plan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			nilRes, nilM = run(nil, 0)
		}
	})
	b.Run("armed-empty", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			emptyRes, emptyM = run(engine.MustFaultPlan(), 0)
		}
	})
	b.Run("faulted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			faultedRes, faultedM = run(engine.RandomFaultPlan(42, 10, 4, 4), 3)
		}
	})
	if nilRes == nil || emptyRes == nil || faultedRes == nil {
		return
	}
	if nilM.MachineCycles != emptyM.MachineCycles || nilM.CommCycles != emptyM.CommCycles {
		b.Errorf("armed-but-empty plan changed the simulated clocks: %d/%d vs %d/%d",
			emptyM.MachineCycles, emptyM.CommCycles, nilM.MachineCycles, nilM.CommCycles)
	}
	if faultedRes.Residual != nilRes.Residual {
		b.Errorf("faulted solve diverged: residual %g vs %g", faultedRes.Residual, nilRes.Residual)
	}
	reportOnce("S11 fault-layer overhead (hypercube driver)", fmt.Sprintf(
		`10-sweep Jacobi on 4 nodes (8×8×10):
  nil plan      machine %d cycles, comm %d  (baseline)
  armed, empty  machine %d cycles, comm %d  (bit-identical: zero-fault overhead is zero)
  seeded faults machine %d cycles, comm %d  (+%d cycles of retries/backoff/snapshots)
  faulted counters: %s
  residual identical across all three runs: faults cost cycles, never accuracy`,
		nilM.MachineCycles, nilM.CommCycles,
		emptyM.MachineCycles, emptyM.CommCycles,
		faultedM.MachineCycles, faultedM.CommCycles,
		faultedM.MachineCycles-nilM.MachineCycles, faultedRes.Faults))
}
