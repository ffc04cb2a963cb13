package sim_test

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/codegen"
	"repro/internal/jacobi"
	"repro/internal/microcode"
	"repro/internal/sim"
)

// gateNode loads the 12³ model problem onto a fresh node and compiles
// its forward Jacobi sweep, the instruction the kernel gates time.
func gateNode(t *testing.T, kernelOff bool) (*sim.Node, *microcode.Instr) {
	t.Helper()
	return sweepNode(t, jacobi.NewModelProblem(12, 1e-6, 1), kernelOff)
}

// sweepNode loads p onto a fresh node and compiles its forward sweep.
func sweepNode(t testing.TB, p *jacobi.Problem, kernelOff bool) (*sim.Node, *microcode.Instr) {
	t.Helper()
	cfg := arch.Default()
	node, err := sim.NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	node.KernelOff = kernelOff
	doc, _, err := p.BuildDocument(cfg)
	if err != nil {
		t.Fatal(err)
	}
	in, _, err := codegen.New(node.Inv).Pipeline(doc, doc.Pipes[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Load(node); err != nil {
		t.Fatal(err)
	}
	return node, in
}

// TestKernelGates holds the specialized kernel to its two performance
// contracts on a whole Jacobi sweep. Once warm, a dispatch makes at
// most one allocation and never falls back to the interpreter; and
// the interpreter, which KernelOff pins, never takes the kernel and
// runs slower than it. Each side's time is its fastest of several
// interleaved dispatches, so host noise hits both alike; the kernel is
// several times faster, with or without the race detector.
func TestKernelGates(t *testing.T) {
	fast, fastIn := gateNode(t, false)
	slow, slowIn := gateNode(t, true)
	exec := func(n *sim.Node, in *microcode.Instr) time.Duration {
		start := time.Now()
		if err := n.Exec(in); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	exec(fast, fastIn) // warm-up: the first dispatch compiles the plan

	if allocs := testing.AllocsPerRun(20, func() { exec(fast, fastIn) }); allocs > 1 {
		t.Errorf("warm kernel makes %v allocs per Exec, want at most 1", allocs)
	}
	if ks := fast.KernelStatsOf(); ks.Slow != 0 || ks.Fast == 0 {
		t.Errorf("warm kernel took the interpreter: %+v", ks)
	}

	bestFast, bestSlow := time.Duration(1<<62), time.Duration(1<<62)
	for i := 0; i < 15; i++ {
		bestFast = min(bestFast, exec(fast, fastIn))
		bestSlow = min(bestSlow, exec(slow, slowIn))
	}
	if ks := slow.KernelStatsOf(); ks.Fast != 0 {
		t.Errorf("KernelOff node took the kernel: %+v", ks)
	}
	t.Logf("kernel %v, interpreter %v per Exec (%.1f× slower)",
		bestFast, bestSlow, float64(bestSlow)/float64(bestFast))
	if bestSlow <= bestFast {
		t.Errorf("interpreter (%v per Exec) is not slower than the kernel (%v)", bestSlow, bestFast)
	}
}

// TestNewNodeGates holds a warm NewNode to its allocation budget:
// nodes of one Config share its Inventory and Format, a node's planes
// sit in one slice and its caches in another, and a plane's page map
// and pages and a cache's buffers are allocated only when first
// written, so a node costs a few allocations for its headers.
func TestNewNodeGates(t *testing.T) {
	cfg := arch.Default()
	newNode := func() {
		if _, err := sim.NewNode(cfg); err != nil {
			t.Fatal(err)
		}
	}
	newNode() // warm-up: the Config's first node builds the shared tables
	allocs := testing.AllocsPerRun(20, newNode)
	if allocs > 10 {
		t.Errorf("warm NewNode makes %v allocs, want at most 10", allocs)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		newNode()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	if bytes > 16<<10 {
		t.Errorf("warm NewNode allocates %d bytes, want at most %d", bytes, 16<<10)
	}
	t.Logf("warm NewNode: %v allocs, %d bytes", allocs, bytes)
}

// TestCompileAllocGate holds the decode of the 12³ forward Jacobi
// sweep to its allocation budget: the plan and its slices, each
// allocated once at the size a counting pass found, one table of
// per-port slots and depths, and the kernel lowering's own. Slices
// grown by append, ports kept in maps and SDU taps read into fresh
// slices cost about 35 more. The two compiles left in a fresh
// machine's solve sit on its first two dispatches.
func TestCompileAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation adds allocations")
	}
	node, in := gateNode(t, false)
	allocs := testing.AllocsPerRun(20, func() {
		if err := sim.Compile(node, in); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 20 {
		t.Errorf("decoding the Jacobi forward sweep makes %v allocs, want at most 20", allocs)
	}
	t.Logf("decoding the 12³ Jacobi forward sweep: %v allocs", allocs)
}

// TestKernelLanes pins the kernel's working set. The Jacobi forward
// sweep has 3 sources, one SDU whose 8 taps take no lanes, 12 FUs and
// a sink. Its stride-1 sources are read in place and its residual
// reduction is read by its register alone, so 11 FUs need lanes. A
// stream of one block shares windows as liveness allows: 12³ (T =
// 2184) runs as one block in 5 windows of T cycles. A longer stream
// runs in blocks, each of the 11 lanes a window of one block plus its
// reach, so a warm slab holds at most 256 KiB however long its stream:
// 48×48×6 (one rank of a 48×48×34 grid on 8 ranks) and 128×128×4 (the
// paper's 64-node machine at 128×128×130) alike. A node that only runs
// the kernel holds no validity lanes.
func TestKernelLanes(t *testing.T) {
	for _, tc := range []struct {
		name  string
		p     *jacobi.Problem
		lanes int
	}{
		{"12³", jacobi.NewModelProblem(12, 1e-6, 1), 5},
		{"48×48×6", slab48(), 11},
		{"128×128×4", slab128(), 11},
	} {
		node, in := sweepNode(t, tc.p, false)
		lanes, err := sim.KernelLanes(node, in)
		if err != nil {
			t.Fatal(err)
		}
		if lanes != tc.lanes {
			t.Errorf("%s: forward sweep lowers to %d lanes, want %d", tc.name, lanes, tc.lanes)
		}
		for i := 0; i < 2; i++ {
			if err := node.Exec(in); err != nil {
				t.Fatal(err)
			}
		}
		val, ok := sim.ScratchBytes(node)
		if ok != 0 {
			t.Errorf("%s: kernel-only node holds %d bytes of validity lanes", tc.name, ok)
		}
		if val == 0 || val > 256<<10 {
			t.Errorf("%s: warm scratch %d bytes, want (0, %d]", tc.name, val, 256<<10)
		}
		t.Logf("%s: %d lanes, %d bytes of scratch", tc.name, lanes, val)
	}
}

// slab48 is one rank's slab of a 48×48×34 grid on 8 ranks: 48×48×6
// with its ghost planes.
func slab48() *jacobi.Problem { return slab(48, 6) }

// slab128 is one rank's slab of a 128×128×130 grid on 64 ranks:
// 128×128×4 with its ghost planes.
func slab128() *jacobi.Problem { return slab(128, 4) }

// slab is an n×n×nz slab with zero inputs.
func slab(n, nz int) *jacobi.Problem {
	return &jacobi.Problem{N: n, Nz: nz, H: 1.0 / float64(n-1), Tol: 1e-6, MaxIter: 1,
		F: make([]float64, n*n*nz), U0: make([]float64, n*n*nz), Mask: make([]float64, n*n*nz)}
}

// TestKernelDemand pins what the Jacobi forward sweep computes under
// demand lowering. Its maxabs residual reduction is read by its
// register alone, so it needs cycle T-1 only and keeps no running lane;
// the sink's producer needs exactly the cycles the sink commits; every
// need lies in [0,T); and each of the 11 other FUs computes exactly as
// many cycles as the sink commits (13,824 of T = 20,760 on a 48×48×6
// slab), where without demand each computed all T.
func TestKernelDemand(t *testing.T) {
	for _, tc := range []struct {
		name         string
		p            *jacobi.Problem
		T, sink, fus int
	}{
		{"12³", jacobi.NewModelProblem(12, 1e-6, 1), 2184, 168, 12 * 12 * 12},
		{"48×48×6", slab48(), 20760, 2328, 48 * 48 * 6},
	} {
		node, in := sweepNode(t, tc.p, false)
		T, ops, sinks, err := sim.KernelDemand(node, in)
		if err != nil || ops == nil {
			t.Fatalf("%s: lowering failed: %v", tc.name, err)
		}
		if T != tc.T || len(sinks) != 1 {
			t.Fatalf("%s: T = %d with %d sinks, want %d with 1", tc.name, T, len(sinks), tc.T)
		}
		s := sinks[0]
		if s.Lo != tc.sink || s.Hi-s.Lo != tc.fus {
			t.Errorf("%s: sink commits [%d,%d), want %d cycles from %d", tc.name, s.Lo, s.Hi, tc.fus, tc.sink)
		}
		if got := ops[s.Op]; got.Lo != s.Lo || got.Hi != s.Hi {
			t.Errorf("%s: sink's producer needs [%d,%d), want the sink's [%d,%d)", tc.name, got.Lo, got.Hi, s.Lo, s.Hi)
		}
		fus, reduces := 0, 0
		for i, op := range ops {
			if op.Lo < 0 || op.Hi > T || op.Lo >= op.Hi {
				t.Errorf("%s: op %d needs [%d,%d), want a non-empty span in [0,%d)", tc.name, i, op.Lo, op.Hi, T)
			}
			switch {
			case op.Reduce:
				reduces++
				if op.Lo != T-1 || op.Hi != T {
					t.Errorf("%s: reduction op %d needs [%d,%d), want register-only [%d,%d)", tc.name, i, op.Lo, op.Hi, T-1, T)
				}
			case op.FU:
				fus++
				if op.Hi-op.Lo != tc.fus {
					t.Errorf("%s: FU op %d needs %d cycles, want the sink's %d", tc.name, i, op.Hi-op.Lo, tc.fus)
				}
			}
		}
		if fus != 11 || reduces != 1 {
			t.Errorf("%s: %d FUs and %d reductions, want 11 and 1", tc.name, fus, reduces)
		}
	}
}

// BenchmarkKernelSweep times one warm forward-sweep Exec through the
// kernel on the 12³ model problem, a 48×48×6 slab and a 128×128×4 slab:
// the go test probe for kernel work, beside nscbench's whole-solve
// record.
func BenchmarkKernelSweep(b *testing.B) {
	for _, bc := range []struct {
		name string
		p    *jacobi.Problem
	}{
		{"12³", jacobi.NewModelProblem(12, 1e-6, 1)},
		{"48×48×6", slab48()},
		{"128×128×4", slab128()},
	} {
		b.Run(bc.name, func(b *testing.B) {
			node, in := sweepNode(b, bc.p, false)
			if err := node.Exec(in); err != nil { // warm: compile the plan, grow scratch
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := node.Exec(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
