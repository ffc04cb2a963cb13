package sim

import (
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/microcode"
)

// TestPlanCacheCounters checks the decode-once contract: repeated
// dispatch of the same instruction compiles exactly one plan, and every
// execution after the first is a cache hit.
func TestPlanCacheCounters(t *testing.T) {
	n := newNode(t)
	in := buildCopy(n, 0, 1, 16)
	for i := 0; i < 5; i++ {
		if err := n.Exec(in); err != nil {
			t.Fatal(err)
		}
	}
	st := n.PlanCacheStats()
	if st.Entries != 1 || st.Misses != 1 || st.Hits != 4 {
		t.Errorf("after 5 identical dispatches: %+v, want 1 entry, 1 miss, 4 hits", st)
	}

	// A DIFFERENT instruction compiles its own plan.
	other := buildCopy(n, 2, 3, 16)
	if err := n.Exec(other); err != nil {
		t.Fatal(err)
	}
	st = n.PlanCacheStats()
	if st.Entries != 2 || st.Misses != 2 {
		t.Errorf("after distinct instruction: %+v, want 2 entries, 2 misses", st)
	}

	n.ResetPlanCache()
	st = n.PlanCacheStats()
	if st.Entries != 0 || st.Misses != 0 || st.Hits != 0 {
		t.Errorf("after reset: %+v, want all zero", st)
	}
}

// TestPlanCacheInvalidatesOnMutation: the cache key is the instruction's
// exact bit pattern, so editing a cached instruction in place forces a
// recompile instead of replaying a stale plan.
func TestPlanCacheInvalidatesOnMutation(t *testing.T) {
	n := newNode(t)
	data := seq(16, func(i int) float64 { return float64(i + 1) })
	if err := n.WriteWords(0, 0, data); err != nil {
		t.Fatal(err)
	}
	in := buildCopy(n, 0, 1, 16)
	if err := n.Exec(in); err != nil {
		t.Fatal(err)
	}
	// Mutate: shrink the streamed vector to 8 elements.
	in.SetMemDMA(0, microcode.MemDMA{Enable: true, Addr: 0, Stride: 1, Count: 8})
	in.SetMemDMA(1, microcode.MemDMA{Enable: true, Write: true, Addr: 100, Stride: 1, Count: 8,
		Start: arch.OpMov.Info().Latency})
	if err := n.Exec(in); err != nil {
		t.Fatal(err)
	}
	st := n.PlanCacheStats()
	if st.Entries != 2 || st.Misses != 2 || st.Hits != 0 {
		t.Errorf("mutated instruction should recompile: %+v", st)
	}
	got, _ := n.ReadWords(1, 100, 8)
	for i := 0; i < 8; i++ {
		if got[i] != data[i] {
			t.Fatalf("mutated run wrote [%d] = %v, want %v", i, got[i], data[i])
		}
	}
}

// TestCachedExecMatchesUncached runs the same program on two fresh
// nodes — one through the plan cache, one decoding on every dispatch —
// and demands identical plane contents, statistics and reduction
// registers. The cache must be a pure performance optimization.
func TestCachedExecMatchesUncached(t *testing.T) {
	build := func() (*Node, *microcode.Instr, *microcode.Instr) {
		n := newNode(t)
		data := seq(64, func(i int) float64 { return float64(i)*0.25 - 3 })
		if err := n.WriteWords(0, 0, data); err != nil {
			t.Fatal(err)
		}
		copyIn := buildCopy(n, 0, 1, 64)
		// A maxabs reduction over the copied stream, on a min/max-capable
		// unit (triplet 0 slot 2 = FU 2).
		red := n.F.NewInstr()
		fu := arch.FUID(2)
		red.SetFUOp(fu, arch.OpMaxAbs)
		red.SetFUInput(fu, 0, microcode.InSwitch, 0, 0)
		red.SetFUInput(fu, 1, microcode.InFeedback, 0, 0)
		red.SetFUReduce(fu, true, 0)
		red.SetConst(0, 0.0)
		red.Route(n.Cfg.SnkFUIn(fu, 0), n.Cfg.SrcMemRead(1))
		red.SetMemDMA(1, microcode.MemDMA{Enable: true, Addr: 0, Stride: 1, Count: 64})
		red.SetSeq(microcode.Seq{Cond: microcode.CondHalt})
		return n, copyIn, red
	}

	cached, cIn, cRed := build()
	uncached, uIn, uRed := build()
	for i := 0; i < 3; i++ {
		if err := cached.Exec(cIn); err != nil {
			t.Fatal(err)
		}
		if err := cached.Exec(cRed); err != nil {
			t.Fatal(err)
		}
		if err := uncached.ExecUncached(uIn); err != nil {
			t.Fatal(err)
		}
		if err := uncached.ExecUncached(uRed); err != nil {
			t.Fatal(err)
		}
	}
	if st := uncached.PlanCacheStats(); st.Entries != 0 || st.Hits != 0 || st.Misses != 0 {
		t.Errorf("ExecUncached must bypass the cache entirely: %+v", st)
	}
	if cached.Stats.Cycles != uncached.Stats.Cycles ||
		cached.Stats.FLOPs != uncached.Stats.FLOPs ||
		cached.Stats.Elements != uncached.Stats.Elements ||
		cached.Stats.Instructions != uncached.Stats.Instructions {
		t.Errorf("stats diverge: cached %+v vs uncached %+v", cached.Stats, uncached.Stats)
	}
	for i := range cached.Stats.FUBusy {
		if cached.Stats.FUBusy[i] != uncached.Stats.FUBusy[i] {
			t.Errorf("FUBusy[%d]: cached %d vs uncached %d", i, cached.Stats.FUBusy[i], uncached.Stats.FUBusy[i])
		}
	}
	// max |i*0.25 - 3| over i=0..63 is 12.75 — checks the reduction ran.
	if cached.RedReg[2] != 12.75 || uncached.RedReg[2] != 12.75 {
		t.Errorf("reduction register: cached %v, uncached %v, want 12.75", cached.RedReg[2], uncached.RedReg[2])
	}
	cGot, _ := cached.ReadWords(1, 0, 64)
	uGot, _ := uncached.ReadWords(1, 0, 64)
	for i := range cGot {
		if cGot[i] != uGot[i] {
			t.Fatalf("plane word %d: cached %v vs uncached %v", i, cGot[i], uGot[i])
		}
	}
}

// TestCompileRejectsOutOfRangeCounter: the decode layer refuses an
// instruction whose sequencer loads a counter index the node does not
// have, instead of masking it to a valid one at run time.
func TestCompileRejectsOutOfRangeCounter(t *testing.T) {
	n := newNode(t)
	in := buildCopy(n, 0, 1, 4)
	in.SetSeq(microcode.Seq{Cond: microcode.CondHalt, CtrLoad: true, Ctr: 5, CtrValue: 9})
	err := n.Exec(in)
	if err == nil {
		t.Fatal("counter index 5 accepted (node has 4 counters)")
	}
	if !strings.Contains(err.Error(), "seq.ctr") {
		t.Errorf("error should name the counter field: %v", err)
	}
	if st := n.PlanCacheStats(); st.Entries != 0 {
		t.Errorf("failed compile must not be cached: %+v", st)
	}
}

// TestScratchSharedAcrossPlans: a node keeps one kernel working set
// for every plan it runs. Plans of different lengths and producer
// counts, interleaved on one node, must leave exactly the state they
// leave on a node whose working set is dropped before each dispatch,
// on the kernel path and in the interpreter.
func TestScratchSharedAcrossPlans(t *testing.T) {
	data := seq(64, func(i int) float64 { return float64(i)*0.75 - 20 })
	stencil := func(n *Node) *microcode.Instr {
		cfg := n.Cfg
		in := n.F.NewInstr()
		in.SetSDU(0, true, []int{0, 2})
		in.Route(cfg.SnkSDUIn(0), cfg.SrcMemRead(0))
		in.SetMemDMA(0, microcode.MemDMA{Enable: true, Addr: 0, Stride: 1, Count: 64})
		fu := arch.FUID(1)
		in.SetFUOp(fu, arch.OpAdd)
		in.SetFUInput(fu, 0, microcode.InSwitch, 0, 0)
		in.SetFUInput(fu, 1, microcode.InSwitch, 0, 2)
		in.Route(cfg.SnkFUIn(fu, 0), cfg.SrcSDUTap(0, 1))
		in.Route(cfg.SnkFUIn(fu, 1), cfg.SrcSDUTap(0, 0))
		in.Route(cfg.SnkMemWrite(2), cfg.SrcFUOut(fu))
		in.SetMemDMA(2, microcode.MemDMA{Enable: true, Write: true, Addr: 0, Stride: 1, Count: 64,
			Start: 3 + arch.OpAdd.Info().Latency})
		in.SetSeq(microcode.Seq{Cond: microcode.CondHalt})
		return in
	}
	reduce := func(n *Node) *microcode.Instr {
		cfg := n.Cfg
		in := n.F.NewInstr()
		mul, red := arch.FUID(0), arch.FUID(2)
		in.SetFUOp(mul, arch.OpMul)
		in.SetFUInput(mul, 0, microcode.InSwitch, 0, 0)
		in.SetFUInput(mul, 1, microcode.InConst, 1, 0)
		in.SetConst(1, 0.25)
		in.Route(cfg.SnkFUIn(mul, 0), cfg.SrcMemRead(2))
		in.SetMemDMA(2, microcode.MemDMA{Enable: true, Addr: 0, Stride: 1, Count: 48})
		in.SetFUOp(red, arch.OpMaxAbs)
		in.SetFUInput(red, 0, microcode.InSwitch, 0, 0)
		in.SetFUInput(red, 1, microcode.InFeedback, 0, 0)
		in.SetFUReduce(red, true, 0)
		in.SetConst(0, 0.0)
		in.Route(cfg.SnkFUIn(red, 0), cfg.SrcFUOut(mul))
		in.SetSeq(microcode.Seq{Cond: microcode.CondHalt, CmpEnable: true, CmpFU: red,
			CmpOp: microcode.CmpLT, CmpConst: 1, CmpFlag: 0})
		return in
	}
	prog := func(n *Node) []*microcode.Instr {
		if err := n.WriteWords(0, 0, data); err != nil {
			t.Fatal(err)
		}
		sten := stencil(n)
		return []*microcode.Instr{sten, buildCopy(n, 2, 3, 8), reduce(n), sten, buildCopy(n, 3, 4, 64)}
	}
	for _, kernelOff := range []bool{false, true} {
		shared, fresh := newNode(t), newNode(t)
		shared.KernelOff, fresh.KernelOff = kernelOff, kernelOff
		sIns, fIns := prog(shared), prog(fresh)
		for i := range sIns {
			fresh.ResetPlanCache()
			errS, errF := shared.Exec(sIns[i]), fresh.Exec(fIns[i])
			if errS != nil || errF != nil {
				t.Fatalf("kernelOff=%v instr %d: shared err %v, fresh err %v", kernelOff, i, errS, errF)
			}
		}
		if st := shared.PlanCacheStats(); st.Entries != 4 || st.Hits != 1 {
			t.Errorf("kernelOff=%v: plan cache %+v, want 4 entries and 1 hit", kernelOff, st)
		}
		compareNodes(t, "shared scratch", shared, fresh)
	}
}
