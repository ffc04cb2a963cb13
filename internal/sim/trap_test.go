package sim

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/diag"
	"repro/internal/microcode"
)

// buildDiv makes an instruction computing plane0[i] / plane1[i] →
// plane2[i] for count elements through one divider.
func buildDiv(n *Node, count int64) *microcode.Instr {
	cfg := n.Cfg
	in := n.F.NewInstr()
	div := arch.FUID(0)
	in.SetFUOp(div, arch.OpDiv)
	in.SetFUInput(div, 0, microcode.InSwitch, 0, 0)
	in.Route(cfg.SnkFUIn(div, 0), cfg.SrcMemRead(0))
	in.SetMemDMA(0, microcode.MemDMA{Enable: true, Addr: 0, Stride: 1, Count: count})
	in.SetFUInput(div, 1, microcode.InSwitch, 0, 0)
	in.Route(cfg.SnkFUIn(div, 1), cfg.SrcMemRead(1))
	in.SetMemDMA(1, microcode.MemDMA{Enable: true, Addr: 0, Stride: 1, Count: count})
	in.Route(cfg.SnkMemWrite(2), cfg.SrcFUOut(div))
	in.SetMemDMA(2, microcode.MemDMA{Enable: true, Write: true, Addr: 0, Stride: 1, Count: count,
		Start: arch.OpDiv.Info().Latency})
	in.SetSeq(microcode.Seq{Cond: microcode.CondHalt})
	return in
}

// The FP edge-case stream used by the policy table below. Element by
// element: a clean divide, 0/0 (invalid), 1/0 (div-zero), an overflow
// that rounds to +Inf from finite operands, a result that lands in the
// subnormal range (underflow, count-only), an Inf propagation and a
// NaN propagation (neither is a new exception).
var (
	fpEdgeA = []float64{1, 0, 1, math.MaxFloat64, 1e-300, math.Inf(1), math.NaN()}
	fpEdgeB = []float64{2, 0, 0, 0.5, 1e10, 2, 2}
)

func loadFPEdge(t *testing.T, n *Node) {
	t.Helper()
	if err := n.WriteWords(0, 0, fpEdgeA); err != nil {
		t.Fatal(err)
	}
	if err := n.WriteWords(1, 0, fpEdgeB); err != nil {
		t.Fatal(err)
	}
}

func trapKinds(n *Node) []TrapKind {
	var ks []TrapKind
	for _, irq := range n.IRQs {
		if irq.Trap != nil {
			ks = append(ks, irq.Trap.Kind)
		}
	}
	return ks
}

// TestFPEdgeTable drives the edge stream under every policy, asserting
// both the values committed to memory and the exact trap sequence.
func TestFPEdgeTable(t *testing.T) {
	count := int64(len(fpEdgeA))
	checkVals := func(t *testing.T, n *Node) {
		t.Helper()
		got, err := n.ReadWords(2, 0, int(count))
		if err != nil {
			t.Fatal(err)
		}
		want := []float64{0.5, math.NaN(), math.Inf(1), math.Inf(1), 1e-310, math.Inf(1), math.NaN()}
		for i, w := range want {
			if math.IsNaN(w) != math.IsNaN(got[i]) || (!math.IsNaN(w) && got[i] != w) {
				t.Errorf("element %d = %v, want %v", i, got[i], w)
			}
		}
	}

	t.Run("off", func(t *testing.T) {
		n := newNode(t)
		loadFPEdge(t, n)
		if err := n.Exec(buildDiv(n, count)); err != nil {
			t.Fatal(err)
		}
		checkVals(t, n)
		if !n.TrapCounters.Zero() {
			t.Errorf("policy off counted traps: %s", n.TrapCounters)
		}
		if len(n.IRQs) != 0 {
			t.Errorf("policy off raised %d interrupts", len(n.IRQs))
		}
	})

	t.Run("quiet", func(t *testing.T) {
		n := newNode(t)
		n.TrapCfg = arch.TrapConfig{Policy: arch.TrapQuietNaN}
		loadFPEdge(t, n)
		if err := n.Exec(buildDiv(n, count)); err != nil {
			t.Fatal(err)
		}
		checkVals(t, n) // identical values: quiet policy never alters FU results
		tc := n.TrapCounters
		if tc.Invalid != 1 || tc.DivZero != 1 || tc.Overflow != 1 || tc.Underflow != 1 {
			t.Errorf("counters = %s, want one each of invalid/divzero/overflow/underflow", tc)
		}
		if tc.Quieted != 3 {
			t.Errorf("quieted = %d, want 3 (underflow is count-only)", tc.Quieted)
		}
		want := []TrapKind{TrapInvalid, TrapDivZero, TrapOverflow}
		got := trapKinds(n)
		if len(got) != len(want) {
			t.Fatalf("trap sequence %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("trap %d = %v, want %v", i, got[i], want[i])
			}
		}
		// Propagated Inf/NaN raised no new traps: elements 5 and 6 left
		// no records beyond the three above.
	})

	t.Run("halt", func(t *testing.T) {
		n := newNode(t)
		n.TrapCfg = arch.TrapConfig{Policy: arch.TrapHalt}
		loadFPEdge(t, n)
		err := n.Exec(buildDiv(n, count))
		var te *TrapError
		if !errors.As(err, &te) {
			t.Fatalf("halt policy returned %v, want *TrapError", err)
		}
		if te.Trap.Kind != TrapInvalid {
			t.Errorf("halted on %v, want invalid (0/0 is the first exception)", te.Trap.Kind)
		}
		if te.Trap.Element != 1 {
			t.Errorf("trap element = %d, want 1", te.Trap.Element)
		}
		if te.Trap.Op != arch.OpDiv || te.Trap.FU != 0 {
			t.Errorf("trap unit = fu%d (%s)", te.Trap.FU, te.Trap.Op)
		}
		for _, frag := range []string{"invalid", "element 1", "cycle"} {
			if !strings.Contains(err.Error(), frag) {
				t.Errorf("error %q does not name %q", err, frag)
			}
		}
		// Aborted before commit: plane 2 is untouched.
		got, _ := n.ReadWords(2, 0, int(count))
		for i, v := range got {
			if v != 0 {
				t.Errorf("sink committed element %d = %v despite halt", i, v)
			}
		}
		if n.TrapCounters.Halts != 1 {
			t.Errorf("halts = %d", n.TrapCounters.Halts)
		}
	})

	t.Run("retry", func(t *testing.T) {
		n := newNode(t)
		n.TrapCfg = arch.TrapConfig{Policy: arch.TrapRetry}
		loadFPEdge(t, n)
		err := n.Exec(buildDiv(n, count))
		var te *TrapError
		if !errors.As(err, &te) {
			t.Fatalf("retry of a deterministic 0/0 returned %v, want *TrapError", err)
		}
		if te.Attempts != 1+arch.TrapRetries {
			t.Errorf("attempts = %d, want %d", te.Attempts, 1+arch.TrapRetries)
		}
		tc := n.TrapCounters
		if tc.Retries != arch.TrapRetries || tc.Halts != 1 {
			t.Errorf("retries=%d halts=%d, want %d and 1", tc.Retries, tc.Halts, arch.TrapRetries)
		}
		if tc.Invalid != int64(te.Attempts) {
			t.Errorf("invalid counted %d times over %d attempts", tc.Invalid, te.Attempts)
		}
		if tc.RetryCycles == 0 {
			t.Error("retry recovery charged zero simulated cycles")
		}
	})
}

func TestECCSingleBitCorrected(t *testing.T) {
	n := newNode(t)
	data := seq(16, func(i int) float64 { return float64(i) + 0.25 })
	if err := n.WriteWords(0, 0, data); err != nil {
		t.Fatal(err)
	}
	if err := n.InjectECC(ECCFault{Plane: 0, Addr: 3}, ECCFault{Plane: 0, Addr: 9}); err != nil {
		t.Fatal(err)
	}
	if err := n.Exec(buildCopy(n, 0, 1, 16)); err != nil {
		t.Fatalf("corrected faults aborted the instruction: %v", err)
	}
	got, _ := n.ReadWords(1, 0, 16)
	for i := range data {
		if got[i] != data[i] {
			t.Errorf("element %d = %v, want %v (single-bit flips must be corrected)", i, got[i], data[i])
		}
	}
	if n.TrapCounters.ECCCorrected != 2 {
		t.Errorf("corrected = %d, want 2", n.TrapCounters.ECCCorrected)
	}
	if len(n.IRQs) != 0 {
		t.Error("corrected faults raised interrupts")
	}
	if n.ECCPending() != 0 {
		t.Errorf("%d events still armed after firing", n.ECCPending())
	}
}

func TestECCDoubleBit(t *testing.T) {
	data := seq(16, func(i int) float64 { return 1.5 * float64(i) })
	build := func(t *testing.T, tc arch.TrapConfig) *Node {
		n := newNode(t)
		n.TrapCfg = tc
		if err := n.WriteWords(0, 0, data); err != nil {
			t.Fatal(err)
		}
		if err := n.InjectECC(ECCFault{Plane: 0, Addr: 5, Double: true}); err != nil {
			t.Fatal(err)
		}
		return n
	}

	t.Run("halt", func(t *testing.T) {
		n := build(t, arch.TrapConfig{Policy: arch.TrapHalt})
		err := n.Exec(buildCopy(n, 0, 1, 16))
		var te *TrapError
		if !errors.As(err, &te) {
			t.Fatalf("got %v, want *TrapError", err)
		}
		if te.Trap.Kind != TrapECC || te.Trap.Plane != 0 || te.Trap.Addr != 5 || te.Trap.Element != 5 {
			t.Errorf("trap = %+v, want ecc plane 0 addr 5 element 5", te.Trap)
		}
		for _, frag := range []string{"plane 0", "element 5", "cycle"} {
			if !strings.Contains(err.Error(), frag) {
				t.Errorf("error %q does not name %q", err, frag)
			}
		}
	})

	t.Run("retry-recovers-bit-identical", func(t *testing.T) {
		clean := newNode(t)
		if err := clean.WriteWords(0, 0, data); err != nil {
			t.Fatal(err)
		}
		if err := clean.Exec(buildCopy(clean, 0, 1, 16)); err != nil {
			t.Fatal(err)
		}
		wantVals, _ := clean.ReadWords(1, 0, 16)

		n := build(t, arch.TrapConfig{Policy: arch.TrapRetry})
		if err := n.Exec(buildCopy(n, 0, 1, 16)); err != nil {
			t.Fatalf("transient double-bit fault not recovered: %v", err)
		}
		got, _ := n.ReadWords(1, 0, 16)
		for i := range wantVals {
			if math.Float64bits(got[i]) != math.Float64bits(wantVals[i]) {
				t.Errorf("element %d = %v, want bit-identical %v", i, got[i], wantVals[i])
			}
		}
		tc := n.TrapCounters
		if tc.Retries != 1 || tc.ECCUncorrectable != 1 || tc.Halts != 0 {
			t.Errorf("counters = %s, want one retry, one uncorrectable, no halt", tc)
		}
		// The recovery was priced: the faulted run took longer in
		// simulated time than the clean one.
		if n.Stats.Cycles <= clean.Stats.Cycles {
			t.Errorf("faulted cycles %d ≤ clean cycles %d: retry was free", n.Stats.Cycles, clean.Stats.Cycles)
		}
	})

	t.Run("quiet", func(t *testing.T) {
		n := build(t, arch.TrapConfig{Policy: arch.TrapQuietNaN})
		if err := n.Exec(buildCopy(n, 0, 1, 16)); err != nil {
			t.Fatal(err)
		}
		got, _ := n.ReadWords(1, 0, 16)
		for i := range data {
			if i == 5 {
				if !math.IsNaN(got[i]) {
					t.Errorf("element 5 = %v, want quiet NaN substitute", got[i])
				}
			} else if got[i] != data[i] {
				t.Errorf("element %d = %v, want %v", i, got[i], data[i])
			}
		}
		if n.TrapCounters.Quieted != 1 || n.TrapCounters.ECCUncorrectable != 1 {
			t.Errorf("counters = %s", n.TrapCounters)
		}
	})

	t.Run("off-still-fatal", func(t *testing.T) {
		n := build(t, arch.TrapConfig{})
		var te *TrapError
		if err := n.Exec(buildCopy(n, 0, 1, 16)); !errors.As(err, &te) {
			t.Fatalf("got %v: uncorrectable ECC must be fatal without a recovery policy", err)
		}
	})
}

func TestInjectECCValidates(t *testing.T) {
	n := newNode(t)
	if err := n.InjectECC(ECCFault{Plane: 99, Addr: 0}); err == nil {
		t.Error("plane 99 accepted")
	}
	if err := n.InjectECC(ECCFault{Plane: 0, Addr: -1}); err == nil {
		t.Error("negative address accepted")
	}
	if err := n.InjectECC(ECCFault{Plane: 0, Addr: n.Cfg.PlaneWords()}); err == nil {
		t.Error("past-end address accepted")
	}
}

// TestParseECCFaults: one event parses to its fields and prints back;
// a malformed event is an R040 diagnostic naming the bad field.
func TestParseECCFaults(t *testing.T) {
	for spec, want := range map[string]ECCFault{
		" 0:5:single":  {Plane: 0, Addr: 5},
		"2:100:double": {Plane: 2, Addr: 100, Double: true},
	} {
		f, err := ParseECCFault(spec)
		if err != nil || f != want || f.String() != strings.TrimSpace(spec) {
			t.Errorf("%q parsed to %+v (%q), %v", spec, f, f, err)
		}
	}
	for _, tc := range []struct{ spec, names string }{
		{"", `""`},
		{"0:5", `"0:5"`},
		{"0:5:single:extra", `"0:5:single:extra"`},
		{"x:5:single", `plane "x"`},
		{"0:y:double", `addr "y"`},
		{"0:5:triple", `kind "triple"`},
	} {
		_, err := ParseECCFault(tc.spec)
		var de *diag.DiagError
		if !errors.As(err, &de) || de.Rule() != diag.RuleFaultPlan || !strings.Contains(err.Error(), tc.names) {
			t.Errorf("%q: error %v, want a %s diagnostic naming %s", tc.spec, err, diag.RuleFaultPlan, tc.names)
		}
	}
}

func TestWatchdog(t *testing.T) {
	data := seq(50, func(i int) float64 { return float64(i) })

	t.Run("halt", func(t *testing.T) {
		n := newNode(t)
		n.TrapCfg = arch.TrapConfig{Policy: arch.TrapHalt, WatchdogCycles: 10}
		if err := n.WriteWords(0, 0, data); err != nil {
			t.Fatal(err)
		}
		var te *TrapError
		if err := n.Exec(buildCopy(n, 0, 1, 50)); !errors.As(err, &te) {
			t.Fatalf("got %v, want watchdog *TrapError", err)
		}
		if te.Trap.Kind != TrapWatchdog {
			t.Errorf("kind = %v", te.Trap.Kind)
		}
	})

	t.Run("alarm-under-other-policies", func(t *testing.T) {
		for _, p := range []arch.TrapPolicy{arch.TrapOff, arch.TrapRetry, arch.TrapQuietNaN} {
			n := newNode(t)
			n.TrapCfg = arch.TrapConfig{Policy: p, WatchdogCycles: 10}
			if err := n.WriteWords(0, 0, data); err != nil {
				t.Fatal(err)
			}
			if err := n.Exec(buildCopy(n, 0, 1, 50)); err != nil {
				t.Fatalf("policy %v: watchdog alarm aborted the instruction: %v", p, err)
			}
			if n.TrapCounters.Watchdog != 1 {
				t.Errorf("policy %v: watchdog = %d", p, n.TrapCounters.Watchdog)
			}
			if ks := trapKinds(n); len(ks) != 1 || ks[0] != TrapWatchdog {
				t.Errorf("policy %v: trap records %v", p, ks)
			}
		}
	})

	t.Run("budget-honored", func(t *testing.T) {
		n := newNode(t)
		n.TrapCfg = arch.TrapConfig{Policy: arch.TrapHalt, WatchdogCycles: 100000}
		if err := n.WriteWords(0, 0, data); err != nil {
			t.Fatal(err)
		}
		if err := n.Exec(buildCopy(n, 0, 1, 50)); err != nil {
			t.Fatalf("generous budget tripped: %v", err)
		}
		if n.TrapCounters.Watchdog != 0 {
			t.Error("watchdog fired under budget")
		}
	})
}

// TestTrapRecordsCapped: counters stay exact past the IRQ-log cap.
func TestTrapRecordsCapped(t *testing.T) {
	n := newNode(t)
	n.TrapCfg = arch.TrapConfig{Policy: arch.TrapQuietNaN}
	count := int64(maxTrapRecords + 200)
	// Plane 0 and plane 1 read as zero: every element is 0/0.
	if err := n.Exec(buildDiv(n, count)); err != nil {
		t.Fatal(err)
	}
	if n.TrapCounters.Invalid != count {
		t.Errorf("invalid = %d, want %d", n.TrapCounters.Invalid, count)
	}
	if len(n.IRQs) != maxTrapRecords {
		t.Errorf("IRQ log %d records, want cap %d", len(n.IRQs), maxTrapRecords)
	}
	if n.TrapCounters.Dropped != count-maxTrapRecords {
		t.Errorf("dropped = %d, want %d", n.TrapCounters.Dropped, count-maxTrapRecords)
	}
}

// TestRunTrapsDelta: RunResult carries the per-run counter delta.
func TestRunTrapsDelta(t *testing.T) {
	n := newNode(t)
	n.TrapCfg = arch.TrapConfig{Policy: arch.TrapQuietNaN}
	n.TrapCounters.Invalid = 7 // pre-existing history must not leak in
	p := microcode.NewProgram(n.F)
	p.Append(buildDiv(n, 4)) // all 0/0
	res, err := n.Run(p, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Traps.Invalid != 4 || res.Traps.Quieted != 4 {
		t.Errorf("run traps = %s, want 4 invalid / 4 quieted", res.Traps)
	}
}

// TestTrapZeroCycleOverhead: when no traps fire, an armed policy and a
// watchdog budget must charge exactly the same simulated cycles as the
// seed behaviour — detection is free in machine time.
func TestTrapZeroCycleOverhead(t *testing.T) {
	run := func(tc arch.TrapConfig) int64 {
		n := newNode(t)
		n.TrapCfg = tc
		if err := n.WriteWords(0, 0, seq(64, func(i int) float64 { return float64(i) + 1 })); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			if err := n.Exec(buildCopy(n, 0, 1, 64)); err != nil {
				t.Fatal(err)
			}
		}
		return n.Stats.Cycles
	}
	base := run(arch.TrapConfig{})
	for _, tc := range []arch.TrapConfig{
		{Policy: arch.TrapHalt},
		{Policy: arch.TrapRetry},
		{Policy: arch.TrapQuietNaN, WatchdogCycles: 1 << 30},
	} {
		if got := run(tc); got != base {
			t.Errorf("config %+v: cycles %d, want %d (zero overhead)", tc, got, base)
		}
	}
}

func TestClassifyFP(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, tc := range []struct {
		name  string
		op    arch.Op
		a, b  float64
		arity int
		v     float64
		kind  TrapKind
		isNew bool
	}{
		{"clean", arch.OpAdd, 1, 2, 2, 3, 0, false},
		{"invalid-0div0", arch.OpDiv, 0, 0, 2, nan, TrapInvalid, true},
		{"invalid-inf-minus-inf", arch.OpSub, inf, inf, 2, nan, TrapInvalid, true},
		{"nan-propagation", arch.OpAdd, nan, 1, 2, nan, 0, false},
		{"divzero", arch.OpDiv, 1, 0, 2, inf, TrapDivZero, true},
		{"recip-zero", arch.OpRecip, 0, 0, 1, inf, TrapDivZero, true},
		{"overflow-mul", arch.OpMul, math.MaxFloat64, 2, 2, inf, TrapOverflow, true},
		{"inf-propagation", arch.OpMul, inf, 2, 2, inf, 0, false},
		{"underflow", arch.OpMul, 1e-200, 1e-120, 2, 1e-320, TrapUnderflow, true},
		{"smallest-normal-ok", arch.OpMov, minNormal, 0, 1, minNormal, 0, false},
		{"zero-ok", arch.OpSub, 5, 5, 2, 0, 0, false},
		{"unary-ignores-b", arch.OpNeg, 1, nan, 1, -1, 0, false},
	} {
		kind, isNew := classifyFP(tc.op, tc.a, tc.b, tc.arity, tc.v)
		if isNew != tc.isNew || (isNew && kind != tc.kind) {
			t.Errorf("%s: classify = %v,%v, want %v,%v", tc.name, kind, isNew, tc.kind, tc.isNew)
		}
	}
}

func TestTrapKindStrings(t *testing.T) {
	for _, k := range []TrapKind{TrapInvalid, TrapDivZero, TrapOverflow, TrapUnderflow,
		TrapUnknownOp, TrapECC, TrapWatchdog} {
		if s := k.String(); s == "" || strings.HasPrefix(s, "TrapKind(") {
			t.Errorf("kind %d has no name", int(k))
		}
	}
	if s := TrapKind(42).String(); !strings.HasPrefix(s, "TrapKind(") {
		t.Errorf("unknown kind renders %q", s)
	}
}

// BenchmarkTrapOverhead measures the wall-clock cost of arming trap
// detection when no traps fire (the acceptance bar is <5% over the
// detection-off baseline; simulated cycles are asserted identical by
// TestTrapZeroCycleOverhead).
func BenchmarkTrapOverhead(b *testing.B) {
	for _, bc := range []struct {
		name string
		tc   arch.TrapConfig
	}{
		{"off", arch.TrapConfig{}},
		{"armed", arch.TrapConfig{Policy: arch.TrapRetry, WatchdogCycles: 1 << 30}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			n := MustNode(arch.Default())
			n.TrapCfg = bc.tc
			if err := n.WriteWords(0, 0, seq(512, func(i int) float64 { return float64(i) + 1 })); err != nil {
				b.Fatal(err)
			}
			in := buildCopy(n, 0, 1, 512)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := n.Exec(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
