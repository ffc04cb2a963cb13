package sim

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/microcode"
)

func newNode(t testing.TB) *Node {
	t.Helper()
	n, err := NewNode(arch.Default())
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func seq(n int, f func(i int) float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = f(i)
	}
	return v
}

func TestPlaneReadWrite(t *testing.T) {
	pl := &Plane{words: 1 << 20}
	if v, err := pl.Read(12345); err != nil || v != 0 {
		t.Errorf("fresh read = %v,%v", v, err)
	}
	if err := pl.Write(12345, 3.5); err != nil {
		t.Fatal(err)
	}
	if v, _ := pl.Read(12345); v != 3.5 {
		t.Errorf("read back %v", v)
	}
	if _, err := pl.Read(-1); err == nil {
		t.Error("negative read accepted")
	}
	if _, err := pl.Read(1 << 20); err == nil {
		t.Error("past-end read accepted")
	}
	if err := pl.Write(1<<20, 1); err == nil {
		t.Error("past-end write accepted")
	}
	if pl.PagesResident() != 1 {
		t.Errorf("resident pages = %d", pl.PagesResident())
	}
}

// TestPlaneHoldsWrittenWords: a page holds the words from its start up
// to one past the highest word written to it, grows when a write
// reaches past that, and reads as zero beyond it through every reader.
func TestPlaneHoldsWrittenWords(t *testing.T) {
	n := newNode(t)
	pl := n.Mem[4]
	held := func(want int) {
		t.Helper()
		if got := len(pl.pages[1]); got != want {
			t.Errorf("page holds %d words, want %d", got, want)
		}
	}
	if err := n.WriteWords(4, pageWords, seq(256, func(i int) float64 { return float64(i + 1) })); err != nil {
		t.Fatal(err)
	}
	held(256)
	if err := pl.Write(pageWords+1000, -2); err != nil {
		t.Fatal(err)
	}
	held(1001)

	// Past the prefix every reader sees zeros; inside it, the words.
	if v, err := pl.Read(pageWords + 1001); err != nil || v != 0 {
		t.Errorf("Read past the prefix = %v, %v", v, err)
	}
	got, err := n.ReadWords(4, pageWords+998, 6)
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{0, 0, -2, 0, 0, 0}; !slices.Equal(got, want) {
		t.Errorf("ReadWords across the prefix end = %v, want %v", got, want)
	}
	dst := []float64{7, 7, 7, 7}
	if err := n.ReadWordsInto(4, pageWords+254, dst); err != nil {
		t.Fatal(err)
	}
	if want := []float64{255, 256, 0, 0}; !slices.Equal(dst, want) {
		t.Errorf("ReadWordsInto across the written words = %v, want %v", dst, want)
	}
	if dst, err = n.ReadWords(4, 2*pageWords-4, 8); err != nil || !slices.Equal(dst, make([]float64, 8)) {
		t.Errorf("ReadWords past the prefix into an absent page = %v, %v", dst, err)
	}
	held(1001)

	if err := pl.Write(2*pageWords-1, 5); err != nil {
		t.Fatal(err)
	}
	held(pageWords)
	if pl.PagesResident() != 1 {
		t.Errorf("resident pages = %d, want 1", pl.PagesResident())
	}
}

func TestDoubleBuffer(t *testing.T) {
	db := &DoubleBuffer{words: 64}
	if err := db.Write(0, 5, 1.5); err != nil {
		t.Fatal(err)
	}
	if err := db.Write(1, 5, 2.5); err != nil {
		t.Fatal(err)
	}
	db.Swap()
	if v, _ := db.Read(0, 5); v != 2.5 {
		t.Errorf("after swap buf0[5] = %v", v)
	}
	if v, _ := db.Read(1, 5); v != 1.5 {
		t.Errorf("after swap buf1[5] = %v", v)
	}
	if _, err := db.Read(2, 0); err == nil {
		t.Error("buffer 2 accepted")
	}
	if _, err := db.Read(0, 64); err == nil {
		t.Error("past-end accepted")
	}
	if err := db.Write(0, -1, 0); err == nil {
		t.Error("negative write accepted")
	}
}

// TestCacheBuffersOnFirstWrite: a fresh node holds no cache buffer.
// An unwritten buffer reads as zeros and is bounds-checked against the
// cache's word count; a failed write allocates nothing, a good one
// allocates only its own buffer, and a swap moves it.
func TestCacheBuffersOnFirstWrite(t *testing.T) {
	n := newNode(t)
	for p, db := range n.Cache {
		if db.bufs[0] != nil || db.bufs[1] != nil {
			t.Fatalf("fresh node holds cache %d's buffers", p)
		}
	}
	db := n.Cache[3]
	words := n.Cfg.CacheWords()
	if v, err := db.Read(1, words-1); v != 0 || err != nil {
		t.Errorf("unwritten read = %v, %v; want 0, nil", v, err)
	}
	if _, err := db.Read(1, words); err == nil {
		t.Error("unwritten read past the end accepted")
	}
	if err := db.Write(1, words, 1); err == nil {
		t.Error("write past the end accepted")
	}
	if db.bufs[1] != nil {
		t.Error("a failed write allocated the buffer")
	}
	if err := db.Write(1, 7, 2.5); err != nil {
		t.Fatal(err)
	}
	if db.bufs[0] != nil || int64(len(db.bufs[1])) != words {
		t.Errorf("write allocated buffers of %d and %d words, want 0 and %d",
			len(db.bufs[0]), len(db.bufs[1]), words)
	}
	db.Swap()
	if v, _ := db.Read(0, 7); v != 2.5 || db.bufs[1] != nil {
		t.Errorf("after swap: buf0[7] = %v, buf1 allocated %v", v, db.bufs[1] != nil)
	}
}

func TestNodeWriteReadWords(t *testing.T) {
	n := newNode(t)
	data := seq(100, func(i int) float64 { return float64(i) * 0.5 })
	if err := n.WriteWords(3, 1000, data); err != nil {
		t.Fatal(err)
	}
	got, err := n.ReadWords(3, 1000, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("word %d = %v, want %v", i, got[i], data[i])
		}
	}
	if err := n.WriteWords(99, 0, data); err == nil {
		t.Error("plane 99 accepted")
	}
	if _, err := n.ReadWords(-1, 0, 1); err == nil {
		t.Error("plane -1 accepted")
	}
}

// buildCopy makes an instruction that streams count words from plane
// src to plane dst through one mov unit.
func buildCopy(n *Node, src, dst int, count int64) *microcode.Instr {
	cfg := n.Cfg
	in := n.F.NewInstr()
	fu := arch.FUID(0)
	in.SetFUOp(fu, arch.OpMov)
	in.SetFUInput(fu, 0, microcode.InSwitch, 0, 0)
	in.Route(cfg.SnkFUIn(fu, 0), cfg.SrcMemRead(src))
	in.SetMemDMA(src, microcode.MemDMA{Enable: true, Addr: 0, Stride: 1, Count: count})
	in.Route(cfg.SnkMemWrite(dst), cfg.SrcFUOut(fu))
	in.SetMemDMA(dst, microcode.MemDMA{Enable: true, Write: true, Addr: 0, Stride: 1, Count: count,
		Start: arch.OpMov.Info().Latency})
	in.SetSeq(microcode.Seq{Cond: microcode.CondHalt})
	return in
}

func TestExecCopy(t *testing.T) {
	n := newNode(t)
	data := seq(50, func(i int) float64 { return float64(i * i) })
	if err := n.WriteWords(0, 0, data); err != nil {
		t.Fatal(err)
	}
	if err := n.Exec(buildCopy(n, 0, 1, 50)); err != nil {
		t.Fatal(err)
	}
	got, _ := n.ReadWords(1, 0, 50)
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("copy[%d] = %v, want %v", i, got[i], data[i])
		}
	}
	if n.Stats.Instructions != 1 {
		t.Errorf("instructions = %d", n.Stats.Instructions)
	}
	// Cycles: issue overhead + fill (mov latency) + 50 elements.
	want := int64(n.Cfg.IssueOverheadCycles) + int64(arch.OpMov.Info().Latency) + 50
	if n.Stats.Cycles != want {
		t.Errorf("cycles = %d, want %d", n.Stats.Cycles, want)
	}
}

// TestExecMisalignedTiming shows the simulator is cycle-faithful: an
// add of two streams where one side passes through an extra mov (1
// cycle deeper) without a balancing register delay combines SHIFTED
// elements — the bug class the environment prevents.
func TestExecMisalignedTiming(t *testing.T) {
	n := newNode(t)
	cfg := n.Cfg
	a := seq(20, func(i int) float64 { return float64(i) })
	if err := n.WriteWords(0, 0, a); err != nil {
		t.Fatal(err)
	}
	if err := n.WriteWords(1, 0, a); err != nil {
		t.Fatal(err)
	}

	build := func(balance int) *microcode.Instr {
		in := n.F.NewInstr()
		mov, add := arch.FUID(0), arch.FUID(1)
		in.SetFUOp(mov, arch.OpMov)
		in.SetFUInput(mov, 0, microcode.InSwitch, 0, 0)
		in.Route(cfg.SnkFUIn(mov, 0), cfg.SrcMemRead(0))
		in.SetFUOp(add, arch.OpAdd)
		in.SetFUInput(add, 0, microcode.InSwitch, 0, 0)
		in.Route(cfg.SnkFUIn(add, 0), cfg.SrcFUOut(mov))
		in.SetFUInput(add, 1, microcode.InSwitch, 0, balance)
		in.Route(cfg.SnkFUIn(add, 1), cfg.SrcMemRead(1))
		in.SetMemDMA(0, microcode.MemDMA{Enable: true, Addr: 0, Stride: 1, Count: 20})
		in.SetMemDMA(1, microcode.MemDMA{Enable: true, Addr: 0, Stride: 1, Count: 20})
		in.Route(cfg.SnkMemWrite(2), cfg.SrcFUOut(add))
		movLat := arch.OpMov.Info().Latency
		addLat := arch.OpAdd.Info().Latency
		in.SetMemDMA(2, microcode.MemDMA{Enable: true, Write: true, Addr: 0, Stride: 1, Count: 19,
			Skip: 1, Start: movLat + addLat})
		in.SetSeq(microcode.Seq{Cond: microcode.CondHalt})
		return in
	}

	// Balanced: delay the direct B path by the mov's latency.
	if err := n.Exec(build(arch.OpMov.Info().Latency)); err != nil {
		t.Fatal(err)
	}
	got, _ := n.ReadWords(2, 0, 19)
	for i := 0; i < 19; i++ {
		want := 2 * float64(i+1)
		if got[i] != want {
			t.Fatalf("balanced[%d] = %v, want %v", i, got[i], want)
		}
	}

	// Unbalanced: same program with no register delay; elements combine
	// one step apart.
	n2 := newNode(t)
	if err := n2.WriteWords(0, 0, a); err != nil {
		t.Fatal(err)
	}
	if err := n2.WriteWords(1, 0, a); err != nil {
		t.Fatal(err)
	}
	if err := n2.Exec(build(0)); err != nil {
		t.Fatal(err)
	}
	got2, _ := n2.ReadWords(2, 0, 19)
	misaligned := false
	for i := 0; i < 19; i++ {
		if got2[i] != 2*float64(i+1) {
			misaligned = true
		}
	}
	if !misaligned {
		t.Error("unbalanced pipeline still produced aligned results; simulator is not timing-faithful")
	}
}

func TestExecConstOperandAndReduction(t *testing.T) {
	n := newNode(t)
	cfg := n.Cfg
	data := seq(100, func(i int) float64 { return float64(i + 1) })
	if err := n.WriteWords(0, 0, data); err != nil {
		t.Fatal(err)
	}
	in := n.F.NewInstr()
	mul := arch.FUID(0)
	in.SetFUOp(mul, arch.OpMul)
	in.SetFUInput(mul, 0, microcode.InSwitch, 0, 0)
	in.Route(cfg.SnkFUIn(mul, 0), cfg.SrcMemRead(0))
	in.SetFUInput(mul, 1, microcode.InConst, 3, 0)
	in.SetConst(3, 2.0)
	// Sum-reduce the doubled stream on the min/max-capable unit 2 of
	// the first triplet... add is legal on any unit; use unit 1.
	red := arch.FUID(1)
	in.SetFUOp(red, arch.OpAdd)
	in.SetFUInput(red, 0, microcode.InSwitch, 0, 0)
	in.Route(cfg.SnkFUIn(red, 0), cfg.SrcFUOut(mul))
	in.SetFUInput(red, 1, microcode.InFeedback, 0, 0)
	in.SetFUReduce(red, true, 4)
	in.SetConst(4, 0.0)
	in.SetMemDMA(0, microcode.MemDMA{Enable: true, Addr: 0, Stride: 1, Count: 100})
	in.SetSeq(microcode.Seq{
		Cond: microcode.CondHalt, CmpEnable: true, CmpFU: red, CmpConst: 5,
		CmpOp: microcode.CmpGT, CmpFlag: 2,
	})
	in.SetConst(5, 10000.0)
	if err := n.Exec(in); err != nil {
		t.Fatal(err)
	}
	// Σ 2i for i=1..100 = 10100.
	if got := n.RedReg[red]; got != 10100 {
		t.Errorf("reduction register = %v, want 10100", got)
	}
	if !n.Flag(2) {
		t.Error("comparison 10100 > 10000 did not set flag 2")
	}
}

func TestExecMaxAbsReductionIgnoresInvalidTail(t *testing.T) {
	n := newNode(t)
	cfg := n.Cfg
	data := []float64{-7, 3, 5, -2}
	if err := n.WriteWords(0, 0, data); err != nil {
		t.Fatal(err)
	}
	in := n.F.NewInstr()
	// Reduce on a min/max-capable unit: triplet 0 slot 2 = FU 2.
	red := arch.FUID(2)
	in.SetFUOp(red, arch.OpMaxAbs)
	in.SetFUInput(red, 0, microcode.InSwitch, 0, 0)
	in.Route(cfg.SnkFUIn(red, 0), cfg.SrcMemRead(0))
	in.SetFUInput(red, 1, microcode.InFeedback, 0, 0)
	in.SetFUReduce(red, true, 0)
	in.SetConst(0, 0.0)
	in.SetMemDMA(0, microcode.MemDMA{Enable: true, Addr: 0, Stride: 1, Count: 4})
	// Another source is longer, so the reducer sees invalid cycles
	// after its own stream ends; they must not disturb the register.
	in.SetMemDMA(1, microcode.MemDMA{Enable: true, Addr: 0, Stride: 1, Count: 60})
	mov := arch.FUID(3)
	in.SetFUOp(mov, arch.OpMov)
	in.SetFUInput(mov, 0, microcode.InSwitch, 0, 0)
	in.Route(cfg.SnkFUIn(mov, 0), cfg.SrcMemRead(1))
	in.SetSeq(microcode.Seq{Cond: microcode.CondHalt})
	if err := n.Exec(in); err != nil {
		t.Fatal(err)
	}
	if got := n.RedReg[red]; got != 7 {
		t.Errorf("maxabs register = %v, want 7", got)
	}
}

func TestExecSDUTapsProduceShiftedStreams(t *testing.T) {
	n := newNode(t)
	cfg := n.Cfg
	data := seq(30, func(i int) float64 { return float64(i) })
	if err := n.WriteWords(0, 0, data); err != nil {
		t.Fatal(err)
	}
	in := n.F.NewInstr()
	// u[i] + u[i-2] via SDU taps 0 and 2.
	in.Route(cfg.SnkSDUIn(0), cfg.SrcMemRead(0))
	in.SetSDU(0, true, []int{0, 2})
	add := arch.FUID(0)
	in.SetFUOp(add, arch.OpAdd)
	in.SetFUInput(add, 0, microcode.InSwitch, 0, 0)
	in.Route(cfg.SnkFUIn(add, 0), cfg.SrcSDUTap(0, 0))
	in.SetFUInput(add, 1, microcode.InSwitch, 0, 2) // balance tap-2's data shift? No:
	// tap delays shift data AND time identically; to combine u[i] with
	// u[i-2] at the same output element the deeper tap needs no extra
	// delay, but the shallow tap must wait 2 cycles. Balance side A.
	in.SetFUInput(add, 0, microcode.InSwitch, 0, 2)
	in.SetFUInput(add, 1, microcode.InSwitch, 0, 0)
	in.Route(cfg.SnkFUIn(add, 1), cfg.SrcSDUTap(0, 1))
	in.SetMemDMA(0, microcode.MemDMA{Enable: true, Addr: 0, Stride: 1, Count: 30})
	in.Route(cfg.SnkMemWrite(1), cfg.SrcFUOut(add))
	// Output element e (at the adder) corresponds to u[e-2]+u[e-4]...
	// with A delayed 2: A sees tap0 (shift 1) + delay 2 = u[c-3-lat]...
	// Simplest check below recomputes from first principles.
	addLat := arch.OpAdd.Info().Latency
	in.SetMemDMA(1, microcode.MemDMA{Enable: true, Write: true, Addr: 0, Stride: 1, Count: 26,
		Skip: 0, Start: 1 + 2 + addLat + 2}) // sdu transit 1 + tap delay 2 + add latency + balance 2... start aligns below
	in.SetSeq(microcode.Seq{Cond: microcode.CondHalt})
	if err := n.Exec(in); err != nil {
		t.Fatal(err)
	}
	// First principles: adder output at cycle c = tap0[c-lat-2] + tap1[c-lat]
	// = u[c-lat-3] + u[c-lat-3] ... tap0 shift 1, tap1 shift 3:
	// A = val(tap0, c-lat-2) = u[c-lat-2-1]; B = val(tap1, c-lat) = u[c-lat-3].
	// So output = u[k] + u[k] for k = c-lat-3: stream of 2*u[k].
	got, _ := n.ReadWords(1, 0, 26)
	start := 1 + 2 + addLat + 2
	for j := 0; j < 26; j++ {
		c := start + j
		k := c - addLat - 3
		var want float64
		if k >= 0 && k < 30 {
			want = 2 * data[k]
		}
		if got[j] != want {
			t.Fatalf("sdu[%d] = %v, want %v", j, got[j], want)
		}
	}
}

// TestSingleDMAProgramPerPlane documents the hardware restriction
// behind the paper's §3 allocation problem: each plane has one DMA
// controller, so programming a read and then a write on the same plane
// in one instruction simply overwrites the program — two streams from
// one plane per instruction are inexpressible.
func TestSingleDMAProgramPerPlane(t *testing.T) {
	n := newNode(t)
	in := n.F.NewInstr()
	in.SetMemDMA(0, microcode.MemDMA{Enable: true, Addr: 0, Stride: 1, Count: 10})
	in.SetMemDMA(0, microcode.MemDMA{Enable: true, Write: true, Addr: 100, Stride: 1, Count: 10})
	d := in.MemDMAOf(0)
	if !d.Write || d.Addr != 100 {
		t.Errorf("second program did not replace the first: %+v", d)
	}
}

func TestRunLoopWithFlagBranch(t *testing.T) {
	// Program: instruction 0 sum-reduces a stream and compares the
	// running total against a threshold; it repeats until the total
	// exceeds the threshold (flag set), then falls through to a halt.
	n := newNode(t)
	cfg := n.Cfg
	data := seq(10, func(i int) float64 { return 1 })
	if err := n.WriteWords(0, 0, data); err != nil {
		t.Fatal(err)
	}

	f := n.F
	p := microcode.NewProgram(f)

	in0 := f.NewInstr()
	red := arch.FUID(1)
	in0.SetFUOp(red, arch.OpAdd)
	in0.SetFUInput(red, 0, microcode.InSwitch, 0, 0)
	in0.Route(cfg.SnkFUIn(red, 0), cfg.SrcMemRead(0))
	in0.SetFUInput(red, 1, microcode.InFeedback, 0, 0)
	in0.SetFUReduce(red, true, 0)
	in0.SetConst(0, 0.0)
	in0.SetMemDMA(0, microcode.MemDMA{Enable: true, Addr: 0, Stride: 1, Count: 10})
	// Accumulate across iterations: each run of the instruction adds 10
	// to a fresh register... the register resets per instruction, so
	// instead count iterations: threshold 5 is reached on the first
	// pass (sum=10 > 5), flag set, run exactly once then halt via the
	// second instruction.
	in0.SetSeq(microcode.Seq{
		Next: 0, Branch: 1, Cond: microcode.CondFlagSet, Flag: 3,
		CmpEnable: true, CmpFU: red, CmpConst: 1, CmpOp: microcode.CmpGT, CmpFlag: 3,
	})
	in0.SetConst(1, 5.0)
	p.Append(in0)

	halt := f.NewInstr()
	halt.SetSeq(microcode.Seq{Cond: microcode.CondHalt, IRQ: true})
	p.Append(halt)

	res, err := n.Run(p, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed != 2 {
		t.Errorf("executed %d instructions, want 2", res.Executed)
	}
	if res.FinalPC != 1 {
		t.Errorf("final pc = %d", res.FinalPC)
	}
	if len(n.IRQs) != 1 {
		t.Errorf("interrupts = %d, want 1", len(n.IRQs))
	}
}

func TestRunBudgetGuard(t *testing.T) {
	n := newNode(t)
	p := microcode.NewProgram(n.F)
	spin := n.F.NewInstr()
	spin.SetSeq(microcode.Seq{Next: 0, Cond: microcode.CondAlways})
	p.Append(spin)
	if _, err := n.Run(p, 50); err == nil {
		t.Error("infinite loop not caught by budget")
	}
}

func TestExecRejectsCapabilityViolation(t *testing.T) {
	n := newNode(t)
	in := n.F.NewInstr()
	// FU 1 (triplet slot 1) lacks integer capability.
	in.SetFUOp(1, arch.OpIAdd)
	in.SetFUInput(1, 0, microcode.InConst, 0, 0)
	in.SetFUInput(1, 1, microcode.InConst, 0, 0)
	in.SetMemDMA(0, microcode.MemDMA{Enable: true, Addr: 0, Stride: 1, Count: 4})
	in.SetSeq(microcode.Seq{Cond: microcode.CondHalt})
	if err := n.Exec(in); err == nil {
		t.Error("capability violation executed")
	}
}

func TestExecRejectsDanglingRoutes(t *testing.T) {
	n := newNode(t)
	cfg := n.Cfg
	// FU expects a switch operand, nothing routed.
	in := n.F.NewInstr()
	in.SetFUOp(0, arch.OpMov)
	in.SetFUInput(0, 0, microcode.InSwitch, 0, 0)
	in.SetMemDMA(0, microcode.MemDMA{Enable: true, Addr: 0, Stride: 1, Count: 4})
	in.SetSeq(microcode.Seq{Cond: microcode.CondHalt})
	if err := n.Exec(in); err == nil {
		t.Error("unrouted operand executed")
	}

	// Write DMA with no route.
	in2 := n.F.NewInstr()
	in2.SetMemDMA(1, microcode.MemDMA{Enable: true, Write: true, Addr: 0, Stride: 1, Count: 4})
	in2.SetMemDMA(0, microcode.MemDMA{Enable: true, Addr: 0, Stride: 1, Count: 4})
	in2.SetSeq(microcode.Seq{Cond: microcode.CondHalt})
	if err := n.Exec(in2); err == nil {
		t.Error("unrouted sink executed")
	}

	// Sink routed from an idle FU.
	in3 := n.F.NewInstr()
	in3.Route(cfg.SnkMemWrite(1), cfg.SrcFUOut(5))
	in3.SetMemDMA(1, microcode.MemDMA{Enable: true, Write: true, Addr: 0, Stride: 1, Count: 4})
	in3.SetMemDMA(0, microcode.MemDMA{Enable: true, Addr: 0, Stride: 1, Count: 4})
	in3.SetSeq(microcode.Seq{Cond: microcode.CondHalt})
	if err := n.Exec(in3); err == nil {
		t.Error("route from idle unit executed")
	}

	// SDU enabled without input.
	in4 := n.F.NewInstr()
	in4.SetSDU(0, true, []int{1})
	in4.SetMemDMA(0, microcode.MemDMA{Enable: true, Addr: 0, Stride: 1, Count: 4})
	in4.SetSeq(microcode.Seq{Cond: microcode.CondHalt})
	if err := n.Exec(in4); err == nil {
		t.Error("inputless SDU executed")
	}
}

func TestExecDMAOutOfPlaneTraps(t *testing.T) {
	n := newNode(t)
	in := n.F.NewInstr()
	in.SetMemDMA(0, microcode.MemDMA{Enable: true, Addr: n.Cfg.PlaneWords() - 2, Stride: 1, Count: 10})
	mov := arch.FUID(0)
	in.SetFUOp(mov, arch.OpMov)
	in.SetFUInput(mov, 0, microcode.InSwitch, 0, 0)
	in.Route(n.Cfg.SnkFUIn(mov, 0), n.Cfg.SrcMemRead(0))
	in.SetSeq(microcode.Seq{Cond: microcode.CondHalt})
	if err := n.Exec(in); err == nil {
		t.Error("out-of-plane DMA executed")
	}
}

func TestCacheRoundTripThroughPipeline(t *testing.T) {
	n := newNode(t)
	cfg := n.Cfg
	data := seq(64, func(i int) float64 { return float64(i) + 0.25 })
	// Host loads cache buffer 0 directly.
	for i, v := range data {
		if err := n.Cache[2].Write(0, int64(i), v); err != nil {
			t.Fatal(err)
		}
	}
	in := n.F.NewInstr()
	neg := arch.FUID(0)
	in.SetFUOp(neg, arch.OpNeg)
	in.SetFUInput(neg, 0, microcode.InSwitch, 0, 0)
	in.Route(cfg.SnkFUIn(neg, 0), cfg.SrcCacheRead(2))
	in.SetCacheDMA(2, microcode.CacheDMA{Enable: true, Buf: 0, Addr: 0, Stride: 1, Count: 64})
	in.Route(cfg.SnkCacheWrite(5), cfg.SrcFUOut(neg))
	in.SetCacheDMA(5, microcode.CacheDMA{Enable: true, Write: true, Buf: 1, Addr: 0, Stride: 1, Count: 64,
		Start: arch.OpNeg.Info().Latency, Swap: true})
	in.SetSeq(microcode.Seq{Cond: microcode.CondHalt})
	if err := n.Exec(in); err != nil {
		t.Fatal(err)
	}
	// Written into buf 1, then swapped: visible in buf 0.
	for i, v := range data {
		got, err := n.Cache[5].Read(0, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		if got != -v {
			t.Fatalf("cache[%d] = %v, want %v", i, got, -v)
		}
	}
}

func TestStatsMFLOPS(t *testing.T) {
	s := Stats{Cycles: 1000, FLOPs: 32000}
	if got := s.MFLOPS(20e6); math.Abs(got-640) > 1e-9 {
		t.Errorf("MFLOPS = %v, want 640", got)
	}
	if got := (Stats{}).MFLOPS(20e6); got != 0 {
		t.Errorf("empty MFLOPS = %v", got)
	}
	if got := s.Seconds(20e6); got != 5e-5 {
		t.Errorf("seconds = %v", got)
	}
}

func TestFlagHelpers(t *testing.T) {
	n := newNode(t)
	n.setFlag(7, true)
	if !n.Flag(7) || n.Flag(6) {
		t.Error("flag set/query wrong")
	}
	n.setFlag(7, false)
	if n.Flag(7) {
		t.Error("flag clear wrong")
	}
}

// Property: apply is total and matches Go arithmetic on the float ops.
func TestApplyProperty(t *testing.T) {
	want := func(op arch.Op, a, b, w float64) bool {
		v, ok := apply(op, a, b)
		return ok && v == w
	}
	fn := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		return want(arch.OpAdd, a, b, a+b) &&
			want(arch.OpSub, a, b, a-b) &&
			want(arch.OpMul, a, b, a*b) &&
			want(arch.OpMax, a, b, math.Max(a, b)) &&
			want(arch.OpMov, a, b, a)
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Error(err)
	}
	if _, ok := apply(arch.Op(200), 1, 2); ok {
		t.Error("unknown op should report not-implemented, not a value")
	}
}

func TestUtilizationAccounting(t *testing.T) {
	n := newNode(t)
	data := seq(50, func(i int) float64 { return float64(i) })
	if err := n.WriteWords(0, 0, data); err != nil {
		t.Fatal(err)
	}
	if err := n.Exec(buildCopy(n, 0, 1, 50)); err != nil {
		t.Fatal(err)
	}
	if n.Stats.FUBusy[0] != 50 {
		t.Errorf("fu0 busy = %d, want 50", n.Stats.FUBusy[0])
	}
	if n.Stats.FUBusy[1] != 0 {
		t.Errorf("fu1 busy = %d, want 0", n.Stats.FUBusy[1])
	}
	u := n.Stats.Utilization(n.Cfg.TotalFUs)
	if u <= 0 || u > 1.0/float64(n.Cfg.TotalFUs) {
		t.Errorf("utilization = %g, want (0, 1/32]", u)
	}
	if (Stats{}).Utilization(32) != 0 {
		t.Error("empty utilization should be 0")
	}
}

// TestExceptionTrap: the third role of the §2 interrupt scheme. With
// the trap armed, a unit producing a non-finite value aborts the
// instruction with a trap interrupt; unarmed, the garbage streams on.
func TestExceptionTrap(t *testing.T) {
	build := func(trap bool) (*Node, *microcode.Instr) {
		n := newNode(t)
		if err := n.WriteWords(0, 0, []float64{1, 2, 0, 4}); err != nil {
			t.Fatal(err)
		}
		in := n.F.NewInstr()
		div := arch.FUID(0)
		in.SetFUOp(div, arch.OpDiv)
		in.SetFUInput(div, 0, microcode.InConst, 0, 0)
		in.SetConst(0, 1.0)
		in.SetFUInput(div, 1, microcode.InSwitch, 0, 0)
		in.Route(n.Cfg.SnkFUIn(div, 1), n.Cfg.SrcMemRead(0))
		in.SetMemDMA(0, microcode.MemDMA{Enable: true, Addr: 0, Stride: 1, Count: 4})
		in.Route(n.Cfg.SnkMemWrite(1), n.Cfg.SrcFUOut(div))
		in.SetMemDMA(1, microcode.MemDMA{Enable: true, Write: true, Addr: 0, Stride: 1, Count: 4,
			Start: arch.OpDiv.Info().Latency})
		in.SetSeq(microcode.Seq{Cond: microcode.CondHalt, Trap: trap})
		return n, in
	}

	// Armed: 1/0 = +Inf traps.
	n, in := build(true)
	if err := n.Exec(in); err == nil {
		t.Fatal("division by zero did not trap with trap armed")
	}
	if len(n.IRQs) == 0 {
		t.Error("trap raised no interrupt")
	}

	// Unarmed: the Inf streams to memory, faithful to hardware
	// without exception checking.
	n2, in2 := build(false)
	if err := n2.Exec(in2); err != nil {
		t.Fatal(err)
	}
	got, _ := n2.ReadWords(1, 0, 4)
	if !math.IsInf(got[2], 1) {
		t.Errorf("unarmed run should stream Inf, got %v", got[2])
	}

	// The trap field survives the assembler round trip.
	txt := in.Disassemble()
	back, err := n.F.Assemble(strings.NewReader(txt))
	if err != nil {
		t.Fatal(err)
	}
	if !back.SeqOf().Trap {
		t.Error("trap lost in assembler round trip")
	}
}

// TestLoopCounter: the sequencer's fixed-iteration construct. A
// counter is loaded by one instruction, then a CondLoop instruction
// repeats until it drains.
func TestLoopCounter(t *testing.T) {
	n := newNode(t)
	if err := n.WriteWords(0, 0, []float64{0}); err != nil {
		t.Fatal(err)
	}
	f := n.F
	p := microcode.NewProgram(f)

	// 0: pure control — load counter 2 with 5.
	init := f.NewInstr()
	init.SetSeq(microcode.Seq{Next: 1, Ctr: 2, CtrLoad: true, CtrValue: 5})
	p.Append(init)

	// 1: increment mem[0] by 1, loop on counter 2.
	body := f.NewInstr()
	add := arch.FUID(0)
	body.SetFUOp(add, arch.OpAdd)
	body.SetFUInput(add, 0, microcode.InSwitch, 0, 0)
	body.Route(n.Cfg.SnkFUIn(add, 0), n.Cfg.SrcMemRead(0))
	body.SetFUInput(add, 1, microcode.InConst, 0, 0)
	body.SetConst(0, 1.0)
	body.SetMemDMA(0, microcode.MemDMA{Enable: true, Addr: 0, Stride: 1, Count: 1})
	body.Route(n.Cfg.SnkMemWrite(1), n.Cfg.SrcFUOut(add))
	body.SetMemDMA(1, microcode.MemDMA{Enable: true, Write: true, Addr: 0, Stride: 1, Count: 1,
		Start: arch.OpAdd.Info().Latency})
	body.SetSeq(microcode.Seq{Next: 3, Branch: 2, Cond: microcode.CondLoop, Ctr: 2})
	p.Append(body)

	// 2: copy mem[1] back to mem[0], return to the body.
	cp := buildCopy(n, 1, 0, 1)
	cp.SetSeq(microcode.Seq{Next: 1, Cond: microcode.CondAlways})
	p.Append(cp)

	// 3: halt.
	halt := f.NewInstr()
	halt.SetSeq(microcode.Seq{Cond: microcode.CondHalt})
	p.Append(halt)

	res, err := n.Run(p, 100)
	if err != nil {
		t.Fatal(err)
	}
	// 5 loop iterations: init + 5×(body) + 4×(copy) + halt = 11.
	if res.Executed != 11 {
		t.Errorf("executed %d instructions, want 11", res.Executed)
	}
	got, _ := n.ReadWords(1, 0, 1)
	if got[0] != 5 {
		t.Errorf("accumulated %g, want 5 (5 counted iterations)", got[0])
	}
	if n.Ctr[2] != 0 {
		t.Errorf("counter drained to %d", n.Ctr[2])
	}
	// The counter fields survive the assembler round trip.
	txt := init.Disassemble()
	back, err := f.Assemble(strings.NewReader(txt))
	if err != nil {
		t.Fatal(err)
	}
	s := back.SeqOf()
	if !s.CtrLoad || s.Ctr != 2 || s.CtrValue != 5 {
		t.Errorf("ldctr round trip = %+v", s)
	}
	txt2 := body.Disassemble()
	back2, err := f.Assemble(strings.NewReader(txt2))
	if err != nil {
		t.Fatal(err)
	}
	if back2.SeqOf().Cond != microcode.CondLoop || back2.SeqOf().Ctr != 2 {
		t.Errorf("loopctr round trip = %+v", back2.SeqOf())
	}
}
