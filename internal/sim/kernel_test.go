package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/microcode"
	"repro/internal/obs"
)

// The kernel contract is absolute bit-identity with the interpreter:
// same plane contents, validity-driven sink values, reduction
// registers, simulated clocks, FLOP counts and trap state, whichever
// path a dispatch takes. These tests drive both paths over the same
// instructions and fail on the first diverging bit.

// execEqual runs the same program builder against a kernel-on and a
// kernel-off node and demands bit-identical end state and identical
// errors, which it returns per instruction.
func execEqual(t *testing.T, name string, build func(n *Node) []*microcode.Instr) []error {
	t.Helper()
	fast, slow := newNode(t), newNode(t)
	slow.KernelOff = true
	fIns := build(fast)
	sIns := build(slow)
	errs := make([]error, len(fIns))
	for i := range fIns {
		errF := fast.Exec(fIns[i])
		errS := slow.Exec(sIns[i])
		if (errF == nil) != (errS == nil) || errF != nil && errF.Error() != errS.Error() {
			t.Fatalf("%s: instr %d: fast err %v, slow err %v", name, i, errF, errS)
		}
		errs[i] = errF
	}
	if ks := fast.KernelStatsOf(); ks.Fast == 0 {
		t.Errorf("%s: fast node never took the kernel path: %+v", name, ks)
	}
	if ks := slow.KernelStatsOf(); ks.Fast != 0 {
		t.Errorf("%s: KernelOff node took the kernel path: %+v", name, ks)
	}
	compareNodes(t, name, fast, slow)
	return errs
}

// compareNodes checks every piece of architectural state the paper's
// machine exposes: plane words, resident pages and the words each page
// holds, cache words and which cache buffers are allocated, reduction
// registers, flags, counters, statistics and the trap log.
func compareNodes(t *testing.T, name string, a, b *Node) {
	t.Helper()
	for p := range a.Mem {
		if pa, pb := a.Mem[p].PagesResident(), b.Mem[p].PagesResident(); pa != pb {
			t.Fatalf("%s: plane %d: %d resident pages vs %d", name, p, pa, pb)
		}
		for _, pgIdx := range pagesOf(a.Mem[p], b.Mem[p]) {
			if ha, hb := len(a.Mem[p].pages[pgIdx]), len(b.Mem[p].pages[pgIdx]); ha != hb {
				t.Fatalf("%s: plane %d page %d holds %d words vs %d", name, p, pgIdx, ha, hb)
			}
			for w := int64(0); w < pageWords; w++ {
				addr := pgIdx*pageWords + w
				av, _ := a.Mem[p].Read(addr)
				bv, _ := b.Mem[p].Read(addr)
				if math.Float64bits(av) != math.Float64bits(bv) {
					t.Fatalf("%s: plane %d word %d: %v (%x) vs %v (%x)",
						name, p, addr, av, math.Float64bits(av), bv, math.Float64bits(bv))
				}
			}
		}
	}
	for p := range a.Cache {
		for half := 0; half < 2; half++ {
			ab, bb := a.Cache[p].bufs[half], b.Cache[p].bufs[half]
			if (ab == nil) != (bb == nil) {
				t.Fatalf("%s: cache %d buf %d allocated on one node only", name, p, half)
			}
			for w := range ab {
				if math.Float64bits(ab[w]) != math.Float64bits(bb[w]) {
					t.Fatalf("%s: cache %d buf %d word %d: %v vs %v", name, p, half, w, ab[w], bb[w])
				}
			}
		}
	}
	for i := range a.RedReg {
		if math.Float64bits(a.RedReg[i]) != math.Float64bits(b.RedReg[i]) {
			t.Fatalf("%s: RedReg[%d]: %v vs %v", name, i, a.RedReg[i], b.RedReg[i])
		}
	}
	if a.Flags != b.Flags {
		t.Errorf("%s: flags %04x vs %04x", name, a.Flags, b.Flags)
	}
	if a.Ctr != b.Ctr {
		t.Errorf("%s: counters %v vs %v", name, a.Ctr, b.Ctr)
	}
	if a.Stats.Instructions != b.Stats.Instructions || a.Stats.Cycles != b.Stats.Cycles ||
		a.Stats.FLOPs != b.Stats.FLOPs || a.Stats.Elements != b.Stats.Elements {
		t.Errorf("%s: stats %+v vs %+v", name, a.Stats, b.Stats)
	}
	for i := range a.Stats.FUBusy {
		if a.Stats.FUBusy[i] != b.Stats.FUBusy[i] {
			t.Errorf("%s: FUBusy[%d] %d vs %d", name, i, a.Stats.FUBusy[i], b.Stats.FUBusy[i])
		}
	}
	if len(a.IRQs) != len(b.IRQs) {
		t.Errorf("%s: %d IRQs vs %d", name, len(a.IRQs), len(b.IRQs))
	}
	if a.TrapCounters != b.TrapCounters {
		t.Errorf("%s: trap counters %+v vs %+v", name, a.TrapCounters, b.TrapCounters)
	}
}

// pagesOf returns the union of resident page indices of both planes.
func pagesOf(a, b *Plane) []int64 {
	set := map[int64]bool{}
	for p := range a.pages {
		set[p] = true
	}
	for p := range b.pages {
		set[p] = true
	}
	out := make([]int64, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	return out
}

// TestKernelEquivalenceTable drives the kernel through hand-built
// pipelines covering every micro-op class: plain copies, SDU stencils,
// constants, reductions, cache channels, skewed skips and strides.
func TestKernelEquivalenceTable(t *testing.T) {
	data := seq(64, func(i int) float64 { return math.Sin(float64(i)) * 100 })

	t.Run("copy", func(t *testing.T) {
		execEqual(t, "copy", func(n *Node) []*microcode.Instr {
			if err := n.WriteWords(0, 0, data); err != nil {
				t.Fatal(err)
			}
			return []*microcode.Instr{buildCopy(n, 0, 1, 64)}
		})
	})

	t.Run("stencil-sdu", func(t *testing.T) {
		// u[i-1] + u[i+1] through an SDU pair: source → SDU → taps with
		// different delays feeding an adder.
		execEqual(t, "stencil", func(n *Node) []*microcode.Instr {
			if err := n.WriteWords(0, 0, data); err != nil {
				t.Fatal(err)
			}
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
			return []*microcode.Instr{in}
		})
	})

	t.Run("const-scale-reduce", func(t *testing.T) {
		// v = a*0.25 streamed into a maxabs reduction with a sequencer
		// comparison, exercising constants, chained FUs, RedReg and flags.
		execEqual(t, "reduce", func(n *Node) []*microcode.Instr {
			if err := n.WriteWords(0, 0, data); err != nil {
				t.Fatal(err)
			}
			cfg := n.Cfg
			in := n.F.NewInstr()
			mul := arch.FUID(0)
			in.SetFUOp(mul, arch.OpMul)
			in.SetFUInput(mul, 0, microcode.InSwitch, 0, 0)
			in.SetFUInput(mul, 1, microcode.InConst, 1, 0)
			in.SetConst(1, 0.25)
			in.Route(cfg.SnkFUIn(mul, 0), cfg.SrcMemRead(0))
			in.SetMemDMA(0, microcode.MemDMA{Enable: true, Addr: 0, Stride: 1, Count: 64})
			red := arch.FUID(2)
			in.SetFUOp(red, arch.OpMaxAbs)
			in.SetFUInput(red, 0, microcode.InSwitch, 0, 0)
			in.SetFUInput(red, 1, microcode.InFeedback, 0, 0)
			in.SetFUReduce(red, true, 0)
			in.SetConst(0, 0.0)
			in.Route(cfg.SnkFUIn(red, 0), cfg.SrcFUOut(mul))
			in.SetSeq(microcode.Seq{Cond: microcode.CondHalt, CmpEnable: true, CmpFU: red,
				CmpOp: microcode.CmpLT, CmpConst: 1, CmpFlag: 0})
			return []*microcode.Instr{in}
		})
	})

	t.Run("cache-skew", func(t *testing.T) {
		// Cache-resident source with skip/stride skew, written back to
		// the other buffer with a swap.
		execEqual(t, "cache", func(n *Node) []*microcode.Instr {
			for i := 0; i < 32; i++ {
				if err := n.Cache[0].Write(0, int64(i), data[i]); err != nil {
					t.Fatal(err)
				}
			}
			cfg := n.Cfg
			in := n.F.NewInstr()
			fu := arch.FUID(3)
			in.SetFUOp(fu, arch.OpNeg)
			in.SetFUInput(fu, 0, microcode.InSwitch, 0, 1)
			in.Route(cfg.SnkFUIn(fu, 0), cfg.SrcCacheRead(0))
			in.SetCacheDMA(0, microcode.CacheDMA{Enable: true, Buf: 0, Addr: 2, Stride: 2, Count: 12, Skip: 3})
			in.Route(cfg.SnkCacheWrite(1), cfg.SrcFUOut(fu))
			in.SetCacheDMA(1, microcode.CacheDMA{Enable: true, Write: true, Buf: 1, Addr: 0, Stride: 1,
				Count: 12, Skip: 3, Start: arch.OpNeg.Info().Latency + 1, Swap: true})
			in.SetSeq(microcode.Seq{Cond: microcode.CondHalt})
			return []*microcode.Instr{in}
		})
	})

	t.Run("nan-const-a", func(t *testing.T) {
		// A constant NaN operand A (payload …11) meets a stream of NaNs
		// with another payload (…22): the interpreter's apply keeps A's
		// payload for add and mul, so the kernel's scalar-A loops must too.
		nanA := math.Float64frombits(0x7ff8000000000011)
		nanB := math.Float64frombits(0x7ff8000000000022)
		execEqual(t, "nan-const-a", func(n *Node) []*microcode.Instr {
			if err := n.WriteWords(0, 0, seq(32, func(int) float64 { return nanB })); err != nil {
				t.Fatal(err)
			}
			cfg := n.Cfg
			in := n.F.NewInstr()
			in.SetConst(0, nanA)
			in.SetMemDMA(0, microcode.MemDMA{Enable: true, Addr: 0, Stride: 1, Count: 32})
			for i, op := range []arch.Op{arch.OpAdd, arch.OpMul} {
				fu := arch.FUID(i)
				in.SetFUOp(fu, op)
				in.SetFUInput(fu, 0, microcode.InConst, 0, 0)
				in.SetFUInput(fu, 1, microcode.InSwitch, 0, 0)
				in.Route(cfg.SnkFUIn(fu, 1), cfg.SrcMemRead(0))
				in.Route(cfg.SnkMemWrite(1+i), cfg.SrcFUOut(fu))
				in.SetMemDMA(1+i, microcode.MemDMA{Enable: true, Write: true, Addr: 0, Stride: 1, Count: 32,
					Start: op.Info().Latency})
			}
			in.SetSeq(microcode.Seq{Cond: microcode.CondHalt})
			return []*microcode.Instr{in}
		})
	})

	t.Run("cache-unwritten-source", func(t *testing.T) {
		// A cache buffer nothing has written reads as zeros: u + c with
		// c from an untouched buffer copies u, and leaves the buffer
		// unallocated on both paths.
		execEqual(t, "cache-unwritten", func(n *Node) []*microcode.Instr {
			if err := n.WriteWords(0, 0, data); err != nil {
				t.Fatal(err)
			}
			cfg := n.Cfg
			in := n.F.NewInstr()
			fu := arch.FUID(1)
			in.SetFUOp(fu, arch.OpAdd)
			in.SetFUInput(fu, 0, microcode.InSwitch, 0, 0)
			in.SetFUInput(fu, 1, microcode.InSwitch, 0, 0)
			in.Route(cfg.SnkFUIn(fu, 0), cfg.SrcMemRead(0))
			in.SetMemDMA(0, microcode.MemDMA{Enable: true, Addr: 0, Stride: 1, Count: 32})
			in.Route(cfg.SnkFUIn(fu, 1), cfg.SrcCacheRead(2))
			in.SetCacheDMA(2, microcode.CacheDMA{Enable: true, Buf: 1, Addr: 5, Stride: 1, Count: 32})
			in.Route(cfg.SnkMemWrite(1), cfg.SrcFUOut(fu))
			in.SetMemDMA(1, microcode.MemDMA{Enable: true, Write: true, Addr: 0, Stride: 1, Count: 32,
				Start: arch.OpAdd.Info().Latency})
			in.SetSeq(microcode.Seq{Cond: microcode.CondHalt})
			return []*microcode.Instr{in}
		})
	})

	t.Run("cache-swap-unwritten", func(t *testing.T) {
		// Swaps with unwritten buffers: read an untouched buffer and
		// swap, fill buffer 0 and swap it to buffer 1, then read both
		// halves back — the data from buffer 1, zeros from buffer 0.
		execEqual(t, "cache-swap", func(n *Node) []*microcode.Instr {
			if err := n.WriteWords(0, 0, data); err != nil {
				t.Fatal(err)
			}
			cfg := n.Cfg
			const cache, count = 4, 24
			lat := arch.OpMov.Info().Latency
			move := func(src arch.SourceID, dst arch.SinkID, rd, wr func(*microcode.Instr)) *microcode.Instr {
				in := n.F.NewInstr()
				fu := arch.FUID(0)
				in.SetFUOp(fu, arch.OpMov)
				in.SetFUInput(fu, 0, microcode.InSwitch, 0, 0)
				in.Route(cfg.SnkFUIn(fu, 0), src)
				in.Route(dst, cfg.SrcFUOut(fu))
				rd(in)
				wr(in)
				in.SetSeq(microcode.Seq{Cond: microcode.CondHalt})
				return in
			}
			readCache := func(buf, plane int, swap bool) *microcode.Instr {
				return move(cfg.SrcCacheRead(cache), cfg.SnkMemWrite(plane),
					func(in *microcode.Instr) {
						in.SetCacheDMA(cache, microcode.CacheDMA{Enable: true, Buf: buf, Stride: 1, Count: count, Swap: swap})
					},
					func(in *microcode.Instr) {
						in.SetMemDMA(plane, microcode.MemDMA{Enable: true, Write: true, Stride: 1, Count: count, Start: lat})
					})
			}
			fill := move(cfg.SrcMemRead(0), cfg.SnkCacheWrite(cache),
				func(in *microcode.Instr) {
					in.SetMemDMA(0, microcode.MemDMA{Enable: true, Stride: 1, Count: count})
				},
				func(in *microcode.Instr) {
					in.SetCacheDMA(cache, microcode.CacheDMA{Enable: true, Write: true, Buf: 0, Stride: 1,
						Count: count, Start: lat, Swap: true})
				})
			return []*microcode.Instr{readCache(0, 1, true), fill, readCache(1, 2, false), readCache(0, 3, false)}
		})
	})

	t.Run("sink-from-tap", func(t *testing.T) {
		// Sinks read straight from SDU taps, starting before the tap's
		// shift: the kernel reads the source lane through the tap's
		// offset, zero below it, at stride 1 (page-wise) and stride 2.
		execEqual(t, "sink-from-tap", func(n *Node) []*microcode.Instr {
			if err := n.WriteWords(0, 0, seq(64, func(i int) float64 { return float64(i) + 1 })); err != nil {
				t.Fatal(err)
			}
			cfg := n.Cfg
			in := n.F.NewInstr()
			in.SetSDU(0, true, []int{2, 5})
			in.Route(cfg.SnkSDUIn(0), cfg.SrcMemRead(0))
			in.SetMemDMA(0, microcode.MemDMA{Enable: true, Addr: 0, Stride: 1, Count: 64})
			in.Route(cfg.SnkMemWrite(1), cfg.SrcSDUTap(0, 0))
			in.SetMemDMA(1, microcode.MemDMA{Enable: true, Write: true, Addr: pageWords - 30, Stride: 1, Count: 64})
			in.Route(cfg.SnkMemWrite(2), cfg.SrcSDUTap(0, 1))
			in.SetMemDMA(2, microcode.MemDMA{Enable: true, Write: true, Addr: 7, Stride: 2, Count: 60, Start: 1, Skip: 2})
			in.SetSeq(microcode.Seq{Cond: microcode.CondHalt})
			return []*microcode.Instr{in}
		})
	})

	t.Run("sink-off-plane-end", func(t *testing.T) {
		// Sinks are not range-checked at decode: a walk that leaves the
		// plane writes its in-range prefix and stops with the first bad
		// address's error — page-wise at stride 1, word-wise otherwise.
		errs := execEqual(t, "sink-off-end", func(n *Node) []*microcode.Instr {
			if err := n.WriteWords(0, 0, data); err != nil {
				t.Fatal(err)
			}
			end := n.Cfg.PlaneWords()
			off := buildCopy(n, 0, 1, 64)
			off.SetMemDMA(1, microcode.MemDMA{Enable: true, Write: true, Addr: end - pageWords - 10,
				Stride: 1, Count: pageWords + 20, Start: arch.OpMov.Info().Latency})
			off.SetMemDMA(0, microcode.MemDMA{Enable: true, Addr: 0, Stride: 1, Count: pageWords + 20})
			strided := buildCopy(n, 0, 2, 64)
			strided.SetMemDMA(2, microcode.MemDMA{Enable: true, Write: true, Addr: end - 41,
				Stride: 3, Count: 64, Start: arch.OpMov.Info().Latency})
			return []*microcode.Instr{off, strided}
		})
		end := arch.Default().PlaneWords()
		for i, want := range []int64{end, end + 1} {
			if errs[i] == nil || !strings.Contains(errs[i].Error(), fmt.Sprintf("address %d outside", want)) {
				t.Errorf("instr %d: error %v, want the walk to stop at address %d", i, errs[i], want)
			}
		}
	})

	t.Run("reduce-multi-block", func(t *testing.T) {
		// Each hot reduction over a stream of more than two blocks, on
		// finite data with ±Inf and then with NaN payloads too, at
		// positions on both sides of the block edges. The sink reads the
		// running value from a late cycle on, so the cycles before it fold
		// without a store and the rest store block by block; the register
		// takes the final value.
		const count = 2*kernBlock + 777
		finite := seq(count, func(i int) float64 { return math.Sin(float64(i)) * 100 })
		finite[kernBlock-1], finite[kernBlock+3], finite[2*kernBlock+5] = math.Inf(1), math.Inf(-1), math.Inf(1)
		nans := append([]float64(nil), finite...)
		nans[kernBlock-3] = math.Float64frombits(0x7ff8dead0000beef)
		nans[2*kernBlock+1] = math.Float64frombits(0xfff8000000000022)
		for _, op := range reduceOps {
			for name, data := range map[string][]float64{"finite": finite, "nan": nans} {
				execEqual(t, "reduce-multi-block/"+op.String()+"/"+name, func(n *Node) []*microcode.Instr {
					if err := n.WriteWords(0, 0, data); err != nil {
						t.Fatal(err)
					}
					cfg := n.Cfg
					in := n.F.NewInstr()
					red := arch.FUID(2)
					in.SetFUOp(red, op)
					in.SetFUInput(red, 0, microcode.InSwitch, 0, 1)
					in.SetFUInput(red, 1, microcode.InFeedback, 0, 0)
					in.SetFUReduce(red, true, 0)
					in.SetConst(0, 0.5)
					in.Route(cfg.SnkFUIn(red, 0), cfg.SrcMemRead(0))
					in.SetMemDMA(0, microcode.MemDMA{Enable: true, Addr: 0, Stride: 1, Count: count})
					in.Route(cfg.SnkMemWrite(1), cfg.SrcFUOut(red))
					in.SetMemDMA(1, microcode.MemDMA{Enable: true, Write: true, Addr: 0, Stride: 1,
						Skip: kernBlock + 500, Count: count - kernBlock - 500, Start: op.Info().Latency + 1})
					in.SetSeq(microcode.Seq{Cond: microcode.CondHalt, CmpEnable: true, CmpFU: red,
						CmpOp: microcode.CmpGT, CmpConst: 0, CmpFlag: 1})
					return []*microcode.Instr{in}
				})
			}
		}
	})

	t.Run("chain-multi-block", func(t *testing.T) {
		// Three chained units over more than two blocks: the first unit's
		// lane has no reader after the second unit, yet the second reads
		// cycles it wrote a block earlier, so no later op may take its
		// window.
		const count = 2*kernBlock + 300
		execEqual(t, "chain-multi-block", func(n *Node) []*microcode.Instr {
			if err := n.WriteWords(0, 0, seq(count, func(i int) float64 { return math.Cos(float64(i)) * 10 })); err != nil {
				t.Fatal(err)
			}
			cfg := n.Cfg
			in := n.F.NewInstr()
			in.SetMemDMA(0, microcode.MemDMA{Enable: true, Addr: 0, Stride: 1, Count: count})
			in.SetConst(0, 0.75)
			from := cfg.SrcMemRead(0)
			for i, op := range []arch.Op{arch.OpMul, arch.OpAdd, arch.OpSub} {
				fu := arch.FUID([]int{0, 1, 4}[i])
				in.SetFUOp(fu, op)
				in.SetFUInput(fu, 0, microcode.InSwitch, 0, 1)
				in.SetFUInput(fu, 1, microcode.InConst, 0, 0)
				in.Route(cfg.SnkFUIn(fu, 0), from)
				from = cfg.SrcFUOut(fu)
			}
			in.Route(cfg.SnkMemWrite(1), from)
			in.SetMemDMA(1, microcode.MemDMA{Enable: true, Write: true, Addr: 0, Stride: 1, Count: count,
				Start: 3 + arch.OpMul.Info().Latency + arch.OpAdd.Info().Latency + arch.OpSub.Info().Latency})
			in.SetSeq(microcode.Seq{Cond: microcode.CondHalt})
			return []*microcode.Instr{in}
		})
	})

	t.Run("first-sink-leaves-plane", func(t *testing.T) {
		// Two sinks and a reduction register, the first sink leaving its
		// plane after about a block: the kernel commits sinks block by
		// block, yet it must write just that sink's in-range prefix and
		// leave the second sink's plane, the register and the statistics
		// as the interpreter does — untouched.
		const count = 2*kernBlock + 100
		build := func(n *Node) []*microcode.Instr {
			if err := n.WriteWords(0, 0, seq(count, func(i int) float64 { return float64(i) + 0.5 })); err != nil {
				t.Fatal(err)
			}
			n.RedReg[2] = 42
			cfg := n.Cfg
			in := buildCopy(n, 0, 1, count)
			in.SetMemDMA(1, microcode.MemDMA{Enable: true, Write: true, Addr: cfg.PlaneWords() - kernBlock - 50,
				Stride: 1, Count: count, Start: arch.OpMov.Info().Latency})
			in.Route(cfg.SnkMemWrite(2), cfg.SrcFUOut(0))
			in.SetMemDMA(2, microcode.MemDMA{Enable: true, Write: true, Addr: 0, Stride: 1, Count: count,
				Start: arch.OpMov.Info().Latency})
			red := arch.FUID(2)
			in.SetFUOp(red, arch.OpAdd)
			in.SetFUInput(red, 0, microcode.InSwitch, 0, 0)
			in.SetFUInput(red, 1, microcode.InFeedback, 0, 0)
			in.SetFUReduce(red, true, 0)
			in.Route(cfg.SnkFUIn(red, 0), cfg.SrcMemRead(0))
			return []*microcode.Instr{in}
		}
		errs := execEqual(t, "first-sink-leaves-plane", build)
		end := arch.Default().PlaneWords()
		if errs[0] == nil || !strings.Contains(errs[0].Error(), fmt.Sprintf("address %d outside", end)) {
			t.Errorf("error %v, want the first sink to stop at address %d", errs[0], end)
		}
		n := newNode(t)
		if err := n.Exec(build(n)[0]); err == nil {
			t.Fatal("a sink leaving its plane must fail the dispatch")
		}
		if got, _ := n.Mem[1].Read(end - 1); got != kernBlock+49.5 {
			t.Errorf("last in-range word of the first sink = %v, want %v", got, kernBlock+49.5)
		}
		if n.Mem[2].PagesResident() != 0 || n.RedReg[2] != 42 || n.Stats.Instructions != 0 {
			t.Errorf("second sink %d pages, register %v, %d instructions: want all untouched",
				n.Mem[2].PagesResident(), n.RedReg[2], n.Stats.Instructions)
		}
	})

	t.Run("nonfinite-stream", func(t *testing.T) {
		// NaN and Inf flow through untrapped when no policy is armed;
		// the kernel must propagate the exact same bit patterns.
		execEqual(t, "nonfinite", func(n *Node) []*microcode.Instr {
			poison := append([]float64(nil), data[:16]...)
			poison[3] = math.NaN()
			poison[7] = math.Inf(1)
			poison[11] = math.Inf(-1)
			poison[13] = 5e-324 // subnormal
			if err := n.WriteWords(0, 0, poison); err != nil {
				t.Fatal(err)
			}
			cfg := n.Cfg
			in := n.F.NewInstr()
			fu := arch.FUID(1)
			in.SetFUOp(fu, arch.OpDiv)
			in.SetFUInput(fu, 0, microcode.InConst, 0, 0)
			in.SetConst(0, 1.0)
			in.SetFUInput(fu, 1, microcode.InSwitch, 0, 0)
			in.Route(cfg.SnkFUIn(fu, 1), cfg.SrcMemRead(0))
			in.SetMemDMA(0, microcode.MemDMA{Enable: true, Addr: 0, Stride: 1, Count: 16})
			in.Route(cfg.SnkMemWrite(1), cfg.SrcFUOut(fu))
			in.SetMemDMA(1, microcode.MemDMA{Enable: true, Write: true, Addr: 0, Stride: 1, Count: 16,
				Start: arch.OpDiv.Info().Latency})
			in.SetSeq(microcode.Seq{Cond: microcode.CondHalt})
			return []*microcode.Instr{in}
		})
	})
}

// TestKernelEligibility pins down the fast-path predicate: any
// condition that needs per-cycle observation must force the
// interpreter, and the escape hatch must always win. Each slow
// dispatch counts exactly one sim.kernel.slow.<reason> counter — the
// first condition that holds, in DESIGN §13's table order — and the
// reasons sum to sim.kernel.slow.
func TestKernelEligibility(t *testing.T) {
	data := seq(16, func(i int) float64 { return float64(i) })
	reasons := []string{"lowering-declined", "trap-armed", "tracer", "ecc-pending", "kernel-off"}
	build := func(t *testing.T, mutate func(*Node)) (KernelStats, string) {
		n := newNode(t)
		n.Obs = obs.New()
		if err := n.WriteWords(0, 0, data); err != nil {
			t.Fatal(err)
		}
		mutate(n)
		if err := n.Exec(buildCopy(n, 0, 1, 16)); err != nil {
			t.Fatal(err)
		}
		c := n.Obs.Reg.Snapshot().Counters
		var sum int64
		counted := ""
		for _, r := range reasons {
			if v := c["sim.kernel.slow."+r]; v > 0 {
				sum += v
				counted += r
			}
		}
		if sum != c["sim.kernel.slow"] {
			t.Errorf("slow reasons sum to %d, sim.kernel.slow is %d: %v", sum, c["sim.kernel.slow"], c)
		}
		return n.KernelStatsOf(), counted
	}
	for _, tc := range []struct {
		name, reason string
		mutate       func(*Node)
	}{
		{"default", "", func(n *Node) {}},
		{"lowering-declined", "lowering-declined", func(n *Node) {
			pl, err := n.plan(buildCopy(n, 0, 1, 16))
			if err != nil {
				t.Fatal(err)
			}
			pl.kern = nil
			n.KernelOff = true // declined lowering is counted first
		}},
		{"trap-armed", "trap-armed", func(n *Node) {
			n.TrapCfg = arch.TrapConfig{Policy: arch.TrapHalt}
			n.Tracer = func(arch.SourceID, int, float64, bool) {}
		}},
		{"tracer", "tracer", func(n *Node) {
			n.Tracer = func(arch.SourceID, int, float64, bool) {}
			n.KernelOff = true
		}},
		{"ecc-pending", "ecc-pending", func(n *Node) {
			if err := n.InjectECC(ECCFault{Plane: 0, Addr: 3}); err != nil {
				t.Fatal(err)
			}
		}},
		{"kernel-off", "kernel-off", func(n *Node) { n.KernelOff = true }},
	} {
		ks, counted := build(t, tc.mutate)
		if tc.reason == "" {
			if ks.Fast != 1 || ks.Slow != 0 || counted != "" {
				t.Errorf("%s: default dispatch should take the kernel: %+v, reasons %q", tc.name, ks, counted)
			}
			continue
		}
		if ks.Fast != 0 || ks.Slow != 1 {
			t.Errorf("%s must force the interpreter: %+v", tc.name, ks)
		}
		if counted != tc.reason {
			t.Errorf("%s: counted reason %q, want %q", tc.name, counted, tc.reason)
		}
	}

	// Consuming every armed ECC event re-enables the kernel: the map
	// may stay non-nil, but an empty event set needs no per-cycle check.
	n := newNode(t)
	if err := n.WriteWords(0, 0, data); err != nil {
		t.Fatal(err)
	}
	n.InjectECC(ECCFault{Plane: 0, Addr: 3})
	if err := n.Exec(buildCopy(n, 0, 1, 16)); err != nil {
		t.Fatal(err)
	}
	if err := n.Exec(buildCopy(n, 0, 1, 16)); err != nil {
		t.Fatal(err)
	}
	ks := n.KernelStatsOf()
	if ks.Slow != 1 || ks.Fast != 1 {
		t.Errorf("after the armed event fires the kernel should re-engage: %+v", ks)
	}
	if n.TrapCounters.ECCCorrected != 1 {
		t.Errorf("ECC event should have fired once: %+v", n.TrapCounters)
	}
}

// TestKernelFallbackMatchesInterpreter arms detection machinery on one
// node (forcing the interpreter) and compares it against an untouched
// node where the configuration provably cannot change results: a no-op
// tracer, and a single-bit ECC event that is corrected in flight.
func TestKernelFallbackMatchesInterpreter(t *testing.T) {
	data := seq(48, func(i int) float64 { return float64(i)*1.5 - 20 })
	run := func(t *testing.T, mutate func(*Node)) *Node {
		n := newNode(t)
		if err := n.WriteWords(0, 0, data); err != nil {
			t.Fatal(err)
		}
		mutate(n)
		for i := 0; i < 3; i++ {
			if err := n.Exec(buildCopy(n, 0, 1, 48)); err != nil {
				t.Fatal(err)
			}
		}
		return n
	}

	base := run(t, func(n *Node) {})
	if ks := base.KernelStatsOf(); ks.Fast != 3 {
		t.Fatalf("base node should be all-kernel: %+v", ks)
	}

	traced := run(t, func(n *Node) {
		n.Tracer = func(arch.SourceID, int, float64, bool) {}
	})
	if ks := traced.KernelStatsOf(); ks.Fast != 0 || ks.Slow != 3 {
		t.Fatalf("traced node should be all-interpreter: %+v", ks)
	}
	traced.Tracer = nil
	traced.TrapCounters = base.TrapCounters
	compareNodes(t, "tracer-fallback", base, traced)

	ecc := run(t, func(n *Node) {
		n.InjectECC(ECCFault{Plane: 0, Addr: 5}) // single-bit: corrected, value unchanged
	})
	if ks := ecc.KernelStatsOf(); ks.Fast != 2 || ks.Slow != 1 {
		t.Fatalf("ECC node should interpret once then re-engage: %+v", ks)
	}
	if ecc.TrapCounters.ECCCorrected != 1 {
		t.Fatalf("corrected-ECC count: %+v", ecc.TrapCounters)
	}
	ecc.TrapCounters = base.TrapCounters
	compareNodes(t, "ecc-fallback", base, ecc)
}

// maxMinEdges are the operands where math.Max and math.Min special-case
// their results: signed zeros, infinities, NaNs of several payloads
// and signs, and the finite extremes.
var maxMinEdges = []float64{
	0, math.Copysign(0, -1), 1, -1, 2.5, -2.5,
	math.Inf(1), math.Inf(-1), math.NaN(),
	math.Float64frombits(0x7ff0000000000001), // signalling NaN
	math.Float64frombits(0xfff8000000000000), // negative quiet NaN
	math.Float64frombits(0x7ff8dead0000beef),
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
}

// TestMaxMinMatchMath pins the kernel's inlinable max/min helpers to
// math.Max and math.Min bit for bit, on every pair of edge operands.
func TestMaxMinMatchMath(t *testing.T) {
	for _, x := range maxMinEdges {
		for _, y := range maxMinEdges {
			checkMaxMin(t, x, y)
		}
	}
}

func checkMaxMin(t *testing.T, x, y float64) {
	t.Helper()
	if got, want := math.Float64bits(fmax(x, y)), math.Float64bits(math.Max(x, y)); got != want {
		t.Errorf("fmax(%x, %x) = %x, math.Max %x", math.Float64bits(x), math.Float64bits(y), got, want)
	}
	if got, want := math.Float64bits(fmin(x, y)), math.Float64bits(math.Min(x, y)); got != want {
		t.Errorf("fmin(%x, %x) = %x, math.Min %x", math.Float64bits(x), math.Float64bits(y), got, want)
	}
}

// reduceOps are the ops a reduction unit folds in the kernel's hot
// loops.
var reduceOps = []arch.Op{arch.OpAdd, arch.OpMul, arch.OpMax, arch.OpMin, arch.OpMaxAbs}

// TestReduceFoldEdges pins the reduction folds on the streams where
// their shortcuts could part from the interpreter: an empty stream
// returns the initial value raw, +Inf's magnitude beats a NaN before
// or after it, a payload-NaN initial value comes out as the canonical
// NaN, a −0 initial value is ordered below +0, and two NaN payloads
// under add or mul keep the one apply keeps.
func TestReduceFoldEdges(t *testing.T) {
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	payload := math.Float64frombits(0x7ff8dead0000beef)
	for _, tc := range []struct {
		name string
		op   arch.Op
		init float64
		a    []float64
		want float64
	}{
		{"empty keeps a NaN init", arch.OpMaxAbs, payload, nil, payload},
		{"empty keeps a -0 init", arch.OpMaxAbs, negZero, nil, negZero},
		{"empty add keeps a -0 init", arch.OpAdd, negZero, nil, negZero},
		{"+Inf after NaN", arch.OpMaxAbs, 0, []float64{1, nan, 2, inf, 3}, inf},
		{"+Inf before NaN", arch.OpMaxAbs, 0, []float64{1, inf, 2, nan, 3}, inf},
		{"-Inf's magnitude beats a NaN init", arch.OpMaxAbs, payload, []float64{math.Inf(-1)}, inf},
		{"payload-NaN init", arch.OpMaxAbs, payload, []float64{1, -2}, nan},
		{"payload-NaN operand", arch.OpMaxAbs, 3, []float64{1, -payload, -2}, nan},
		{"-0 init", arch.OpMaxAbs, negZero, []float64{negZero}, 0},
		{"subnormal magnitudes", arch.OpMaxAbs, 0, []float64{5e-324, -1e-320, 2e-323}, 1e-320},
		{"-0 init loses max to +0", arch.OpMax, negZero, []float64{0}, 0},
		{"-0 init wins min over +0", arch.OpMin, negZero, []float64{0}, negZero},
		{"+Inf beats NaN in max", arch.OpMax, payload, []float64{inf, 1}, inf},
		{"add", arch.OpAdd, 1, []float64{2, 3}, 6},
		{"mul keeps -0", arch.OpMul, negZero, []float64{2, 3}, negZero},
	} {
		if got := checkFold(t, tc.op, tc.init, tc.a); math.Float64bits(got) != math.Float64bits(tc.want) {
			t.Errorf("%s: %s fold = %x, want %x", tc.name, tc.op, math.Float64bits(got), math.Float64bits(tc.want))
		}
	}
	nans := []float64{payload, -nan, math.Float64frombits(0x7ff0000000000001), inf - inf}
	for _, op := range []arch.Op{arch.OpAdd, arch.OpMul} {
		for _, x := range nans {
			for _, y := range nans {
				checkFold(t, op, x, []float64{1, y, 2})
				checkFold(t, op, 1, []float64{x, y})
			}
		}
	}
}

// checkFold runs reduceRun and reduceFold over a from init, demands
// that both match the interpreter's apply loop bit for bit, reduceRun
// at every step, and returns the fold.
func checkFold(t *testing.T, op arch.Op, init float64, a []float64) float64 {
	t.Helper()
	want, run := make([]float64, len(a)), make([]float64, len(a))
	acc := init
	for i, x := range a {
		acc, _ = apply(op, x, acc)
		want[i] = acc
	}
	bits := math.Float64bits
	if got := reduceRun(op, init, a, run); bits(got) != bits(acc) {
		t.Errorf("%s from %x over %x: reduceRun = %x, apply loop %x", op, bits(init), a, bits(got), bits(acc))
	}
	for i := range run {
		if bits(run[i]) != bits(want[i]) {
			t.Errorf("%s from %x over %x: reduceRun step %d = %x, apply loop %x", op, bits(init), a, i, bits(run[i]), bits(want[i]))
			break
		}
	}
	fold := reduceFold(op, init, a)
	if bits(fold) != bits(acc) {
		t.Errorf("%s from %x over %x: reduceFold = %x, apply loop %x", op, bits(init), a, bits(fold), bits(acc))
	}
	return fold
}
