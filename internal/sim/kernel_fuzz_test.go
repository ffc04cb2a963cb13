package sim

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/arch"
	"repro/internal/microcode"
)

// FuzzKernelEquivalence generates random valid pipelines from the fuzz
// input and demands that the specialized kernel, the interpreter
// (KernelOff — the pre-kernel execution semantics, which evaluate keeps
// verbatim), and the detection-armed fallback configurations all leave
// bit-identical architectural state: plane words (both sink planes, 2
// and 3, among them), reduction registers, flags, counters, clocks,
// FLOPs and trap records.
func FuzzKernelEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{0xff, 0x80, 0x41, 0x00, 0x7f, 0x33, 0x19, 0xc2, 0x05, 0x51})
	f.Add([]byte{13, 0, 13, 0, 13, 0, 13, 0, 13, 0, 13, 0, 13, 0})
	f.Add([]byte{200, 100, 50, 25, 12, 6, 3, 1, 0, 255, 254, 253, 252})
	// Cache source, pre-unit into two chained SDUs with a far tap, B
	// from another tap, sink straight from a tap at a negative stride.
	f.Add([]byte{40, 0, 1, 30, 2, 0, 1, 0, 1, 0, 2, 0, 1, 2, 8, 1, 0, 0, 1, 0, 0, 3, 2, 0, 9, 1, 1, 2, 2, 1, 0, 3, 0, 5, 7})
	f.Add([]byte{17, 1, 3, 90, 4, 4, 0, 3, 0, 3, 2, 1, 0, 0, 2, 3, 16, 200, 0, 0, 0, 1, 1, 2, 2, 4, 0, 5, 0, 1, 0, 0, 6, 60, 3})
	// Demand shapes: a mul reduction read by its register alone, the
	// sink on the main unit, beside an FU nothing reads; a max
	// reduction likewise, with a second sink on the pre-unit ahead of
	// an SDU; an add reduction feeding the sink while a second sink
	// reads a tap of the source.
	f.Add([]byte{3, 2, 7, 1, 2, 0, 2, 5, 3, 5, 3, 5, 2, 6, 5, 6, 2, 0, 1, 5, 5, 6, 5, 2, 1, 4, 1, 1, 3, 7, 1, 2, 0, 0, 1, 7, 4, 7, 3, 1})
	f.Add([]byte{7, 2, 2, 0, 0, 4, 3, 6, 5, 7, 4, 4, 2, 6, 1, 6, 2, 0, 5, 7, 2, 3, 4, 6, 2, 4, 7, 1, 5, 1, 7, 3, 2, 3, 1, 5, 0, 3, 3, 6})
	f.Add([]byte{2, 5, 1, 3, 0, 3, 5, 0, 7, 6, 2, 6, 6, 0, 5, 6, 5, 2, 5, 0, 3, 5, 6, 5, 5, 5, 2, 1, 7, 6, 3, 4, 4, 2, 6, 2, 6, 0, 6, 2})
	// Layouts, on a main unit reading a 34-word stride-1 walk from 61
	// beside a second memory source: walks that straddle a page boundary
	// with data on both pages; straddling into an absent page; a lead-in
	// skip of 23 cycles past a page end 6 words from the walk's start;
	// walks over absent pages alone, with the first sink leaving its
	// plane ahead of a second one. Then a 4,177-cycle stream, over two
	// blocks, through a divide pre-unit the main unit reads through a
	// 2,368-cycle SDU tap and an add reduction the sink reads.
	walk := []byte{33, 3, 1, 61, 7, 5, 2, 5, 2, 1, 1, 6, 0, 0, 0, 6, 4, 2, 6, 3, 3, 4, 4, 2, 4, 3, 4, 5, 1, 7, 1, 3, 0}
	f.Add(fuzzSeed(walk, 1, 80, 0, 0, 0))
	f.Add(fuzzSeed(walk, 2, 80, 0, 0, 0))
	f.Add(fuzzSeed(walk, 1, 66, 1, 20, 0, 0))
	f.Add(fuzzSeed(walk, 3, 0, 0, 1, 5, 0))
	f.Add(fuzzSeed([]byte{35, 0, 7, 0, 0, 2, 6, 4, 1, 7, 5, 2, 6, 0, 5, 2, 5, 2, 5, 2, 2, 4, 0, 4, 2, 4, 2, 2, 3, 3, 2, 1, 2,
		2, 1, 2, 7, 5, 6, 1, 4, 5, 3, 7}, 0, 0, 1, 10, 1, 40, 0))
	// Walks past the written prefix of a held page: plane 0's page holds
	// the 256 backing words alone, and a mov unit reads a 48-word walk
	// from word 240 at stride 1, then one from word 200 at stride 2.
	f.Add(fuzzSeed([]byte{47, 0, 1, 240, 0, 1, 1, 1, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0}))
	f.Add(fuzzSeed([]byte{47, 1, 1, 200, 0, 1, 1, 1, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0}))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzBytes{d: data}

		type probe struct {
			name   string
			mutate func(*Node)
			// wantSlow: every vector dispatch must take the interpreter.
			wantSlow bool
		}
		probes := []probe{
			{name: "kernel", mutate: func(n *Node) {}},
			{name: "interp", mutate: func(n *Node) { n.KernelOff = true }, wantSlow: true},
			{name: "traced", mutate: func(n *Node) {
				n.Tracer = func(arch.SourceID, int, float64, bool) {}
			}, wantSlow: true},
			{name: "ecc", mutate: func(n *Node) {
				// A correctable single-bit event: fires once on the first
				// read of word 1 of plane 0, corrected in flight, so values
				// cannot change — only the path taken and the ECC counter.
				if err := n.InjectECC(ECCFault{Plane: 0, Addr: 1}); err != nil {
					t.Fatal(err)
				}
			}},
		}

		nodes := make([]*Node, len(probes))
		var execErr error
		for i, p := range probes {
			n, err := NewNode(arch.Default())
			if err != nil {
				t.Fatal(err)
			}
			p.mutate(n)
			r.rewind()
			in := fuzzInstr(t, r, n)
			err = n.Exec(in)
			if i == 0 {
				execErr = err
			} else if (err == nil) != (execErr == nil) || err != nil && err.Error() != execErr.Error() {
				t.Fatalf("%s: exec err %v, kernel node err %v", p.name, err, execErr)
			}
			nodes[i] = n
		}

		base := nodes[0]
		for i, p := range probes[1:] {
			n := nodes[i+1]
			if p.wantSlow {
				if ks := n.KernelStatsOf(); ks.Fast != 0 {
					t.Fatalf("%s: must fall back to the interpreter: %+v", p.name, ks)
				}
			}
			// Normalize state the probe legitimately changes before the
			// bit-compare: the tracer hook and the corrected-ECC counter.
			n.Tracer = nil
			n.KernelOff = false
			n.TrapCounters = base.TrapCounters
			compareNodes(t, p.name, base, n)
		}
	})
}

// fuzzSeed is a fuzz input that makes fuzzInstr's structural decisions
// from structure, then backing words of ordinary magnitudes, then the
// layout draws from layout.
func fuzzSeed(structure []byte, layout ...byte) []byte {
	b := append([]byte(nil), structure...)
	for i := 0; i < 256; i++ {
		b = append(b, byte(6+i*7%11+17*(i/11%15)), byte(i)) // b%17 ≥ 6: two bytes, no special value
	}
	return append(b, layout...)
}

// fuzzBytes deals bytes from the fuzz input, rewindable so every node
// sees the identical decision stream; exhausted input reads as zero.
type fuzzBytes struct {
	d []byte
	i int
}

func (r *fuzzBytes) rewind() { r.i = 0 }

func (r *fuzzBytes) next() byte {
	if r.i >= len(r.d) {
		return 0
	}
	b := r.d[r.i]
	r.i++
	return b
}

// val derives a float64 operand, mostly ordinary magnitudes with a
// sprinkling of the special values the trap layer cares about. A NaN
// takes its sign and payload from the byte that chose it, so a
// constant and a stream can carry different NaN bits; byte 1 gives
// math.NaN() itself.
func (r *fuzzBytes) val() float64 {
	b := r.next()
	switch b % 17 {
	case 0:
		return 0
	case 1:
		return math.Float64frombits(0x7ff8000000000000 | uint64(b>>7)<<63 | uint64(b))
	case 2:
		return math.Inf(1)
	case 3:
		return math.Inf(-1)
	case 4:
		return 5e-324 // subnormal
	case 5:
		return math.MaxFloat64
	}
	u := binary.LittleEndian.Uint16([]byte{r.next(), b})
	return (float64(u) - 32768) / 16
}

// fuzzInstr builds one random — but always compilable — pipeline from
// the decision stream. A memory or cache source feeds, optionally
// through a pre-unit and one or two chained SDUs (the second fed from
// a tap of the first), one or two functional units chosen with their
// capability constraints, optionally reducing. Operand B may be a
// constant, a second memory source, or another tap with a different
// offset; tap delays sometimes reach far past the stream's end. The
// result — or, sometimes, a tap directly — drains to plane 2 at stride
// 1 or a strided walk. The shapes demand lowering prunes come next: a
// reduction only its register reads, a second sink on plane 3 with a
// window of its own, and a unit nothing reads; then a constant operand
// A on the main unit. The backing data comes last in the stream, so
// short inputs still vary the structure.
func fuzzInstr(t *testing.T, r *fuzzBytes, n *Node) *microcode.Instr {
	t.Helper()
	cfg := n.Cfg
	floatOps := []arch.Op{arch.OpMov, arch.OpAdd, arch.OpSub, arch.OpMul, arch.OpDiv,
		arch.OpNeg, arch.OpAbs, arch.OpFMA, arch.OpRecip}

	count := int64(1 + r.next()%48)
	stride := int64(1 + r.next()%3)
	if r.next()%4 == 0 {
		stride = -stride
	}
	base := int64(r.next())
	if stride < 0 {
		base += count * -stride
	}
	skip := int64(r.next() % 5)

	in := n.F.NewInstr()
	src := cfg.SrcMemRead(0)
	if r.next()%4 == 0 {
		in.SetCacheDMA(0, microcode.CacheDMA{Enable: true, Buf: int(r.next() % 2), Addr: base,
			Stride: stride, Count: count, Skip: skip})
		src = cfg.SrcCacheRead(0)
	} else {
		in.SetMemDMA(0, microcode.MemDMA{Enable: true, Addr: base, Stride: stride, Count: count, Skip: skip})
	}

	// Optional pre-unit on FU 0, whose output feeds the SDU (or the
	// main unit when there is no SDU).
	feed, pre := src, arch.InvalidSource
	if r.next()%3 == 0 {
		pu := arch.FUID(0)
		op := floatOps[int(r.next())%len(floatOps)]
		in.SetFUOp(pu, op)
		in.SetFUInput(pu, 0, microcode.InSwitch, 0, int(r.next()%3))
		in.Route(cfg.SnkFUIn(pu, 0), src)
		if op.Info().Arity >= 2 {
			in.SetConst(3, r.val())
			in.SetFUInput(pu, 1, microcode.InConst, 3, 0)
		}
		feed = cfg.SrcFUOut(pu)
		pre = feed
	}

	// Optional SDU 0 on the feed, and SDU 1 on one of its taps. A tap
	// delay is small, or 1 in 8 reaches past the whole stream.
	taps := func() []int {
		d := []int{int(r.next() % 4), int(r.next() % 4)}
		if r.next()%8 == 0 {
			d[r.next()%2] = 50 + int(r.next())
		}
		return d
	}
	var tap arch.SourceID = arch.InvalidSource
	if r.next()%2 == 0 {
		in.SetSDU(0, true, taps())
		in.Route(cfg.SnkSDUIn(0), feed)
		feed, tap = cfg.SrcSDUTap(0, int(r.next()%2)), cfg.SrcSDUTap(0, int(r.next()%2))
		if r.next()%3 == 0 {
			in.SetSDU(1, true, taps())
			in.Route(cfg.SnkSDUIn(1), cfg.SrcSDUTap(0, int(r.next()%2)))
			feed = cfg.SrcSDUTap(1, int(r.next()%2))
		}
	}

	// Main unit: FU 1 is float-only in the default inventory, so draw
	// from the float op set. Operand B is a constant, a second memory
	// source, or another tap; a unary op may still route B, which
	// then only gates validity.
	fu := arch.FUID(1)
	op := floatOps[int(r.next())%len(floatOps)]
	in.SetFUOp(fu, op)
	in.SetFUInput(fu, 0, microcode.InSwitch, 0, int(r.next()%3))
	in.Route(cfg.SnkFUIn(fu, 0), feed)
	bChoice := r.next() % 4
	if op.Info().Arity < 2 && bChoice != 3 {
		bChoice = 4 // no operand B
	}
	switch {
	case bChoice == 0:
		k := int(r.next() % 4)
		in.SetConst(k, r.val())
		in.SetFUInput(fu, 1, microcode.InConst, k, 0)
	case bChoice == 2 && tap != arch.InvalidSource:
		in.SetFUInput(fu, 1, microcode.InSwitch, 0, int(r.next()%5))
		in.Route(cfg.SnkFUIn(fu, 1), tap)
	case bChoice != 4:
		in.SetMemDMA(1, microcode.MemDMA{Enable: true, Addr: int64(r.next() % 64), Stride: 1,
			Count: count, Skip: int64(r.next() % 3)})
		in.SetFUInput(fu, 1, microcode.InSwitch, 0, int(r.next()%3))
		in.Route(cfg.SnkFUIn(fu, 1), cfg.SrcMemRead(1))
	}
	main := cfg.SrcFUOut(fu)
	out := main

	// Optional reduction on FU 2 (the min/max-capable slot).
	if r.next()%2 == 0 {
		redOps := []arch.Op{arch.OpAdd, arch.OpMul, arch.OpMax, arch.OpMin, arch.OpMaxAbs}
		red := arch.FUID(2)
		in.SetFUOp(red, redOps[int(r.next())%len(redOps)])
		in.SetFUInput(red, 0, microcode.InSwitch, 0, int(r.next()%2))
		in.SetFUInput(red, 1, microcode.InFeedback, 0, 0)
		k := 4 + int(r.next()%4)
		in.SetConst(k, r.val())
		in.SetFUReduce(red, true, k)
		in.Route(cfg.SnkFUIn(red, 0), out)
		out = cfg.SrcFUOut(red)
		if r.next()%2 == 0 {
			in.SetSeq(microcode.Seq{Cond: microcode.CondHalt, CmpEnable: true, CmpFU: red,
				CmpOp: uint64(r.next() % 4), CmpConst: k, CmpFlag: int(r.next() % 4)})
		}
	}

	// Drain to plane 2, from the unit chain or 1 in 4 straight from a
	// tap, at stride 1 or a strided walk. Any Start skew is legal: the
	// sink reads whatever the producer holds at that cycle, in both
	// paths.
	start := int(r.next() % 16)
	if tap != arch.InvalidSource && r.next()%4 == 0 {
		out, start = tap, start%4 // mostly before the tap's shift
	}
	sinkStride := int64(1)
	if r.next()%3 == 0 {
		sinkStride = int64(r.next()%7) - 3
	}
	sinkAddr := int64(r.next() % 128)
	if sinkStride < 0 {
		sinkAddr += count * -sinkStride
	}
	in.Route(cfg.SnkMemWrite(2), out)
	in.SetMemDMA(2, microcode.MemDMA{Enable: true, Write: true, Addr: sinkAddr,
		Stride: sinkStride, Count: count, Skip: skip, Start: start})

	// Demand shapes, drawn after every decision above so that zeros
	// keep the pipelines older inputs built: a reduction read by its
	// register alone, the sink taking the main unit instead; a second
	// sink on plane 3 reading the source, the pre-unit or a tap over a
	// window of its own, so one lane has two readers; and an FU that
	// no sink or unit reads.
	if r.next()%3 == 1 && out == cfg.SrcFUOut(2) {
		in.Route(cfg.SnkMemWrite(2), main)
	}
	if pick := r.next() % 4; pick != 0 {
		from := src
		switch {
		case pick == 1 && pre != arch.InvalidSource:
			from = pre
		case pick == 2 && tap != arch.InvalidSource:
			from = tap
		}
		in.Route(cfg.SnkMemWrite(3), from)
		in.SetMemDMA(3, microcode.MemDMA{Enable: true, Write: true, Addr: int64(r.next() % 128),
			Stride: int64(1 + r.next()%2), Count: int64(1 + r.next()%48), Skip: int64(r.next() % 5),
			Start: int(r.next() % 24)})
	}
	if r.next()%3 == 1 {
		idle := arch.FUID(4)
		op := floatOps[int(r.next())%len(floatOps)]
		in.SetFUOp(idle, op)
		in.SetFUInput(idle, 0, microcode.InSwitch, 0, int(r.next()%3))
		in.Route(cfg.SnkFUIn(idle, 0), feed)
		if op.Info().Arity >= 2 {
			in.SetFUInput(idle, 1, microcode.InConst, 3, 0)
		}
	}
	// A constant operand A on a binary main unit, drawn after every
	// older decision for the same reason: the kernel's scalar×lane
	// loops must keep A's NaN payload where apply does.
	if r.next()%3 == 1 && op.Info().Arity >= 2 {
		in.Unroute(cfg.SnkFUIn(fu, 0))
		in.SetConst(2, r.val())
		in.SetFUInput(fu, 0, microcode.InConst, 2, 0)
	}
	words := make([]float64, 0, 256)
	for i := 0; i < 256; i++ {
		words = append(words, r.val())
	}

	// Layouts the kernel's in-place sources, blocks and per-block sink
	// commits must meet, drawn after the backing data so that inputs
	// which end earlier, every older seed among them, keep their
	// pipelines and data: memory source walks that straddle a page
	// boundary, with data on both pages or the second one absent, or
	// that read absent pages alone; a lead-in skip past a page end; a
	// stream longer than two blocks, its data tiled along the walks, with
	// an SDU tap longer than a block; and a first sink that leaves its
	// plane ahead of a second one.
	shift, dataAt, dataEnd := int64(0), int64(0), int64(math.MaxInt64)
	switch lay := r.next() % 4; lay {
	case 1, 2:
		shift = pageWords - 1 - int64(r.next()%128)
		dataAt = shift
		if lay == 2 {
			dataEnd = pageWords
		}
	case 3:
		shift = 2 * pageWords
	}
	var skipMore, long int64
	if r.next()%3 == 1 {
		skipMore = 1 + int64(r.next())
	}
	if src == cfg.SrcMemRead(0) && r.next()%3 == 1 {
		long = 2*kernBlock + 1 + 8*int64(r.next())
	}
	for p := 0; p < 3; p++ {
		d := in.MemDMAOf(p)
		if !d.Enable || d.Write != (p == 2) { // sources on planes 0 and 1, the sink on 2
			continue
		}
		if p < 2 {
			d.Addr += shift
		}
		if p == 0 {
			d.Skip += skipMore
		}
		if long > 0 {
			if d.Stride < 0 {
				d.Addr += (long - d.Count) * -d.Stride
			}
			d.Count = long
		}
		in.SetMemDMA(p, d)
	}
	if en, delays := in.SDUOf(0); long > 0 && en && r.next()%2 == 1 {
		delays[0] = kernBlock + 8*int(r.next())
		in.SetSDU(0, true, delays)
	}
	if r.next()%4 == 1 {
		d := in.MemDMAOf(2)
		d.Addr, d.Stride = cfg.PlaneWords()-1-int64(r.next()%64), 1+int64(r.next()%2)
		in.SetMemDMA(2, d)
		if !in.MemDMAOf(3).Enable {
			in.Route(cfg.SnkMemWrite(3), src)
			in.SetMemDMA(3, microcode.MemDMA{Enable: true, Write: true, Stride: 1, Count: 16})
		}
	}
	if in.SeqOf().Cond != microcode.CondHalt {
		in.SetSeq(microcode.Seq{Cond: microcode.CondHalt})
	}

	// Backing data for the source walks (and the ECC probe's word 1),
	// tiled along a long stream's walks.
	for p, w := range [2][]float64{words, words[:128]} {
		extent := int64(len(w))
		if long > 0 {
			extent = 3*long + 256
		}
		for at := dataAt; at < min(dataAt+extent, dataEnd); at += int64(len(w)) {
			if err := n.WriteWords(p, at, w[:min(int64(len(w)), dataEnd-at)]); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, v := range words {
		for half := 0; half < 2; half++ {
			if err := n.Cache[0].Write(half, int64(i+half), v); err != nil {
				t.Fatal(err)
			}
		}
	}
	return in
}

// FuzzMaxMin pins the kernel's max/min helpers to math.Max and
// math.Min bit for bit on arbitrary bit patterns.
func FuzzMaxMin(f *testing.F) {
	for _, x := range maxMinEdges {
		f.Add(math.Float64bits(x), math.Float64bits(-x))
	}
	f.Fuzz(func(t *testing.T, x, y uint64) {
		checkMaxMin(t, math.Float64frombits(x), math.Float64frombits(y))
	})
}

// FuzzReduceFold pins reduceFold, the storeless fold of a reduction
// only its register reads, and reduceRun, the fold that stores every
// step, to the interpreter's apply loop bit for bit: every reduction
// op, arbitrary bit patterns (payload NaNs, ±0, ±Inf, subnormals),
// streams of 0–40 elements and any initial value.
func FuzzReduceFold(f *testing.F) {
	edges := make([]byte, 0, 8*len(maxMinEdges))
	for _, x := range maxMinEdges {
		edges = binary.LittleEndian.AppendUint64(edges, math.Float64bits(x))
	}
	for i := range reduceOps {
		f.Add(uint8(i), math.Float64bits(0), []byte{})
		f.Add(uint8(i), math.Float64bits(math.Copysign(0, -1)), edges)
		f.Add(uint8(i), uint64(0x7ff8dead0000beef), edges[8*6:])
	}
	f.Fuzz(func(t *testing.T, sel uint8, init uint64, data []byte) {
		a := make([]float64, min(len(data)/8, 40))
		for i := range a {
			a[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		checkFold(t, reduceOps[int(sel)%len(reduceOps)], math.Float64frombits(init), a)
	})
}
