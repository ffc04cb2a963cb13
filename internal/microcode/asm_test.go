package microcode

import (
	"strings"
	"testing"

	"repro/internal/arch"
)

// buildRich constructs an instruction exercising every statement class.
func buildRich(t testing.TB, f *Format) *Instr {
	t.Helper()
	cfg := f.Cfg
	in := f.NewInstr()
	in.Route(cfg.SnkSDUIn(0), cfg.SrcMemRead(2))
	in.SetSDU(0, true, []int{0, 5, 64})
	in.Route(cfg.SnkFUIn(3, 0), cfg.SrcSDUTap(0, 1))
	in.SetFUOp(3, arch.OpMul)
	in.SetFUInput(3, 0, InSwitch, 0, 2)
	in.SetFUInput(3, 1, InConst, 1, 0)
	in.SetConst(1, 0.125)
	in.Route(cfg.SnkFUIn(4, 0), cfg.SrcFUOut(3))
	in.SetFUOp(4, arch.OpAdd)
	in.SetFUInput(4, 0, InSwitch, 0, 0)
	in.SetFUInput(4, 1, InFeedback, 0, 0)
	in.SetFUReduce(4, true, 2)
	in.SetConst(2, 0.0)
	in.SetMemDMA(2, MemDMA{Enable: true, Addr: 100, Stride: 2, Count: 50, Skip: 3})
	in.Route(cfg.SnkMemWrite(7), cfg.SrcFUOut(4))
	in.SetMemDMA(7, MemDMA{Enable: true, Write: true, Addr: 0, Stride: 1, Count: 40, Skip: 3, Start: 9})
	in.SetCacheDMA(5, CacheDMA{Enable: true, Buf: 1, Addr: 8, Stride: 1, Count: 16, Swap: true})
	in.SetSeq(Seq{Next: 2, Branch: 0, Cond: CondFlagSet, Flag: 3, IRQ: true,
		CmpEnable: true, CmpFU: 4, CmpConst: 1, CmpOp: CmpGE, CmpFlag: 3})
	return in
}

// TestAssembleDisassembleRoundTrip: the textual microassembler dialect
// is closed under Disassemble/Assemble — the baseline hand-coding
// workflow the paper deems impractical, but real.
func TestAssembleDisassembleRoundTrip(t *testing.T) {
	f := MustFormat(arch.Default())
	in := buildRich(t, f)
	txt := in.Disassemble()
	back, err := f.Assemble(strings.NewReader(txt))
	if err != nil {
		t.Fatalf("assemble:\n%s\nerror: %v", txt, err)
	}
	for lane := range in.W {
		if in.W[lane] != back.W[lane] {
			t.Fatalf("lane %d differs after round trip:\n%s\nvs reassembled:\n%s",
				lane, txt, back.Disassemble())
		}
	}
}

func TestAssembleProgramRoundTrip(t *testing.T) {
	f := MustFormat(arch.Default())
	p := NewProgram(f)
	p.Append(buildRich(t, f))
	second := f.NewInstr()
	second.SetFUOp(0, arch.OpNeg)
	second.SetFUInput(0, 0, InConst, 0, 0)
	second.SetConst(0, 4.5)
	second.SetSeq(Seq{Cond: CondHalt})
	p.Append(second)

	back, err := f.AssembleProgram(strings.NewReader(p.Disassemble()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 {
		t.Fatalf("round trip produced %d instructions", back.Len())
	}
	for i := range p.Instrs {
		for lane := range p.Instrs[i].W {
			if p.Instrs[i].W[lane] != back.Instrs[i].W[lane] {
				t.Fatalf("instr %d lane %d differs", i, lane)
			}
		}
	}
}

func TestAssembleStatements(t *testing.T) {
	f := MustFormat(arch.Default())
	src := `
# comment and blank lines are fine

route FU0.a <- M1.rd
fu0   mov    a=sw b=-
mem1  read  addr=10 stride=1 count=5 skip=0
seq   next=0 branch=0 cond=3 flag=0
`
	in, err := f.Assemble(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if in.FUOp(0) != arch.OpMov {
		t.Error("op not assembled")
	}
	if in.SinkSource(f.Cfg.SnkFUIn(0, 0)) != f.Cfg.SrcMemRead(1) {
		t.Error("route not assembled")
	}
	d := in.MemDMAOf(1)
	if !d.Enable || d.Addr != 10 || d.Count != 5 {
		t.Errorf("dma = %+v", d)
	}
	if in.SeqOf().Cond != CondHalt {
		t.Error("seq not assembled")
	}
}

func TestAssembleErrors(t *testing.T) {
	f := MustFormat(arch.Default())
	// want, when set, is the token the error must name.
	bad := []struct{ src, want string }{
		{"frobnicate the switch", ""},
		{"route FU0.a -> M1.rd", ""},
		{"route FU0.a <- M99.rd", ""},
		{"route FU99.a <- M1.rd", ""},
		{"route FU0.a <- M1.rdX", ""},
		{"fu99 add", ""},
		{"fu0 notanop", ""},
		{"fu0 add a=xyz", ""},
		{"fu0 add a=const99", ""},
		{"fu0 add a=sw+zfoo", ""},
		{"fu0 add reduce(init=const99)", ""},
		{"fu0 add weird=1", ""},
		{"const99 = 1", ""},
		{"const0 == 1", ""},
		{"const0 = abc", ""},
		{"mem99 read addr=0 stride=1 count=1", ""},
		{"cache99 read addr=0 stride=1 count=1", ""},
		{"sdu9 taps=[1]", ""},
		{"sdu0 taps=(1)", ""},
		{"sdu0 taps=[x]", ""},
		{"seq cmp(fu1", ""},
		{"seq cmp(fux < const0 -> flag1)", ""},
		{"seq cmp(fu1 ~ const0 -> flag1)", ""},
		{"seq cmp(fu1 < constx -> flag1)", ""},
		{"seq cmp(fu1 < const0 => flag1)", ""},
		{"seq wat=1", ""},
		{"seq ldctr(1=5)x)", ""},
		{"mem0 read addr=12x stride=1 count=10", `"addr=12x"`},
		{"mem0 read adr=5 stride=1 count=10", `"adr=5"`},
		{"mem0 read addr=0 stride=1 count=2 swap", `"swap"`},
		{"mem0 read addr= stride=1 count=2", `"addr="`},
		{"cache0 read buf=x addr=1 stride=1 count=2", `"buf=x"`},
		{"cache0 read addr=1 stride=1 count=2 swap=yes", `"swap=yes"`},
		{"cache0 read addr=1 stride=1 count=2 =1", `"=1"`},
		{"seq next=abc", `"next=abc"`},
		{"seq cond=1.5", `"cond=1.5"`},
		{"seq loopctr=x", `"loopctr=x"`},
		{"seq irq=maybe", `"irq=maybe"`},
		{"seq cmp(fu1 < const0 -> flagx)", `"flagx)"`},
		{"seq cmp(fu1 < const0 -> flag1", `"flag1"`},
		{"seq cmp(fu1 < 0 -> flag1)", `"0"`},
	}
	for _, tc := range bad {
		_, err := f.Assemble(strings.NewReader(tc.src))
		if err == nil {
			t.Errorf("assembled %q", tc.src)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: error %q does not name %s", tc.src, err, tc.want)
		}
	}
	if _, err := f.AssembleProgram(strings.NewReader("")); err == nil {
		t.Error("empty listing assembled")
	}
}

// overwide holds one listing line per microcode field kind, each with
// a value wider than its field; the setters would panic on every one.
var overwide = []struct{ line, want string }{
	{"mem0 read addr=0 stride=1 count=8 skip=100000000", "mem0.skip=100000000 does not fit its 24-bit field"},
	{"mem0 read count=-5", "mem0.count=-5 does not fit its 24-bit field"},
	{"mem0 read addr=0 stride=-99999999 count=8", "mem0.stride=-99999999 does not fit its signed 16-bit field"},
	{"cache0 read buf=7 addr=0 count=8", "cache0.buf=7 does not fit its 1-bit field"},
	{"sdu0 taps=[99999999]", "sdu0.tap0=99999999 does not fit its 17-bit field"},
	{"fu0 add a=sw+z999999 b=-", "fu0.adelay=999999 does not fit its 7-bit field"},
	{"seq next=0 branch=0 cond=9 flag=0", "seq.cond=9 does not fit its 3-bit field"},
	{"seq cmp(fu1 < const99 -> flag1)", "seq.cmp.const=99 does not fit its 3-bit field"},
}

// TestAssembleRejectsOverwideValues: a value wider than its field is a
// line error naming the input line, the field and its width, never a
// panic from the setter.
func TestAssembleRejectsOverwideValues(t *testing.T) {
	f := MustFormat(arch.Default())
	for _, tc := range overwide {
		src := "--- instr 0 ---\nfu1 add a=sw b=sw\n\n--- instr 1 ---\n# comment\n" + tc.line + "\n"
		_, err := f.AssembleProgram(strings.NewReader(src))
		if want := "microcode: line 6: " + tc.want; err == nil || err.Error() != want {
			t.Errorf("%q: error %v, want %q", tc.line, err, want)
		}
	}
}

func TestParsePortNamesExhaustive(t *testing.T) {
	f := MustFormat(arch.Default())
	cfg := f.Cfg
	// Every source name printed by SourceName parses back to itself.
	for s := 0; s < cfg.NumSources(); s++ {
		name := cfg.SourceName(arch.SourceID(s))
		got, err := f.parseSource(name)
		if err != nil {
			t.Fatalf("parseSource(%q): %v", name, err)
		}
		if got != arch.SourceID(s) {
			t.Fatalf("parseSource(%q) = %d, want %d", name, got, s)
		}
	}
	for s := 0; s < cfg.NumSinks(); s++ {
		name := cfg.SinkName(arch.SinkID(s))
		got, err := f.parseSink(name)
		if err != nil {
			t.Fatalf("parseSink(%q): %v", name, err)
		}
		if got != arch.SinkID(s) {
			t.Fatalf("parseSink(%q) = %d, want %d", name, got, s)
		}
	}
}
