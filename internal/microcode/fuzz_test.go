package microcode

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/arch"
)

// FuzzAssemble feeds arbitrary listings to the microassembler: never
// panic, and anything accepted must disassemble and reassemble to the
// same bits (the dialect is closed).
func FuzzAssemble(f *testing.F) {
	seeds := []string{
		"route FU0.a <- M1.rd\nfu0 mov a=sw b=-\n",
		"const3 = 2.5\nfu1 add a=const3 b=fb reduce(init=const3)\n",
		"mem0 read addr=0 stride=1 count=8 skip=0 start=0\n",
		"cache5 write buf=1 addr=2 stride=1 count=4 swap\n",
		"sdu0 taps=[1 2 3]\nseq next=0 branch=0 cond=3 flag=0 irq trap\n",
		"seq cmp(fu1 < const0 -> flag1)\n",
		"# only a comment\n",
		"fu99 add\nmem99 read\nroute X <- Y\n",
		"const0 = -0\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	for _, tc := range overwide {
		f.Add(tc.line + "\n")
	}
	fmt := MustFormat(arch.Default())
	f.Fuzz(func(t *testing.T, src string) {
		in, err := fmt.Assemble(strings.NewReader(src))
		if err != nil {
			return
		}
		// Accepted input: Disassemble → Assemble must be a fixpoint.
		txt := in.Disassemble()
		back, err := fmt.Assemble(strings.NewReader(txt))
		if err != nil {
			t.Fatalf("accepted %q but own disassembly rejected: %v\n%s", src, err, txt)
		}
		for lane := range in.W {
			if in.W[lane] != back.W[lane] {
				t.Fatalf("lane %d differs after round trip of %q", lane, src)
			}
		}
	})
}

// FuzzAsmRoundTrip drives the whole toolchain loop: assemble → encode
// to the binary container → decode → disassemble → reassemble. The
// decoded bits must match the assembled ones, and the disassembly must
// be a fixed point (reassembling it reproduces both the bits and the
// text), so listings survive any number of tool passes.
func FuzzAsmRoundTrip(f *testing.F) {
	seeds := []string{
		"route FU0.a <- M1.rd\nfu0 mov a=sw b=-\n",
		"const3 = 2.5\nfu1 add a=const3 b=fb reduce(init=const3)\n",
		"mem0 read addr=0 stride=1 count=8 skip=0 start=0\n",
		"cache5 write buf=1 addr=2 stride=1 count=4 swap\n",
		"sdu0 taps=[1 2 3]\nseq next=0 branch=0 cond=3 flag=0 irq trap\n",
		"fu0 add a=sw b=fb\nseq cmp(fu0 < const1 -> flag2)\n",
		"",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	format := MustFormat(arch.Default())
	f.Fuzz(func(t *testing.T, src string) {
		in, err := format.Assemble(strings.NewReader(src))
		if err != nil {
			return
		}
		// Encode through the binary container and decode it back.
		prog := NewProgram(format)
		prog.Append(in)
		var buf bytes.Buffer
		if _, err := prog.WriteTo(&buf); err != nil {
			t.Fatalf("assembled instruction does not encode: %v", err)
		}
		decoded, err := ReadProgram(&buf, format)
		if err != nil {
			t.Fatalf("own encoding rejected: %v", err)
		}
		if decoded.Len() != 1 {
			t.Fatalf("decoded %d instructions, want 1", decoded.Len())
		}
		out := decoded.Instrs[0]
		for lane := range in.W {
			if out.W[lane] != in.W[lane] {
				t.Fatalf("lane %d differs after encode/decode of %q", lane, src)
			}
		}
		// Disassemble and reassemble: bits and text both fixed points.
		txt := out.Disassemble()
		back, err := format.Assemble(strings.NewReader(txt))
		if err != nil {
			t.Fatalf("decoded disassembly rejected: %v\n%s", err, txt)
		}
		for lane := range in.W {
			if back.W[lane] != in.W[lane] {
				t.Fatalf("lane %d differs after reassembly of %q", lane, src)
			}
		}
		if again := back.Disassemble(); again != txt {
			t.Fatalf("disassembly not a fixed point for %q:\n%s\nvs\n%s", src, txt, again)
		}
	})
}

// FuzzReadProgram feeds arbitrary bytes to the binary loader: errors,
// never panics, and every accepted program round-trips.
func FuzzReadProgram(f *testing.F) {
	fmt := MustFormat(arch.Default())
	good := NewProgram(fmt)
	in := fmt.NewInstr()
	in.SetFUOp(0, arch.OpAdd)
	in.SetSeq(Seq{Cond: CondHalt})
	good.Append(in)
	var buf bytes.Buffer
	if _, err := good.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("NSCM garbage"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadProgram(bytes.NewReader(data), fmt)
		if err != nil {
			return
		}
		var out bytes.Buffer
		if _, err := p.WriteTo(&out); err != nil {
			t.Fatalf("accepted program does not serialize: %v", err)
		}
		back, err := ReadProgram(&out, fmt)
		if err != nil || back.Len() != p.Len() {
			t.Fatalf("round trip failed: %v", err)
		}
	})
}
