package microcode

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/arch"
)

func defFormat(t testing.TB) *Format {
	t.Helper()
	f, err := NewFormat(arch.Default())
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFormatWidthClaim(t *testing.T) {
	f := defFormat(t)
	// §3: "a few thousand bits of information per instruction".
	if f.Bits < 2000 || f.Bits > 8000 {
		t.Errorf("instruction width = %d bits; paper claims a few thousand", f.Bits)
	}
	// "encoded in dozens of separate fields": our flat field count is
	// in the hundreds; the hierarchical group count is the "dozens".
	if f.NumFields() < 100 {
		t.Errorf("only %d fields; expected hundreds at flat granularity", f.NumFields())
	}
	if groups := len(f.FieldGroups()); groups < 5 || groups > 50 {
		t.Errorf("%d field groups; expected a handful-to-dozens", groups)
	}
}

func TestFieldsContiguousAndDisjoint(t *testing.T) {
	f := defFormat(t)
	off := 0
	for _, fl := range f.Fields {
		if fl.Offset != off {
			t.Fatalf("field %s at offset %d, expected %d (gap or overlap)", fl.Name, fl.Offset, off)
		}
		if fl.Width <= 0 || fl.Width > 64 {
			t.Fatalf("field %s has width %d", fl.Name, fl.Width)
		}
		off += fl.Width
	}
	if off != f.Bits {
		t.Fatalf("fields cover %d bits, format says %d", off, f.Bits)
	}
	if f.WordsPerInstr != (f.Bits+63)/64 {
		t.Fatalf("WordsPerInstr = %d for %d bits", f.WordsPerInstr, f.Bits)
	}
}

func TestFieldByName(t *testing.T) {
	f := defFormat(t)
	if _, ok := f.FieldByName("fu0.op"); !ok {
		t.Error("fu0.op not found")
	}
	if _, ok := f.FieldByName("seq.next"); !ok {
		t.Error("seq.next not found")
	}
	if _, ok := f.FieldByName("no.such.field"); ok {
		t.Error("lookup of bogus field succeeded")
	}
}

func TestFormatRejectsBadConfig(t *testing.T) {
	c := arch.Default()
	c.TotalFUs = 7
	if _, err := NewFormat(c); err == nil {
		t.Error("NewFormat accepted invalid config")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustFormat should panic")
		}
	}()
	MustFormat(c)
}

// storedFormats reports how many Configs have a shared Format.
func storedFormats() int {
	formats.Lock()
	defer formats.Unlock()
	return len(formats.m)
}

// storedFormatFor returns the shared Format of cfg, if derived.
func storedFormatFor(cfg arch.Config) *Format {
	formats.Lock()
	defer formats.Unlock()
	return formats.m[cfg]
}

// TestFormatShared: equal Configs share one Format, a different Config
// gets its own, and an invalid Config, NaN clock included, errors on
// every call and is never stored.
func TestFormatShared(t *testing.T) {
	a, err := NewFormat(arch.Default())
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := NewFormat(arch.Default()); b != a {
		t.Error("equal configs returned different formats")
	}
	if sub, _ := NewFormat(arch.Subset()); sub == a || sub.Bits >= a.Bits {
		t.Error("the subset config did not get a format of its own")
	}
	nan, mix := arch.Default(), arch.Default()
	nan.ClockHz = math.NaN()
	mix.Singlets++
	for _, bad := range []arch.Config{nan, mix} {
		before := storedFormats()
		for i := 0; i < 3; i++ {
			if f, err := NewFormat(bad); err == nil || f != nil {
				t.Errorf("call %d: invalid config returned %v, %v", i, f, err)
			}
		}
		if got := storedFormats(); got != before {
			t.Errorf("invalid config stored: %d formats, had %d", got, before)
		}
	}
}

// TestFormatFirstUseRace: goroutines racing on a Config's first use
// all get the one Format that is stored.
func TestFormatFirstUseRace(t *testing.T) {
	cfg := arch.Default()
	for cfg.ClockHz = 21e6; storedFormatFor(cfg) != nil; cfg.ClockHz++ {
		// find a Config nothing has derived yet
	}
	got := make([]*Format, 8)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i], _ = NewFormat(cfg)
		}()
	}
	close(start)
	wg.Wait()
	for i, f := range got {
		if f == nil || f != storedFormatFor(cfg) {
			t.Errorf("goroutine %d got %p, stored %p", i, f, storedFormatFor(cfg))
		}
	}
}

// Property: writing arbitrary values into arbitrary fields and reading
// them back is the identity, and does not disturb neighbouring fields.
func TestBitFieldRoundTripProperty(t *testing.T) {
	f := defFormat(t)
	rng := rand.New(rand.NewSource(42))
	w := f.NewWord()
	// Shadow model: expected value per field.
	want := make([]uint64, len(f.Fields))
	for iter := 0; iter < 5000; iter++ {
		i := rng.Intn(len(f.Fields))
		fl := f.Fields[i]
		var v uint64
		if fl.Width == 64 {
			v = rng.Uint64()
		} else {
			v = rng.Uint64() & (1<<uint(fl.Width) - 1)
		}
		w.Set(fl, v)
		want[i] = v
		// Spot-check a few random fields against the shadow model.
		for k := 0; k < 4; k++ {
			j := rng.Intn(len(f.Fields))
			if got := w.Get(f.Fields[j]); got != want[j] {
				t.Fatalf("iter %d: field %s = %d, want %d (clobbered by write to %s)",
					iter, f.Fields[j].Name, got, want[j], fl.Name)
			}
		}
	}
	// Full final sweep.
	for j, fl := range f.Fields {
		if got := w.Get(fl); got != want[j] {
			t.Fatalf("final: field %s = %d, want %d", fl.Name, got, want[j])
		}
	}
}

func TestSetBitsOverflowPanics(t *testing.T) {
	f := defFormat(t)
	w := f.NewWord()
	fl, _ := f.FieldByName("fu0.op")
	defer func() {
		if recover() == nil {
			t.Error("overflowing value should panic")
		}
	}()
	w.Set(fl, 1<<uint(fl.Width))
}

func TestSignedFields(t *testing.T) {
	f := defFormat(t)
	w := f.NewWord()
	fl, _ := f.FieldByName("mem0.stride")
	for _, v := range []int64{0, 1, -1, 100, -100, 32767, -32768} {
		w.SetSigned(fl, v)
		if got := w.GetSigned(fl); got != v {
			t.Errorf("signed round-trip %d -> %d", v, got)
		}
	}
	for _, v := range []int64{32768, -32769} {
		func() {
			defer func() { recover() }()
			w.SetSigned(fl, v)
			t.Errorf("signed overflow %d did not panic", v)
		}()
	}
}

func TestFloatFields(t *testing.T) {
	f := defFormat(t)
	in := f.NewInstr()
	vals := []float64{0, 1, -1, math.Pi, 1e-300, math.Inf(1), math.Inf(-1)}
	for k, v := range vals {
		in.SetConst(k, v)
	}
	for k, v := range vals {
		if got := in.Const(k); got != v {
			t.Errorf("const %d = %g, want %g", k, got, v)
		}
	}
	in.SetConst(7, math.NaN())
	if !math.IsNaN(in.Const(7)) {
		t.Error("NaN did not survive round trip")
	}
	// SetFloat on a narrow field must panic.
	fl, _ := f.FieldByName("seq.next")
	defer func() {
		if recover() == nil {
			t.Error("SetFloat on narrow field should panic")
		}
	}()
	in.W.SetFloat(fl, 1.0)
}

func TestInstrRouting(t *testing.T) {
	cfg := arch.Default()
	f := MustFormat(cfg)
	in := f.NewInstr()
	// Fresh instruction: every sink undriven.
	for j := 0; j < cfg.NumSinks(); j++ {
		if in.SinkSource(arch.SinkID(j)) != arch.InvalidSource {
			t.Fatalf("sink %d driven in fresh instruction", j)
		}
	}
	snk := cfg.SnkFUIn(5, 0)
	src := cfg.SrcMemRead(3)
	in.Route(snk, src)
	if got := in.SinkSource(snk); got != src {
		t.Errorf("SinkSource = %v, want %v", got, src)
	}
	in.Unroute(snk)
	if in.SinkSource(snk) != arch.InvalidSource {
		t.Error("Unroute did not clear the sink")
	}
}

func TestInstrFUConfig(t *testing.T) {
	f := defFormat(t)
	in := f.NewInstr()
	in.SetFUOp(4, arch.OpMul)
	in.SetFUInput(4, 0, InSwitch, 0, 3)
	in.SetFUInput(4, 1, InConst, 5, 0)
	in.SetFUReduce(4, true, 2)
	if got := in.FUOp(4); got != arch.OpMul {
		t.Errorf("op = %v", got)
	}
	k, c, d := in.FUInput(4, 0)
	if k != InSwitch || c != 0 || d != 3 {
		t.Errorf("input A = %v,%d,%d", k, c, d)
	}
	k, c, d = in.FUInput(4, 1)
	if k != InConst || c != 5 || d != 0 {
		t.Errorf("input B = %v,%d,%d", k, c, d)
	}
	if en, init := in.FUReduce(4); !en || init != 2 {
		t.Errorf("reduce = %v,%d", en, init)
	}
	// Unconfigured neighbour unit untouched.
	if in.FUOp(5) != arch.OpNop {
		t.Error("fu5 disturbed")
	}
}

func TestInstrDMAAndSDU(t *testing.T) {
	f := defFormat(t)
	in := f.NewInstr()
	md := MemDMA{Enable: true, Write: false, Addr: 10000, Stride: -4, Count: 123456}
	in.SetMemDMA(3, md)
	if got := in.MemDMAOf(3); got != md {
		t.Errorf("mem DMA = %+v, want %+v", got, md)
	}
	if in.MemDMAOf(4).Enable {
		t.Error("mem4 disturbed")
	}
	cd := CacheDMA{Enable: true, Write: true, Buf: 1, Addr: 512, Stride: 2, Count: 100, Swap: true}
	in.SetCacheDMA(15, cd)
	if got := in.CacheDMAOf(15); got != cd {
		t.Errorf("cache DMA = %+v, want %+v", got, cd)
	}
	in.SetSDU(1, true, []int{1, 2, 64, 4096})
	en, taps := in.SDUOf(1)
	if !en {
		t.Error("sdu1 not enabled")
	}
	want := []int{1, 2, 64, 4096, 0, 0, 0, 0}
	for i := range want {
		if taps[i] != want[i] {
			t.Errorf("tap %d = %d, want %d", i, taps[i], want[i])
		}
	}
}

func TestInstrSeq(t *testing.T) {
	f := defFormat(t)
	in := f.NewInstr()
	s := Seq{Next: 7, Branch: 2, Cond: CondFlagSet, Flag: 3, IRQ: true,
		CmpEnable: true, CmpFU: 11, CmpConst: 6, CmpOp: CmpGE, CmpFlag: 3}
	in.SetSeq(s)
	if got := in.SeqOf(); got != s {
		t.Errorf("seq = %+v, want %+v", got, s)
	}
}

func TestInstrClone(t *testing.T) {
	f := defFormat(t)
	a := f.NewInstr()
	a.SetFUOp(0, arch.OpAdd)
	b := a.Clone()
	b.SetFUOp(0, arch.OpSub)
	if a.FUOp(0) != arch.OpAdd {
		t.Error("clone shares storage with original")
	}
}

func TestDisassembleMentionsConfiguredParts(t *testing.T) {
	cfg := arch.Default()
	f := MustFormat(cfg)
	in := f.NewInstr()
	in.Route(cfg.SnkFUIn(0, 0), cfg.SrcMemRead(2))
	in.SetFUOp(0, arch.OpAdd)
	in.SetFUInput(0, 0, InSwitch, 0, 0)
	in.SetFUInput(0, 1, InConst, 1, 0)
	in.SetConst(1, 0.25)
	in.SetMemDMA(2, MemDMA{Enable: true, Addr: 0, Stride: 1, Count: 10})
	in.SetSeq(Seq{Cond: CondHalt})
	txt := in.Disassemble()
	for _, want := range []string{"M2.rd", "FU0.a", "add", "const1 = 0.25", "mem2", "seq"} {
		if !contains(txt, want) {
			t.Errorf("disassembly missing %q:\n%s", want, txt)
		}
	}
	// An untouched instruction disassembles to just the sequencer line.
	empty := f.NewInstr().Disassemble()
	if contains(empty, "fu") || contains(empty, "mem") {
		t.Errorf("empty instruction disassembly not minimal:\n%s", empty)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// Property: format derivation is deterministic for arbitrary valid
// configs — the shared format equals a fresh derivation — and total
// width equals the sum of field widths.
func TestFormatDeterministicProperty(t *testing.T) {
	fn := func(t3, d2, s1, planes uint8) bool {
		c := arch.Default()
		c.Triplets = int(t3%4) + 1
		c.Doublets = int(d2 % 8)
		c.Singlets = int(s1 % 4)
		c.TotalFUs = c.Triplets*3 + c.Doublets*2 + c.Singlets
		c.MemPlanes = int(planes%16) + 1
		f1, err := NewFormat(c)
		if err != nil {
			return false
		}
		if !reflect.DeepEqual(f1, deriveFormat(c)) {
			return false
		}
		sum := 0
		for _, fl := range f1.Fields {
			sum += fl.Width
		}
		return sum == f1.Bits
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Error(err)
	}
}
