package microcode

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/arch"
)

// Assemble parses the textual microassembler dialect that Disassemble
// emits, turning "reams of textual microassembler code" (§6) back into
// instruction words. The NSC never had an assembly language; this one
// exists as the hand-coding baseline the visual environment is
// measured against.
//
// Accepted statements (one per line, '#' comments):
//
//	route <sink> <- <source>          e.g. route FU3.a <- M0.rd
//	fu<N> <op> a=<in> b=<in> [reduce(init=const<K>)]
//	const<K> = <float>
//	mem<P>  read|write addr=<A> stride=<S> count=<C> [skip=<K>] [start=<T>]
//	cache<P> read|write buf=<B> addr=<A> stride=<S> count=<C> [skip=<K>] [start=<T>] [swap]
//	sdu<U>  taps=[d0 d1 ...]
//	seq     next=<N> branch=<B> cond=<0..3> flag=<F> [irq] [cmp(fu<N> <op> const<K> -> flag<F>)]
//
// Operand syntax: "-" (none), "sw" (switch), "const<K>", "fb"
// (feedback); any may carry "+z<D>" for a register-file delay.
func (f *Format) Assemble(r io.Reader) (*Instr, error) {
	var lines []string
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return f.assemble(lines, 1)
}

// assemble builds one instruction from its listing lines, the first of
// which is line `first` of the input, so errors name the input line.
func (f *Format) assemble(lines []string, first int) (*Instr, error) {
	in := f.NewInstr()
	for i, line := range lines {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if err := f.asmLine(in, line); err != nil {
			return nil, fmt.Errorf("microcode: line %d: %w", first+i, err)
		}
	}
	return in, nil
}

func (f *Format) asmLine(in *Instr, line string) error {
	fields := strings.Fields(line)
	head := fields[0]
	switch {
	case head == "route":
		// route <sink> <- <source>
		if len(fields) != 4 || fields[2] != "<-" {
			return fmt.Errorf("route syntax: route <sink> <- <source>")
		}
		snk, err := f.parseSink(fields[1])
		if err != nil {
			return err
		}
		src, err := f.parseSource(fields[3])
		if err != nil {
			return err
		}
		in.Route(snk, src)
		return nil

	case strings.HasPrefix(head, "fu"):
		n, err := strconv.Atoi(head[2:])
		if err != nil || n < 0 || n >= f.Cfg.TotalFUs {
			return fmt.Errorf("bad unit %q", head)
		}
		if len(fields) < 2 {
			return fmt.Errorf("fu statement needs an op")
		}
		op, ok := arch.OpByName(fields[1])
		if !ok {
			return fmt.Errorf("unknown op %q", fields[1])
		}
		in.SetFUOp(arch.FUID(n), op)
		for _, tok := range fields[2:] {
			switch {
			case strings.HasPrefix(tok, "a="):
				if err := f.asmInput(in, arch.FUID(n), 0, tok[2:]); err != nil {
					return err
				}
			case strings.HasPrefix(tok, "b="):
				if err := f.asmInput(in, arch.FUID(n), 1, tok[2:]); err != nil {
					return err
				}
			case strings.HasPrefix(tok, "reduce(init=const") && strings.HasSuffix(tok, ")"):
				k, err := strconv.Atoi(tok[len("reduce(init=const") : len(tok)-1])
				if err != nil || k < 0 || k >= ConstPoolSize {
					return fmt.Errorf("bad reduce init %q", tok)
				}
				in.SetFUReduce(arch.FUID(n), true, k)
			default:
				return fmt.Errorf("unknown fu token %q", tok)
			}
		}
		return nil

	case strings.HasPrefix(head, "const"):
		// const<K> = <float>
		k, err := strconv.Atoi(head[5:])
		if err != nil || k < 0 || k >= ConstPoolSize {
			return fmt.Errorf("bad constant slot %q", head)
		}
		if len(fields) != 3 || fields[1] != "=" {
			return fmt.Errorf("const syntax: const<K> = <value>")
		}
		v, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return err
		}
		in.SetConst(k, v)
		return nil

	case strings.HasPrefix(head, "mem"):
		p, err := strconv.Atoi(head[3:])
		if err != nil || p < 0 || p >= f.Cfg.MemPlanes {
			return fmt.Errorf("bad plane %q", head)
		}
		d := MemDMA{Enable: true}
		var start int64
		if err := asmKV(fields[1:], &d.Write, nil, map[string]*int64{
			"addr": &d.Addr, "stride": &d.Stride, "count": &d.Count, "skip": &d.Skip, "start": &start,
		}); err != nil {
			return err
		}
		if err := errors.Join(
			fits(f.memAddr[p], d.Addr),
			fitsSigned(f.memStrd[p], d.Stride),
			fits(f.memCnt[p], d.Count),
			fits(f.memSkip[p], d.Skip),
			fits(f.memStrt[p], start),
		); err != nil {
			return err
		}
		d.Start = int(start)
		in.SetMemDMA(p, d)
		return nil

	case strings.HasPrefix(head, "cache"):
		p, err := strconv.Atoi(head[5:])
		if err != nil || p < 0 || p >= f.Cfg.CachePlanes {
			return fmt.Errorf("bad cache %q", head)
		}
		d := CacheDMA{Enable: true}
		var buf, start int64
		if err := asmKV(fields[1:], &d.Write, &d.Swap, map[string]*int64{
			"buf": &buf, "addr": &d.Addr, "stride": &d.Stride, "count": &d.Count, "skip": &d.Skip, "start": &start,
		}); err != nil {
			return err
		}
		if err := errors.Join(
			fits(f.cchBuf[p], buf),
			fits(f.cchAddr[p], d.Addr),
			fitsSigned(f.cchStrd[p], d.Stride),
			fits(f.cchCnt[p], d.Count),
			fits(f.cchSkip[p], d.Skip),
			fits(f.cchStrt[p], start),
		); err != nil {
			return err
		}
		d.Buf, d.Start = int(buf), int(start)
		in.SetCacheDMA(p, d)
		return nil

	case strings.HasPrefix(head, "sdu"):
		u, err := strconv.Atoi(head[3:])
		if err != nil || u < 0 || u >= f.Cfg.ShiftDelayUnits {
			return fmt.Errorf("bad SDU %q", head)
		}
		rest := strings.TrimSpace(strings.TrimPrefix(line, head))
		if !strings.HasPrefix(rest, "taps=[") || !strings.HasSuffix(rest, "]") {
			return fmt.Errorf("sdu syntax: sdu<U> taps=[d0 d1 ...]")
		}
		var taps []int
		for _, tok := range strings.Fields(rest[len("taps=[") : len(rest)-1]) {
			v, err := strconv.Atoi(tok)
			if err != nil {
				return fmt.Errorf("bad tap %q", tok)
			}
			if t := len(taps); t < len(f.sduTap[u]) {
				if err := fits(f.sduTap[u][t], int64(v)); err != nil {
					return err
				}
			}
			taps = append(taps, v)
		}
		in.SetSDU(u, true, taps)
		return nil

	case head == "seq":
		s := in.SeqOf()
		rest := fields[1:]
		cond := int(s.Cond)
		nums := map[string]*int{"next": &s.Next, "branch": &s.Branch, "cond": &cond, "flag": &s.Flag, "loopctr": &s.Ctr}
		for i := 0; i < len(rest); i++ {
			tok := rest[i]
			key, val, hasVal := strings.Cut(tok, "=")
			switch {
			case hasVal && nums[key] != nil:
				v, err := strconv.Atoi(val)
				if err != nil {
					return fmt.Errorf("bad number in %q", tok)
				}
				*nums[key] = v
			case key == "irq":
				irq, err := asmFlag(tok, val, hasVal)
				if err != nil {
					return err
				}
				s.IRQ = irq
			case tok == "trap":
				s.Trap = true
			case strings.HasPrefix(tok, "ldctr(") && strings.HasSuffix(tok, ")"):
				var c, v int
				if !scan(tok, "ldctr(%d=%d)", &c, &v) {
					return fmt.Errorf("bad ldctr clause %q", tok)
				}
				s.Ctr, s.CtrLoad, s.CtrValue = c, true, int64(v)
			case strings.HasPrefix(tok, "cmp(fu"):
				// cmp(fu<N> <op> const<K> -> flag<F>) across 5 tokens.
				if i+4 >= len(rest) {
					return fmt.Errorf("truncated cmp clause")
				}
				n, err := strconv.Atoi(strings.TrimPrefix(tok, "cmp(fu"))
				if err != nil {
					return fmt.Errorf("bad cmp unit %q", tok)
				}
				s.CmpEnable = true
				s.CmpFU = arch.FUID(n)
				switch rest[i+1] {
				case "<":
					s.CmpOp = CmpLT
				case "<=":
					s.CmpOp = CmpLE
				case ">":
					s.CmpOp = CmpGT
				case ">=":
					s.CmpOp = CmpGE
				default:
					return fmt.Errorf("bad cmp operator %q", rest[i+1])
				}
				if !scan(rest[i+2], "const%d", &s.CmpConst) {
					return fmt.Errorf("bad cmp constant %q", rest[i+2])
				}
				if rest[i+3] != "->" {
					return fmt.Errorf("cmp syntax: cmp(fuN < constK -> flagF)")
				}
				if !scan(rest[i+4], "flag%d)", &s.CmpFlag) {
					return fmt.Errorf("bad cmp flag %q", rest[i+4])
				}
				i += 4
			default:
				return fmt.Errorf("unknown seq token %q", tok)
			}
		}
		s.Cond = uint64(cond)
		if err := errors.Join(
			fits(f.seqNext, int64(s.Next)),
			fits(f.seqBranch, int64(s.Branch)),
			fits(f.seqCond, int64(cond)),
			fits(f.seqFlag, int64(s.Flag)),
			fits(f.seqCtr, int64(s.Ctr)),
			fits(f.seqCtrVal, s.CtrValue),
			fits(f.cmpFU, int64(s.CmpFU)),
			fits(f.cmpConst, int64(s.CmpConst)),
			fits(f.cmpFlag, int64(s.CmpFlag)),
		); err != nil {
			return err
		}
		in.SetSeq(s)
		return nil
	}
	return fmt.Errorf("unknown statement %q", head)
}

// fits checks a parsed value against the width of the field it goes
// to. The Word setters panic on an overflow, which is the generator's
// programmer-error contract, so the assembler checks text first.
func fits(fl Field, v int64) error {
	if v < 0 || fl.Width < 64 && v >= 1<<uint(fl.Width) {
		return fmt.Errorf("%s=%d does not fit its %d-bit field", fl.Name, v, fl.Width)
	}
	return nil
}

// fitsSigned is fits for a two's-complement field.
func fitsSigned(fl Field, v int64) error {
	if lim := int64(1) << uint(fl.Width-1); v < -lim || v >= lim {
		return fmt.Errorf("%s=%d does not fit its signed %d-bit field", fl.Name, v, fl.Width)
	}
	return nil
}

// asmInput parses an operand descriptor: "-", "sw", "const<K>", "fb",
// optionally suffixed "+z<D>".
func (f *Format) asmInput(in *Instr, fu arch.FUID, side int, tok string) error {
	delay := 0
	if i := strings.Index(tok, "+z"); i >= 0 {
		d, err := strconv.Atoi(tok[i+2:])
		if err != nil {
			return fmt.Errorf("bad delay in %q", tok)
		}
		fl := f.fuADel[fu]
		if side == 1 {
			fl = f.fuBDel[fu]
		}
		if err := fits(fl, int64(d)); err != nil {
			return err
		}
		delay = d
		tok = tok[:i]
	}
	switch {
	case tok == "-":
		in.SetFUInput(fu, side, InNone, 0, delay)
	case tok == "sw":
		in.SetFUInput(fu, side, InSwitch, 0, delay)
	case tok == "fb":
		in.SetFUInput(fu, side, InFeedback, 0, delay)
	case strings.HasPrefix(tok, "const"):
		k, err := strconv.Atoi(tok[5:])
		if err != nil || k < 0 || k >= ConstPoolSize {
			return fmt.Errorf("bad constant operand %q", tok)
		}
		in.SetFUInput(fu, side, InConst, k, delay)
	default:
		return fmt.Errorf("bad operand %q", tok)
	}
	return nil
}

// parseSource resolves names like "M3.rd", "C1.rd", "SDU0.t2",
// "FU7.out" to switch source ports.
func (f *Format) parseSource(name string) (arch.SourceID, error) {
	c := f.Cfg
	var n, t int
	switch {
	case scan(name, "M%d.rd", &n) && n >= 0 && n < c.MemPlanes:
		return c.SrcMemRead(n), nil
	case scan(name, "C%d.rd", &n) && n >= 0 && n < c.CachePlanes:
		return c.SrcCacheRead(n), nil
	case scan(name, "SDU%d.t%d", &n, &t) && n >= 0 && n < c.ShiftDelayUnits && t >= 0 && t < c.SDUTaps:
		return c.SrcSDUTap(n, t), nil
	case scan(name, "FU%d.out", &n) && n >= 0 && n < c.TotalFUs:
		return c.SrcFUOut(arch.FUID(n)), nil
	}
	return arch.InvalidSource, fmt.Errorf("unknown source port %q", name)
}

// parseSink resolves names like "M3.wr", "C1.wr", "SDU0.in", "FU7.a".
func (f *Format) parseSink(name string) (arch.SinkID, error) {
	c := f.Cfg
	var n int
	switch {
	case scan(name, "M%d.wr", &n) && n >= 0 && n < c.MemPlanes:
		return c.SnkMemWrite(n), nil
	case scan(name, "C%d.wr", &n) && n >= 0 && n < c.CachePlanes:
		return c.SnkCacheWrite(n), nil
	case scan(name, "SDU%d.in", &n) && n >= 0 && n < c.ShiftDelayUnits:
		return c.SnkSDUIn(n), nil
	case scan(name, "FU%d.a", &n) && n >= 0 && n < c.TotalFUs:
		return c.SnkFUIn(arch.FUID(n), 0), nil
	case scan(name, "FU%d.b", &n) && n >= 0 && n < c.TotalFUs:
		return c.SnkFUIn(arch.FUID(n), 1), nil
	}
	return arch.InvalidSink, fmt.Errorf("unknown sink port %q", name)
}

// scan matches all of s against format, whose only verbs are %d, one
// per value: each %d takes a decimal in the form %d prints, so the
// parse reproduces the whole input and rejects trailing garbage.
func scan(s, format string, vals ...*int) bool {
	for _, v := range vals {
		lit, rest, _ := strings.Cut(format, "%d")
		var ok bool
		if s, ok = strings.CutPrefix(s, lit); !ok {
			return false
		}
		tail := strings.TrimLeft(s, "-0123456789")
		num := s[:len(s)-len(tail)]
		n, err := strconv.Atoi(num)
		if err != nil || strconv.Itoa(n) != num {
			return false
		}
		*v, s, format = n, tail, rest
	}
	return s == format
}

// AssembleProgram parses a multi-instruction listing using the
// "--- instr N ---" separators Disassemble emits.
func (f *Format) AssembleProgram(r io.Reader) (*Program, error) {
	prog := NewProgram(f)
	var cur []string
	first := 0 // input line of cur[0]; 0 before the first separator
	flush := func() error {
		if first == 0 {
			return nil
		}
		in, err := f.assemble(cur, first)
		if err != nil {
			return err
		}
		prog.Append(in)
		return nil
	}
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if strings.HasPrefix(strings.TrimSpace(line), "--- instr") {
			if err := flush(); err != nil {
				return nil, err
			}
			cur, first = nil, n+1
			continue
		}
		cur = append(cur, line)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := flush(); err != nil {
		return nil, err
	}
	if prog.Len() == 0 {
		return nil, fmt.Errorf("microcode: no instructions in listing")
	}
	return prog, nil
}

// asmKV reads the fields of a mem or cache statement: the direction
// read or write, a decimal for each key=value token into keys, and,
// where swap is not nil, a bare swap or swap=true|false. A key left
// out keeps its zero; a malformed value or any other token is an
// error naming the token.
func asmKV(fields []string, write, swap *bool, keys map[string]*int64) error {
	for _, tok := range fields {
		key, val, hasVal := strings.Cut(tok, "=")
		switch {
		case tok == "read" || tok == "write":
			*write = tok == "write"
		case hasVal && keys[key] != nil:
			v, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return fmt.Errorf("bad number in %q", tok)
			}
			*keys[key] = v
		case swap != nil && key == "swap":
			b, err := asmFlag(tok, val, hasVal)
			if err != nil {
				return err
			}
			*swap = b
		default:
			return fmt.Errorf("unknown token %q", tok)
		}
	}
	return nil
}

// asmFlag reads a flag token, bare or as flag=true|false, which is
// how Disassemble writes it.
func asmFlag(tok, val string, hasVal bool) (bool, error) {
	if !hasVal {
		return true, nil
	}
	b, err := strconv.ParseBool(val)
	if err != nil || val != strconv.FormatBool(b) {
		return false, fmt.Errorf("bad flag %q: want true or false", tok)
	}
	return b, nil
}
