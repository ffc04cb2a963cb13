package editor

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"repro/internal/arch"
	"repro/internal/diagram"
)

// Exec interprets one editor command line and logs it to the message
// strip. The command language is the scriptable equivalent of the
// prototype's mouse interaction; the mapping to the paper's figures:
//
//	place/move/delete      — Figure 6/7 (selecting and positioning icons)
//	connect/disconnect     — Figure 8 (rubber-band wiring)
//	dma                    — Figure 9 (cache/memory popup subwindow)
//	op                     — Figure 10 (function-unit popup menu)
//	pipe …                 — control-panel pipeline operations (§5)
//	var/flow               — the reserved left region of Figure 5
//	undo/redo/check        — editor services
//
// Exec returns a human-readable result line (shown in the message
// strip) or an error.
func (e *Editor) Exec(line string) (string, error) {
	line = strings.TrimSpace(line)
	if line == "" || strings.HasPrefix(line, "#") {
		return "", nil
	}
	fields := strings.Fields(line)
	cmd, args := fields[0], fields[1:]
	msg, err := e.exec1(cmd, args)
	ev := Event{Cmd: line}
	if err != nil {
		ev.Err = err.Error()
	}
	e.Log = append(e.Log, ev)
	return msg, err
}

func (e *Editor) exec1(cmd string, args []string) (string, error) {
	switch cmd {
	case "doc":
		if len(args) != 1 {
			return "", fmt.Errorf("usage: doc <name>")
		}
		e.mark()
		e.Doc.Name = args[0]
		return "document " + args[0], nil

	case "var":
		if len(args) < 2 {
			return "", fmt.Errorf("usage: var <name> plane=<p> base=<b> len=<l>")
		}
		kv, err := keyvals(args[1:], []string{"plane", "base", "len"}, nil)
		if err != nil {
			return "", err
		}
		v := diagram.VarDecl{Name: args[0]}
		if v.Plane, err = kv.intOr("plane", 0); err != nil {
			return "", err
		}
		base, err := kv.int64Or("base", 0)
		if err != nil {
			return "", err
		}
		length, err := kv.int64Or("len", 0)
		if err != nil {
			return "", err
		}
		v.Base, v.Len = base, length
		if err := e.Declare(v); err != nil {
			return "", err
		}
		return fmt.Sprintf("declared %s: plane %d, %d words at %d", v.Name, v.Plane, v.Len, v.Base), nil

	case "pipe":
		return e.execPipe(args)

	case "place":
		// place <kind> <name> at <x> <y> [plane=<p>]
		if len(args) < 5 || args[2] != "at" {
			return "", fmt.Errorf("usage: place <kind> <name> at <x> <y> [plane=<p>]")
		}
		kind, ok := diagram.KindByName(args[0])
		if !ok {
			return "", fmt.Errorf("unknown icon kind %q", args[0])
		}
		x, err := strconv.Atoi(args[3])
		if err != nil {
			return "", fmt.Errorf("x: %v", err)
		}
		y, err := strconv.Atoi(args[4])
		if err != nil {
			return "", fmt.Errorf("y: %v", err)
		}
		kv, err := keyvals(args[5:], []string{"plane"}, nil)
		if err != nil {
			return "", err
		}
		plane, err := kv.intOr("plane", 0)
		if err != nil {
			return "", err
		}
		if _, err := e.Place(kind, args[1], x, y, plane); err != nil {
			return "", err
		}
		return fmt.Sprintf("placed %s %q at (%d,%d)", kind, args[1], x, y), nil

	case "move":
		if len(args) != 4 || args[1] != "to" {
			return "", fmt.Errorf("usage: move <name> to <x> <y>")
		}
		x, err := strconv.Atoi(args[2])
		if err != nil {
			return "", err
		}
		y, err := strconv.Atoi(args[3])
		if err != nil {
			return "", err
		}
		if err := e.Move(args[0], x, y); err != nil {
			return "", err
		}
		return fmt.Sprintf("moved %s to (%d,%d)", args[0], x, y), nil

	case "delete":
		if len(args) != 1 {
			return "", fmt.Errorf("usage: delete <name>")
		}
		if err := e.Delete(args[0]); err != nil {
			return "", err
		}
		return "deleted " + args[0], nil

	case "connect":
		// connect <from> -> <to> [delay=<d>]
		if len(args) < 3 || args[1] != "->" {
			return "", fmt.Errorf("usage: connect <icon.pad> -> <icon.pad> [delay=<d>]")
		}
		kv, err := keyvals(args[3:], []string{"delay"}, nil)
		if err != nil {
			return "", err
		}
		delay, err := kv.intOr("delay", 0)
		if err != nil {
			return "", err
		}
		if err := e.Connect(args[0], args[2], delay); err != nil {
			return "", err
		}
		return fmt.Sprintf("connected %s -> %s", args[0], args[2]), nil

	case "disconnect":
		if len(args) != 1 {
			return "", fmt.Errorf("usage: disconnect <icon.pad>")
		}
		if err := e.Disconnect(args[0]); err != nil {
			return "", err
		}
		return "disconnected " + args[0], nil

	case "dma":
		// dma <name> rd|wr [var=<v>] [offset] [stride] count [skip] [buf] [swap]
		if len(args) < 3 {
			return "", fmt.Errorf("usage: dma <name> rd|wr var=<v> offset=<o> stride=<s> count=<c> [skip=<k>] [buf=<b>] [swap]")
		}
		kv, err := keyvals(args[2:], []string{"var", "offset", "stride", "count", "skip", "buf"}, []string{"swap"})
		if err != nil {
			return "", err
		}
		spec := diagram.DMASpec{Var: kv.strOr("var", "")}
		if spec.Offset, err = kv.int64Or("offset", 0); err != nil {
			return "", err
		}
		if spec.Stride, err = kv.int64Or("stride", 1); err != nil {
			return "", err
		}
		if spec.Count, err = kv.int64Or("count", 0); err != nil {
			return "", err
		}
		if spec.Skip, err = kv.int64Or("skip", 0); err != nil {
			return "", err
		}
		if spec.Buf, err = kv.intOr("buf", 0); err != nil {
			return "", err
		}
		spec.Swap = kv.flag("swap")
		if err := e.SetDMA(args[0], args[1], spec); err != nil {
			return "", err
		}
		return fmt.Sprintf("dma %s.%s programmed", args[0], args[1]), nil

	case "taps":
		if len(args) < 2 {
			return "", fmt.Errorf("usage: taps <name> <d0> <d1> ...")
		}
		taps := make([]int, 0, len(args)-1)
		for _, a := range args[1:] {
			v, err := strconv.Atoi(a)
			if err != nil {
				return "", fmt.Errorf("tap %q: %v", a, err)
			}
			taps = append(taps, v)
		}
		if err := e.SetTaps(args[0], taps); err != nil {
			return "", err
		}
		return fmt.Sprintf("taps %v on %s", taps, args[0]), nil

	case "op":
		// op <name>.u<slot> <op> [consta=<v>] [constb=<v>] [reduce] [init=<v>]
		if len(args) < 2 {
			return "", fmt.Errorf("usage: op <icon>.u<slot> <op> [consta=] [constb=] [reduce] [init=]")
		}
		icName, slot, err := splitUnit(args[0])
		if err != nil {
			return "", err
		}
		opName := args[1]
		op, ok := arch.OpByName(opName)
		if !ok {
			return "", fmt.Errorf("unknown operation %q", opName)
		}
		kv, err := keyvals(args[2:], []string{"consta", "constb", "init"}, []string{"reduce"})
		if err != nil {
			return "", err
		}
		u := diagram.UnitConfig{Op: op, Reduce: kv.flag("reduce")}
		if ca, ok, err := kv.floatOpt("consta"); err != nil {
			return "", err
		} else if ok {
			u.ConstA = &ca
		}
		if cb, ok, err := kv.floatOpt("constb"); err != nil {
			return "", err
		} else if ok {
			u.ConstB = &cb
		}
		if init, ok, err := kv.floatOpt("init"); err != nil {
			return "", err
		} else if ok {
			u.RedInit = init
		}
		if err := e.SetOp(icName, slot, u); err != nil {
			return "", err
		}
		return fmt.Sprintf("%s unit %d performs %s", icName, slot, opName), nil

	case "compare":
		// compare <name>.u<slot> <lt|le|gt|ge> <threshold> flag=<f>
		if len(args) < 3 {
			return "", fmt.Errorf("usage: compare <icon>.u<slot> <lt|le|gt|ge> <threshold> [flag=<f>]")
		}
		icName, slot, err := splitUnit(args[0])
		if err != nil {
			return "", err
		}
		th, err := strconv.ParseFloat(args[2], 64)
		if err != nil {
			return "", fmt.Errorf("threshold: %v", err)
		}
		kv, err := keyvals(args[3:], []string{"flag"}, nil)
		if err != nil {
			return "", err
		}
		flag, err := kv.intOr("flag", 0)
		if err != nil {
			return "", err
		}
		if err := e.SetCompare(icName, slot, args[1], th, flag); err != nil {
			return "", err
		}
		return fmt.Sprintf("compare %s.u%d %s %g -> flag %d", icName, slot, args[1], th, flag), nil

	case "irq":
		if len(args) != 1 || (args[0] != "on" && args[0] != "off") {
			return "", fmt.Errorf("usage: irq on|off")
		}
		e.mark()
		e.Current().IRQ = args[0] == "on"
		return "irq " + args[0], nil

	case "flow":
		// flow [label=<l>] pipe=<n> [cond=always|set|clear|halt] [flag=<f>] [next=<l>] [branch=<l>]
		kv, err := keyvals(args, []string{"label", "pipe", "cond", "flag", "ctr", "loadctr", "next", "branch"}, nil)
		if err != nil {
			return "", err
		}
		op := diagram.FlowOp{Label: kv.strOr("label", "")}
		if op.Pipe, err = kv.intOr("pipe", -1); err != nil {
			return "", err
		}
		switch kv.strOr("cond", "always") {
		case "always":
			op.Cond = diagram.CondAlways
		case "set":
			op.Cond = diagram.CondFlagSet
		case "clear":
			op.Cond = diagram.CondFlagClear
		case "halt":
			op.Cond = diagram.CondHalt
		case "loop":
			op.Cond = diagram.CondLoop
		default:
			return "", fmt.Errorf("unknown cond %q", kv.strOr("cond", ""))
		}
		if op.Flag, err = kv.intOr("flag", 0); err != nil {
			return "", err
		}
		if op.Ctr, err = kv.intOr("ctr", 0); err != nil {
			return "", err
		}
		if v, err := kv.int64Or("loadctr", -1); err != nil {
			return "", err
		} else if v >= 0 {
			op.CtrLoad = true
			op.CtrValue = v
		}
		op.Next = kv.strOr("next", "")
		op.Branch = kv.strOr("branch", "")
		if err := e.AddFlow(op); err != nil {
			return "", err
		}
		return fmt.Sprintf("flow op %d added", len(e.Doc.Flow)-1), nil

	case "undo":
		if err := e.Undo(); err != nil {
			return "", err
		}
		return "undone", nil

	case "redo":
		if err := e.Redo(); err != nil {
			return "", err
		}
		return "redone", nil

	case "check":
		diags := e.Check()
		if len(diags) == 0 {
			return "check: clean", nil
		}
		var sb strings.Builder
		fmt.Fprintf(&sb, "check: %d finding(s)", len(diags))
		for _, d := range diags {
			sb.WriteString("\n  " + d.String())
		}
		return sb.String(), nil

	default:
		return "", fmt.Errorf("unknown command %q", cmd)
	}
}

func (e *Editor) execPipe(args []string) (string, error) {
	if len(args) == 0 {
		return "", fmt.Errorf("usage: pipe new <label> | pipe <n> | pipe copy <n> | pipe delete <n>")
	}
	switch args[0] {
	case "new":
		label := "pipe"
		if len(args) > 1 {
			label = args[1]
		}
		p := e.NewPipeline(label)
		return fmt.Sprintf("pipeline %d (%s)", p.ID, p.Label), nil
	case "copy":
		if len(args) != 2 {
			return "", fmt.Errorf("usage: pipe copy <n>")
		}
		n, err := strconv.Atoi(args[1])
		if err != nil {
			return "", err
		}
		p, err := e.CopyPipeline(n)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("pipeline %d copied to %d", n, p.ID), nil
	case "move":
		if len(args) != 3 {
			return "", fmt.Errorf("usage: pipe move <from> <to>")
		}
		from, err1 := strconv.Atoi(args[1])
		to, err2 := strconv.Atoi(args[2])
		if err1 != nil || err2 != nil {
			return "", fmt.Errorf("usage: pipe move <from> <to>")
		}
		if err := e.MovePipeline(from, to); err != nil {
			return "", err
		}
		return fmt.Sprintf("pipeline %d renumbered to %d", from, to), nil
	case "delete":
		if len(args) != 2 {
			return "", fmt.Errorf("usage: pipe delete <n>")
		}
		n, err := strconv.Atoi(args[1])
		if err != nil {
			return "", err
		}
		if err := e.DeletePipeline(n); err != nil {
			return "", err
		}
		return fmt.Sprintf("pipeline %d deleted", n), nil
	default:
		n, err := strconv.Atoi(args[0])
		if err != nil {
			return "", fmt.Errorf("usage: pipe <n>")
		}
		if err := e.Jump(n); err != nil {
			return "", err
		}
		return fmt.Sprintf("showing pipeline %d", n), nil
	}
}

// ExecScript runs a whole command script (one command per line, '#'
// comments) as one edit: the first line that changes the document
// pushes one undo entry, the document as it stood before the script,
// and later lines push none, so one Undo reverts the whole script. An
// undo or redo line ends that edit, and the next changing line starts
// another. Every line is still checked as it is entered. ExecScript
// stops at the first error, leaving the lines before it applied and
// undoable, and returns the message-strip events generated.
func (e *Editor) ExecScript(r io.Reader) ([]Event, error) {
	e.scripting = true
	defer func() { e.scripting, e.scriptMarked = false, false }()
	start := len(e.Log)
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		if _, err := e.Exec(sc.Text()); err != nil {
			return e.Log[start:], fmt.Errorf("line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return e.Log[start:], err
	}
	return e.Log[start:], nil
}

// splitUnit parses "name.u<slot>".
func splitUnit(ref string) (string, int, error) {
	i := strings.LastIndex(ref, ".u")
	if i <= 0 || i+2 >= len(ref) {
		return "", 0, fmt.Errorf("editor: %q is not <icon>.u<slot>", ref)
	}
	slot, err := strconv.Atoi(ref[i+2:])
	if err != nil {
		return "", 0, fmt.Errorf("editor: unit slot in %q: %v", ref, err)
	}
	return ref[:i], slot, nil
}

// kvargs holds a command's checked key=value and flag arguments.
type kvargs []string

// keyvals checks a command's optional arguments against the ones it
// takes: each is key=value for a name in keys or a bare name in flags.
// It refuses an unknown name, a name given twice, a key with no value
// and a flag given one, so a misspelt argument is an error rather than
// silently dropped.
func keyvals(args, keys, flags []string) (kvargs, error) {
	for i, a := range args {
		name, val, hasVal := strings.Cut(a, "=")
		switch {
		case !slices.Contains(keys, name) && !slices.Contains(flags, name):
			return nil, fmt.Errorf("unknown argument %q", a)
		case slices.Contains(keys, name) && val == "":
			return nil, fmt.Errorf("%s needs a value", name)
		case slices.Contains(flags, name) && hasVal:
			return nil, fmt.Errorf("%s is a flag and takes no value", name)
		case slices.ContainsFunc(args[:i], func(b string) bool { n, _, _ := strings.Cut(b, "="); return n == name }):
			return nil, fmt.Errorf("%s given twice", name)
		}
	}
	return kvargs(args), nil
}

// value returns the value of key name, if given.
func (kv kvargs) value(name string) (string, bool) {
	for _, a := range kv {
		if k, v, ok := strings.Cut(a, "="); ok && k == name {
			return v, true
		}
	}
	return "", false
}

func (kv kvargs) flag(name string) bool { return slices.Contains(kv, name) }
func (kv kvargs) strOr(name, d string) string {
	if v, ok := kv.value(name); ok {
		return v
	}
	return d
}

func (kv kvargs) intOr(name string, d int) (int, error) {
	v, ok := kv.value(name)
	if !ok {
		return d, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("%s: %v", name, err)
	}
	return n, nil
}

func (kv kvargs) int64Or(name string, d int64) (int64, error) {
	v, ok := kv.value(name)
	if !ok {
		return d, nil
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%s: %v", name, err)
	}
	return n, nil
}

func (kv kvargs) floatOpt(name string) (float64, bool, error) {
	v, ok := kv.value(name)
	if !ok {
		return 0, false, nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, false, fmt.Errorf("%s: %v", name, err)
	}
	return f, true, nil
}
