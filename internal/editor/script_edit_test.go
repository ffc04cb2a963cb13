package editor

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/diagram"
)

// scriptCmd is one command of the vocabulary FuzzScriptEdit draws
// script lines from: a format and one argument letter per verb, 'n' an
// icon name (A, B or C), 'p' a pipeline index 0..2 and 'i' a number
// 0..7.
type scriptCmd struct{ format, args string }

// scriptVocab covers every command but undo and redo. Lines fail
// before the undo mark (an unknown name, a checker veto, a missing
// pipeline, a misspelt argument) and after it (a duplicate icon name, a
// bad DMA direction, a missing wire, a compare on a non-reducing unit).
// Lines are appended, never inserted, so the seeds keep their meaning.
var scriptVocab = []scriptCmd{
	{"doc d%d", "i"},
	{"var v%d plane=%d base=0 len=64", "ii"},
	{"place memplane %s at %d 1 plane=%d", "nii"},
	{"place singlet %s at %d 2", "ni"},
	{"place triplet %s at %d 3", "ni"},
	{"place sdu %s at %d 4", "ni"},
	{"move %s to %d %d", "nii"},
	{"delete %s", "n"},
	{"connect %s.rd -> %s.u0.a", "nn"},
	{"connect %s.u0.o -> %s.wr", "nn"},
	{"connect %s.rd -> %s.in", "nn"},
	{"disconnect %s.u0.a", "n"},
	{"op %s.u0 add reduce init=0", "n"},
	{"op %s.u0 mul constb=%d", "ni"},
	{"dma %s rd var=v%d stride=1 count=%d", "nii"},
	{"dma %s xx count=4", "n"},
	{"taps %s 1 %d", "ni"},
	{"compare %s.u0 lt 0.5 flag=1", "n"},
	{"irq on", ""},
	{"irq off", ""},
	{"flow label=l%d pipe=%d cond=halt", "ip"},
	{"pipe new p%d", "i"},
	{"pipe %d", "p"},
	{"pipe copy %d", "p"},
	{"pipe move %d %d", "pp"},
	{"pipe delete %d", "p"},
	{"check", ""},
	{"bogus %d", "i"},
	{"# note", ""},
	{"place memplane %s at %d 1 plnae=%d", "nii"},
	{"connect %s.rd -> %s.u0.a dealy=%d", "nni"},
	{"op %s.u0 add constb=2 reduec", "n"},
	{"dma %s rd var=v%d count=64 cuont=%d", "nii"},
}

// scriptFromBytes deals a session from the fuzz input. The first byte
// says how many lines (0..3) set the editors up and whether an undo
// follows them, so a script can meet a non-empty redo stack; the
// script is every line after those, at most 32. Each line takes one
// byte for its command and one per argument; exhausted input ends the
// script.
func scriptFromBytes(data []byte) (setup []string, undoAfter bool, script []string) {
	r := &fuzzBytes{d: data}
	ctl := r.next()
	for len(script) < 32 && r.i < len(r.d) {
		c := scriptVocab[int(r.next())%len(scriptVocab)]
		vals := make([]any, len(c.args))
		for k, a := range c.args {
			b := r.next()
			switch a {
			case 'n':
				vals[k] = string("ABC"[b%3])
			case 'p':
				vals[k] = int(b % 3)
			default:
				vals[k] = int(b % 8)
			}
		}
		script = append(script, fmt.Sprintf(c.format, vals...))
	}
	k := min(int(ctl%4), len(script))
	return script[:k], ctl&4 != 0, script[k:]
}

// fuzzBytes deals bytes from the fuzz input; exhausted input reads as
// zero.
type fuzzBytes struct {
	d []byte
	i int
}

func (r *fuzzBytes) next() byte {
	if r.i >= len(r.d) {
		return 0
	}
	b := r.d[r.i]
	r.i++
	return b
}

// FuzzScriptEdit pins ExecScript's one-edit rule against the same
// lines entered one at a time through Exec on a twin editor: both
// stop at the same line with the same document, which loads back and
// checks to the same findings after Save and Load. When the twin's undo
// stack grew, the script pushed exactly one entry: one Undo gives the
// pre-script bytes, Redo the post-script bytes, and after a second
// Undo the next place gives the bytes it gives on an editor opened on
// the pre-script document. When the twin's stack did not grow, the
// script left the document and both of its own stacks as they were.
func FuzzScriptEdit(f *testing.F) {
	f.Add([]byte{})
	// place A; move A; doc d1.
	f.Add([]byte{0, 3, 0, 1, 6, 0, 2, 3, 0, 1})
	// place A, B; place A fails after its mark; place C never runs.
	f.Add([]byte{0, 3, 0, 1, 3, 1, 2, 3, 0, 4, 3, 2, 5})
	// Set up A and B, undo B; the script's first edit fails after its
	// mark, so the redo stack must survive it.
	f.Add([]byte{6, 3, 0, 1, 3, 1, 2, 3, 0, 3, 3, 2, 4})
	// place A; pipe copy 0; pipe move 0 1; move A; pipe delete 0;
	// pipe new p1; pipe 0.
	f.Add([]byte{0, 3, 0, 1, 23, 0, 24, 0, 1, 6, 0, 1, 1, 25, 0, 21, 1, 22, 0})
	// Set up A, B and delete B, the highest icon; the script places C
	// and deletes it, the highest icon again.
	f.Add([]byte{3, 3, 0, 1, 3, 1, 2, 7, 1, 3, 2, 3, 7, 2})
	// Memory plane, variable and DMA; a bad DMA direction fails after
	// its mark.
	f.Add([]byte{0, 2, 0, 1, 0, 1, 0, 0, 14, 0, 0, 4, 15, 0})
	// A disconnect with no wire fails after its mark.
	f.Add([]byte{0, 3, 0, 1, 11, 0})
	// A compare on a non-reducing unit fails after its mark.
	f.Add([]byte{0, 3, 0, 1, 13, 0, 2, 17, 0})
	// Wires, an SDU with taps, a reduction, irq, flow and check.
	f.Add([]byte{0, 2, 0, 1, 0, 3, 1, 2, 5, 2, 3, 8, 0, 1, 10, 0, 2, 16, 2, 3, 12, 1, 18, 20, 0, 0, 26, 19, 28})
	// Set up A and undo it; a script that edits nothing keeps the redo.
	f.Add([]byte{5, 3, 0, 1, 26, 22, 0, 28})
	// Memory plane A, singlet B and variable v0; the script's first
	// line, a legal wire with its delay misspelt, fails before its mark,
	// so the script makes no edit.
	f.Add([]byte{3, 2, 0, 1, 0, 3, 1, 2, 1, 0, 0, 30, 0, 1, 4, 31, 1, 32, 0, 0, 8, 29, 2, 1, 1})

	inv := arch.MustInventory(arch.Default())
	f.Fuzz(func(t *testing.T, data []byte) {
		setup, undoAfter, script := scriptFromBytes(data)
		se, tw := New(inv, "test"), New(inv, "test")
		for _, e := range []*Editor{se, tw} {
			for _, line := range setup {
				_, _ = e.Exec(line)
			}
			if undoAfter {
				_, _ = e.Exec("undo")
			}
		}
		pre := saved(t, se)
		undo0, redo0 := slices.Clone(se.undo), slices.Clone(se.redo)
		twinUndo := len(tw.undo)

		_, err := se.ExecScript(strings.NewReader(strings.Join(script, "\n")))
		var twinErr error
		for i, line := range script {
			if _, err := tw.Exec(line); err != nil {
				twinErr = fmt.Errorf("line %d: %w", i+1, err)
				break
			}
		}
		if fmt.Sprint(err) != fmt.Sprint(twinErr) {
			t.Fatalf("script error %v, line by line %v", err, twinErr)
		}
		post := saved(t, se)
		if post != saved(t, tw) {
			t.Fatal("the script and its lines one at a time built different documents")
		}
		loaded, err := diagram.Load(strings.NewReader(post))
		if err != nil {
			t.Fatalf("Load refuses the document the editor built: %v", err)
		}
		if built, back := se.Chk.CheckDocument(se.Doc), se.Chk.CheckDocument(loaded); !reflect.DeepEqual(built, back) {
			t.Fatalf("findings change across Save and Load:\n%v\n%v", built, back)
		}

		if len(tw.undo) == twinUndo {
			if post != pre || !slices.Equal(se.undo, undo0) || !slices.Equal(se.redo, redo0) {
				t.Fatal("a script that made no edit changed the document or the undo history")
			}
			return
		}
		if len(se.undo) != len(undo0)+1 || len(se.redo) != 0 {
			t.Fatalf("the script left %d undo and %d redo entries, want %d and 0",
				len(se.undo), len(se.redo), len(undo0)+1)
		}
		for _, step := range []struct {
			name string
			do   func() error
			want string
		}{{"undo", se.Undo, pre}, {"redo", se.Redo, post}, {"second undo", se.Undo, pre}} {
			if err := step.do(); err != nil {
				t.Fatalf("%s: %v", step.name, err)
			}
			if saved(t, se) != step.want {
				t.Fatalf("%s did not restore the document", step.name)
			}
		}
		doc, err := diagram.Load(strings.NewReader(pre))
		if err != nil {
			t.Fatal(err)
		}
		fresh := Open(inv, doc)
		if err := fresh.Jump(se.CurrentIndex()); err != nil {
			t.Fatal(err)
		}
		const place = "place singlet N at 9 9"
		_, err = se.Exec(place)
		_, freshErr := fresh.Exec(place)
		if fmt.Sprint(err) != fmt.Sprint(freshErr) || saved(t, se) != saved(t, fresh) {
			t.Fatalf("place after undo: %v and %v, or different documents, from the same pre-script bytes",
				err, freshErr)
		}
	})
}

// TestScriptIsOneEdit: an undo or redo line inside a script ends the
// current edit and the next changing line starts another; a script
// that fails midway keeps its entry, which reverts the lines before
// the failure.
func TestScriptIsOneEdit(t *testing.T) {
	for _, tc := range []struct {
		name   string
		setup  []string
		script string
		// fails is the failing line, 0 for none.
		fails int
		// icons lists pipeline 0's icons after the script, and each
		// undos entry its icons after one more Undo, until the undo
		// stack is empty.
		icons string
		undos []string
	}{
		{name: "undo ends the edit",
			script: "place singlet A at 1 1\nplace singlet B at 2 2\nundo\nplace singlet C at 3 3",
			icons:  "C", undos: []string{""}},
		{name: "redo ends the edit",
			setup:  []string{"place singlet A at 1 1", "undo"},
			script: "redo\nplace singlet B at 2 2\nplace singlet C at 3 3",
			icons:  "A B C", undos: []string{"A", ""}},
		{name: "fails midway",
			setup:  []string{"place singlet A at 1 1"},
			script: "place singlet B at 2 2\nmove B to 3 3\nplace singlet A at 9 9\nplace singlet C at 4 4",
			fails:  3, icons: "A B", undos: []string{"A", ""}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEd(t)
			execAll(t, e, tc.setup...)
			_, err := e.ExecScript(strings.NewReader(tc.script))
			if want := fmt.Sprintf("line %d:", tc.fails); tc.fails == 0 && err != nil ||
				tc.fails != 0 && (err == nil || !strings.HasPrefix(err.Error(), want)) {
				t.Fatalf("script error %v, want failing line %d", err, tc.fails)
			}
			if got := iconNames(e); got != tc.icons {
				t.Fatalf("icons after the script %q, want %q", got, tc.icons)
			}
			for i, want := range tc.undos {
				if err := e.Undo(); err != nil {
					t.Fatalf("undo %d: %v", i+1, err)
				}
				if got := iconNames(e); got != want {
					t.Errorf("icons after undo %d %q, want %q", i+1, got, want)
				}
			}
			if e.Undo() == nil {
				t.Errorf("history holds more than %d entries", len(tc.undos))
			}
		})
	}
}

// iconNames lists pipeline 0's icon names in order.
func iconNames(e *Editor) string {
	var names []string
	for _, ic := range e.Doc.Pipes[0].Icons {
		names = append(names, ic.Name)
	}
	return strings.Join(names, " ")
}
