package pipeline

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/checker"
	"repro/internal/diag"
	"repro/internal/diagram"
	"repro/internal/editor"
)

// storedScript builds the document every storedRows entry edits. Mu
// (icon 0) reads u; S (1) adds 1 to it; Z (2) passes it through tap 0
// to S2 (3), which adds 2 and writes v through Mv (4). Wires: 0 Mu→S,
// 1 Mu→Z, 2 Z→S2, 3 S2→Mv.
const storedScript = `doc stored
var u plane=0 base=0 len=16
var v plane=1 base=0 len=16
place memplane Mu at 1 2 plane=0
place singlet S at 20 2
place sdu Z at 20 8
place singlet S2 at 30 8
place memplane Mv at 40 8 plane=1
op S.u0 add constb=1
op S2.u0 add constb=2
taps Z 0
connect Mu.rd -> S.u0.a
connect Mu.rd -> Z.in
connect Z.t0 -> S2.u0.a
connect S2.u0.o -> Mv.wr
dma Mu rd var=u stride=1 count=16
dma Mv wr var=v stride=1 count=16
`

// storedRow is one edit to the saved storedScript document that the
// editor refuses. line makes the same edit through the editor for the
// rows the checker catches, and want is the rule both report; the rows
// Load catches leave line empty and want R039.
type storedRow struct {
	name string
	edit func(d *diagram.Document)
	line string
	want string
}

// storedRows lists the edits. Each changes one field of the saved
// document, or, for the shared icon ID, one field and the wires that
// name it.
func storedRows(cfg arch.Config) []storedRow {
	wire := func(i int, set func(w *diagram.Wire)) func(d *diagram.Document) {
		return func(d *diagram.Document) { set(d.Pipes[0].Wires[i]) }
	}
	icon := func(i int, set func(ic *diagram.Icon)) func(d *diagram.Document) {
		return func(d *diagram.Document) { set(d.Pipes[0].Icons[i]) }
	}
	pastEnd := cfg.PlaneWords() + 90 - 16
	return []storedRow{
		{"Z fed by S", wire(1, func(w *diagram.Wire) { w.From = diagram.PadRef{Icon: 1, Pad: "u0.o"} }),
			"connect S.u0.o -> Z.in", checker.RuleConnection},
		{"delayed write", wire(3, func(w *diagram.Wire) { w.Delay = 5 }),
			"connect S2.u0.o -> Mv.wr delay=5", checker.RuleConnection},
		{"delayed SDU input", wire(1, func(w *diagram.Wire) { w.Delay = 4 }),
			"connect Mu.rd -> Z.in delay=4", checker.RuleConnection},
		{"negative delay", wire(2, func(w *diagram.Wire) { w.Delay = -3 }), "", diag.RuleDocIO},
		{"input as source", wire(2, func(w *diagram.Wire) { w.From = diagram.PadRef{Icon: 4, Pad: "wr"} }), "", diag.RuleDocIO},
		{"two wires into one input", func(d *diagram.Document) {
			p := d.Pipes[0]
			p.Wires = append(p.Wires, &diagram.Wire{From: diagram.PadRef{Icon: 0, Pad: "rd"}, To: diagram.PadRef{Icon: 3, Pad: "u0.a"}})
		}, "", diag.RuleDocIO},
		{"absent pad", wire(2, func(w *diagram.Wire) { w.To.Pad = "u3.a" }), "", diag.RuleDocIO},
		{"DMA on a singlet", icon(1, func(ic *diagram.Icon) { ic.RdDMA = &diagram.DMASpec{Var: "u", Stride: 1, Count: 16} }),
			"dma S rd var=u stride=1 count=16", checker.RuleDMABounds},
		{"taps on a plane", icon(0, func(ic *diagram.Icon) { ic.Taps = []int{0} }),
			"taps Mu 0", checker.RuleTapCount},
		{"declaration past the plane", func(d *diagram.Document) { d.Decls[0].Base = pastEnd },
			fmt.Sprintf("var u plane=0 base=%d len=16", pastEnd), diag.RuleCapacity},
		{"duplicate name", icon(3, func(ic *diagram.Icon) { ic.Name = "S" }), "", diag.RuleDocIO},
		{"shared icon ID", func(d *diagram.Document) {
			p := d.Pipes[0]
			p.Icons[3].ID = 1
			p.Wires[2].To.Icon = 1
			p.Wires[3].From.Icon = 1
		}, "", diag.RuleDocIO},
	}
}

// storedEditor returns an editor holding the storedScript document.
func storedEditor(tb testing.TB, inv *arch.Inventory) *editor.Editor {
	tb.Helper()
	ed := editor.New(inv, "stored")
	if _, err := ed.ExecScript(strings.NewReader(storedScript)); err != nil {
		tb.Fatal(err)
	}
	return ed
}

// storedBytes saves the storedScript document with row's edit applied.
func storedBytes(tb testing.TB, inv *arch.Inventory, row storedRow) []byte {
	tb.Helper()
	ed := storedEditor(tb, inv)
	row.edit(ed.Doc)
	var buf bytes.Buffer
	if err := ed.Doc.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// ruleOf returns the rule code an error carries, "" for none.
func ruleOf(err error) string {
	var re *checker.RuleError
	switch {
	case err == nil:
		return ""
	case errors.As(err, &re):
		return re.Rule
	}
	return diag.AsDiagnostic(err, "").Rule
}

// TestStoredDocumentsMeetEditRules: a saved document edited into a
// shape the editor refuses fails to load with R039 or fails to compile
// with the rule the editor reports for the same edit.
func TestStoredDocumentsMeetEditRules(t *testing.T) {
	inv := arch.MustInventory(arch.Default())
	if _, err := New(inv).CompileDocument(storedEditor(t, inv).Doc); err != nil {
		t.Fatalf("the base document does not compile: %v", err)
	}
	for _, row := range storedRows(inv.Cfg) {
		t.Run(row.name, func(t *testing.T) {
			if row.line != "" {
				_, err := storedEditor(t, inv).Exec(row.line)
				if got := ruleOf(err); err == nil || got != row.want {
					t.Fatalf("the editor answers %q with %v (rule %q), want %s", row.line, err, got, row.want)
				}
			}
			doc, err := diagram.Load(bytes.NewReader(storedBytes(t, inv, row)))
			if row.line == "" {
				if got := ruleOf(err); got != diag.RuleDocIO {
					t.Fatalf("Load: %v (rule %q), want %s", err, got, diag.RuleDocIO)
				}
				return
			}
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			res, err := New(inv).CompileDocument(doc)
			var rules []string
			for _, d := range checker.Errors(res.Diags) {
				rules = append(rules, d.Rule)
			}
			if err == nil || !slices.Contains(rules, row.want) {
				t.Fatalf("compile: %v with error findings %v, want %s", err, rules, row.want)
			}
		})
	}
}
