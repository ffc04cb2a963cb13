package checker

import (
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/diagram"
)

// ruleCase is one documented-rule trigger: a minimal diagram
// construction whose check provably emits the rule.
type ruleCase struct {
	severity Severity
	build    func(t *testing.T, c *Checker) []Diagnostic
}

// ruleCoverage holds one trigger per documented rule in the R010–R024
// block. TestRuleCoverage cross-checks this table against the rule
// constants declared in checker.go, so adding a rule without a trigger
// here fails the build.
var ruleCoverage = map[string]ruleCase{
	RuleCycle: {Error, func(t *testing.T, c *Checker) []Diagnostic {
		d := diagram.NewDocument("x")
		p := d.AddPipeline("p")
		a, _ := p.AddIcon(diagram.IconSinglet, "A", 0, 0)
		b, _ := p.AddIcon(diagram.IconSinglet, "B", 0, 0)
		a.Units[0] = diagram.UnitConfig{Op: arch.OpMov}
		b.Units[0] = diagram.UnitConfig{Op: arch.OpMov}
		mustConnect(t, p, a.ID, "u0.o", b.ID, "u0.a", 0)
		mustConnect(t, p, b.ID, "u0.o", a.ID, "u0.a", 0)
		return pipeDiags(c, d, p)
	}},
	RuleUnconnected: {Error, func(t *testing.T, c *Checker) []Diagnostic {
		d, p := buildAXPY(t)
		db, _ := p.IconByName("D1")
		if err := p.Disconnect(diagram.PadRef{Icon: db.ID, Pad: "u1.b"}); err != nil {
			t.Fatal(err)
		}
		return pipeDiags(c, d, p)
	}},
	RuleMissingDMA: {Error, func(t *testing.T, c *Checker) []Diagnostic {
		d, p := buildAXPY(t)
		mu, _ := p.IconByName("Mu")
		mu.RdDMA = nil
		return pipeDiags(c, d, p)
	}},
	RuleCountSkew: {Error, func(t *testing.T, c *Checker) []Diagnostic {
		d, p := buildAXPY(t)
		mw, _ := p.IconByName("Mw")
		mw.RdDMA.Count = 999
		return pipeDiags(c, d, p)
	}},
	RuleUnusedIcon: {Warning, func(t *testing.T, c *Checker) []Diagnostic {
		d, p := buildAXPY(t)
		if _, err := p.AddIcon(diagram.IconSinglet, "lonely", 0, 0); err != nil {
			t.Fatal(err)
		}
		return pipeDiags(c, d, p)
	}},
	RuleConstConfl: {Error, func(t *testing.T, c *Checker) []Diagnostic {
		d, p := buildAXPY(t)
		db, _ := p.IconByName("D1")
		v := 1.0
		db.Units[1].ConstB = &v
		return pipeDiags(c, d, p)
	}},
	RuleCompareSpec: {Error, func(t *testing.T, c *Checker) []Diagnostic {
		d, p := buildAXPY(t)
		sg, _ := p.IconByName("R1")
		p.Compare = &diagram.CompareSpec{Icon: sg.ID, Slot: 0, Op: "approx", Threshold: 1e-6, Flag: 1}
		return pipeDiags(c, d, p)
	}},
	RuleHWDelay: {Error, func(t *testing.T, c *Checker) []Diagnostic {
		// Chain high-latency divides on one side of a join so the other
		// side's balancing delay exceeds the register file.
		d := diagram.NewDocument("x")
		p := d.AddPipeline("p")
		m, _ := p.AddIcon(diagram.IconMemPlane, "M", 0, 0)
		m.RdDMA = &diagram.DMASpec{Stride: 1, Count: 100}
		prev := diagram.PadRef{Icon: m.ID, Pad: "rd"}
		for i := 0; i < 6; i++ {
			sg, err := p.AddIcon(diagram.IconSinglet, "S"+strings.Repeat("x", i+1), 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			one := 1.0
			sg.Units[0] = diagram.UnitConfig{Op: arch.OpDiv, ConstB: &one}
			mustConnect(t, p, prev.Icon, prev.Pad, sg.ID, "u0.a", 0)
			prev = diagram.PadRef{Icon: sg.ID, Pad: "u0.o"}
		}
		join, _ := p.AddIcon(diagram.IconDoublet, "J", 0, 0)
		join.Units[0] = diagram.UnitConfig{Op: arch.OpAdd}
		mustConnect(t, p, prev.Icon, prev.Pad, join.ID, "u0.a", 0)
		mustConnect(t, p, m.ID, "rd", join.ID, "u0.b", 0)
		return pipeDiags(c, d, p)
	}},
	RuleFlow: {Error, func(t *testing.T, c *Checker) []Diagnostic {
		d, _ := buildAXPY(t)
		d.Flow = []diagram.FlowOp{{Pipe: 7}} // no such pipeline
		return c.CheckDocument(d)
	}},
	RuleReduceWire: {Error, func(t *testing.T, c *Checker) []Diagnostic {
		d, p := buildAXPY(t)
		sg, _ := p.IconByName("R1")
		mw, _ := p.IconByName("Mw")
		mustConnect(t, p, mw.ID, "rd", sg.ID, "u0.b", 0)
		return pipeDiags(c, d, p)
	}},
}

func mustConnect(t *testing.T, p *diagram.Pipeline, fromIcon diagram.IconID, fromPad string, toIcon diagram.IconID, toPad string, delay int) {
	t.Helper()
	from := diagram.PadRef{Icon: fromIcon, Pad: fromPad}
	to := diagram.PadRef{Icon: toIcon, Pad: toPad}
	if _, err := p.Connect(from, to, delay); err != nil {
		t.Fatal(err)
	}
}

// declaredRules scans the checker source for rule constants ("R0NN")
// with NN in [lo, hi]. The scan reads checker.go directly so a newly
// declared rule is picked up without anyone remembering to register it.
func declaredRules(t *testing.T, lo, hi int) []string {
	t.Helper()
	src, err := os.ReadFile("checker.go")
	if err != nil {
		t.Fatalf("reading checker source: %v", err)
	}
	re := regexp.MustCompile(`Rule\w+\s*=\s*"(R0\d{2})"`)
	seen := map[string]bool{}
	var rules []string
	for _, m := range re.FindAllStringSubmatch(string(src), -1) {
		rule := m[1]
		n, _ := strconv.Atoi(rule[1:])
		if n < lo || n > hi || seen[rule] {
			continue
		}
		seen[rule] = true
		rules = append(rules, rule)
	}
	if len(rules) == 0 {
		t.Fatal("no rule constants found in checker.go — scan broken?")
	}
	return rules
}

// TestRuleCoverage runs every R010–R024 trigger and fails the build if
// a rule constant declared in checker.go has no trigger in the table.
func TestRuleCoverage(t *testing.T) {
	for _, rule := range declaredRules(t, 10, 24) {
		rule := rule
		tc, ok := ruleCoverage[rule]
		if !ok {
			t.Errorf("rule %s is declared in checker.go but has no coverage case; add one to ruleCoverage", rule)
			continue
		}
		t.Run(rule, func(t *testing.T) {
			c := newChecker(t)
			diags := tc.build(t, c)
			found := false
			for _, d := range diags {
				if d.Rule != rule {
					continue
				}
				found = true
				if d.Severity != tc.severity {
					t.Errorf("%s emitted with severity %v, want %v", rule, d.Severity, tc.severity)
				}
				if d.Msg == "" {
					t.Errorf("%s emitted with an empty message", rule)
				}
			}
			if !found {
				t.Errorf("trigger did not emit %s; got %v", rule, diags)
			}
		})
	}
	// The table must not drift the other way either: every case keys a
	// rule that still exists in the documented block.
	declared := map[string]bool{}
	for _, r := range declaredRules(t, 10, 24) {
		declared[r] = true
	}
	for rule := range ruleCoverage {
		if !declared[rule] {
			t.Errorf("coverage case for %s, but no such rule constant in checker.go", rule)
		}
	}
}
