package engine

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/diag"
)

// FuzzParseFaultPlan holds two properties over arbitrary specs: every
// rejection is a typed diagnostic (never a panic, never a bare error),
// and every accepted event list survives a render/reparse round trip —
// FaultEvent.String() is the canonical form of what was parsed.
func FuzzParseFaultPlan(f *testing.F) {
	f.Add("dispatch:kill@2:1:repeat=2, exchange:corrupt@3:0")
	f.Add("merge:stall@1:1:stall=500")
	f.Add("dispatch:kill-forever@4:2")
	f.Add("seed@42:sweeps=6:ranks=4:events=3")
	f.Add("teleport:kill@1:0")
	f.Add("dispatch:kill@2:1, dispatch:kill@2:1")
	f.Add("dispatch:kill@1:0:stall=7")
	f.Add("exchange:stall@1:0:stall=9223372036854775807")
	f.Add("seed@1:sweeps=4:ranks=2:events=9223372036854775807")
	f.Add("seed@1:sweeps=4:ranks=2:events=65537")
	f.Add("@@::,,==")
	f.Add("")
	f.Fuzz(func(t *testing.T, spec string) {
		plan, err := ParseFaultPlan(spec)
		if err != nil {
			var de *diag.DiagError
			if !errors.As(err, &de) || de.Rule() != diag.RuleFaultPlan {
				t.Fatalf("spec %q: rejection %v is not a %s diagnostic", spec, err, diag.RuleFaultPlan)
			}
			return
		}
		if strings.HasPrefix(strings.TrimSpace(spec), "seed@") {
			return // generated plans have no literal event syntax to round trip
		}
		rendered := make([]string, len(plan.Events))
		for i, ev := range plan.Events {
			rendered[i] = ev.String()
		}
		again, err := ParseFaultPlan(strings.Join(rendered, ","))
		if err != nil {
			t.Fatalf("spec %q: canonical form %q rejected: %v", spec, strings.Join(rendered, ","), err)
		}
		if len(again.Events) != len(plan.Events) {
			t.Fatalf("spec %q: round trip %d events, want %d", spec, len(again.Events), len(plan.Events))
		}
		for i := range plan.Events {
			a, b := plan.Events[i], again.Events[i]
			// String() canonicalizes: a stray stall= option on a non-stall
			// kind is dropped from the rendering, by design.
			if a.Kind != FaultStall {
				a.Stall, b.Stall = 0, 0
			}
			if a != b {
				t.Fatalf("spec %q event %d: round trip %+v, want %+v", spec, i, b, a)
			}
		}
	})
}
