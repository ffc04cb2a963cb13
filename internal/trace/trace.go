// Package trace implements the debugging extension proposed in the
// paper's conclusions: "During execution, each new instruction would
// display the corresponding pipeline diagram, annotated to show data
// values flowing through the pipeline. This could help to pinpoint
// timing errors, as well as other bugs in the program."
//
// Capture executes one instruction with the simulator's tracer armed
// and collects, for a chosen logical element index, the value every
// diagram pad carried. Annotate renders those values over the
// netlist form of the diagram.
package trace

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/arch"
	"repro/internal/codegen"
	"repro/internal/diagram"
	"repro/internal/microcode"
	"repro/internal/sim"
)

// Sample is one observed pad value.
type Sample struct {
	Pad     diagram.PadRef
	PadName string
	Element int64
	Cycle   int
	Val     float64
	Valid   bool
}

// padSources maps every producing pad of the pipeline to its physical
// switch source under the generator's hardware assignment.
func padSources(inv *arch.Inventory, p *diagram.Pipeline, info *codegen.PipeInfo) map[diagram.PadRef]arch.SourceID {
	m := map[diagram.PadRef]arch.SourceID{}
	for _, ic := range p.Icons {
		for _, pad := range ic.Kind.Pads() {
			if src, ok := info.Source(inv, ic, pad.Name); ok {
				m[diagram.PadRef{Icon: ic.ID, Pad: pad.Name}] = src
			}
		}
	}
	return m
}

// Capture executes the instruction on the node with tracing enabled
// and returns, for each producing pad, the value of logical element
// `element` (pads whose streams never carry that element are absent).
// The pads' epochs come from info, the generator's report for the
// instruction. The node's planes must already hold the input data; the
// instruction executes fully, so memory is updated as usual. If the
// node traps mid-instruction, Capture returns the samples observed
// before the abort together with the *sim.TrapError.
func Capture(node *sim.Node, in *microcode.Instr, p *diagram.Pipeline,
	info *codegen.PipeInfo, element int64) (map[diagram.PadRef]Sample, error) {

	// Element e of pad P appears at cycle L(P) + e.
	wantCycle := map[arch.SourceID][]diagram.PadRef{}
	cycleOf := map[diagram.PadRef]int{}
	for pr, src := range padSources(node.Inv, p, info) {
		c := info.Epochs[pr] + int(element)
		cycleOf[pr] = c
		wantCycle[src] = append(wantCycle[src], pr)
	}

	out := map[diagram.PadRef]Sample{}
	node.Tracer = func(src arch.SourceID, cycle int, val float64, valid bool) {
		for _, pr := range wantCycle[src] {
			if cycleOf[pr] == cycle {
				out[pr] = Sample{
					Pad: pr, PadName: padName(p, pr), Element: element,
					Cycle: cycle, Val: val, Valid: valid,
				}
			}
		}
	}
	defer func() { node.Tracer = nil }()
	if err := node.Exec(in); err != nil {
		// A trap abort still returns the samples captured before the
		// faulting cycle, alongside the error: the annotated diagram
		// up to the trap is exactly what pinpoints the bad operand.
		var te *sim.TrapError
		if errors.As(err, &te) {
			// Mark the partial capture on the node's observability
			// stream: the trap cause plus how many pad samples landed
			// before the abort, so a trace viewer shows where the
			// diagram annotation stops and why.
			node.Obs.Event(node.ObsID, "trace", "capture-partial",
				te.Trap.At, te.Trap.Kind.String(),
				map[string]int64{"element": element, "samples": int64(len(out))})
			return out, err
		}
		return nil, err
	}
	return out, nil
}

func padName(p *diagram.Pipeline, pr diagram.PadRef) string {
	ic, err := p.Icon(pr.Icon)
	if err != nil {
		return pr.String()
	}
	return ic.Name + "." + pr.Pad
}

// Annotate renders the captured values as the annotated diagram the
// paper describes: one line per pad in topological (epoch) order.
func Annotate(p *diagram.Pipeline, samples map[diagram.PadRef]Sample) string {
	list := make([]Sample, 0, len(samples))
	for _, s := range samples {
		list = append(list, s)
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].Cycle != list[j].Cycle {
			return list[i].Cycle < list[j].Cycle
		}
		return list[i].PadName < list[j].PadName
	})
	var sb strings.Builder
	fmt.Fprintf(&sb, "pipeline %d (%s): values at element %d\n", p.ID, p.Label, elementOf(list))
	for _, s := range list {
		mark := " "
		if !s.Valid {
			mark = "?"
		}
		fmt.Fprintf(&sb, "  cycle %4d %s %-14s = %g\n", s.Cycle, mark, s.PadName, s.Val)
	}
	return sb.String()
}

func elementOf(list []Sample) int64 {
	if len(list) == 0 {
		return 0
	}
	return list[0].Element
}

// Animate captures several consecutive elements and renders them as a
// table: pads as rows, elements as columns — the "data values flowing
// through the pipeline" animation, one frame per element. Each call to
// Capture re-executes the instruction; the node state is rewound by
// the caller if that matters.
func Animate(node *sim.Node, in *microcode.Instr, p *diagram.Pipeline,
	info *codegen.PipeInfo, first, count int64) (string, error) {

	frames := make([]map[diagram.PadRef]Sample, 0, count)
	for e := first; e < first+count; e++ {
		s, err := Capture(node, in, p, info, e)
		if err != nil {
			return "", err
		}
		frames = append(frames, s)
	}
	// Stable row order from the first frame.
	rows := make([]Sample, 0, len(frames[0]))
	for _, s := range frames[0] {
		rows = append(rows, s)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Cycle != rows[j].Cycle {
			return rows[i].Cycle < rows[j].Cycle
		}
		return rows[i].PadName < rows[j].PadName
	})
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-14s", "pad")
	for e := first; e < first+count; e++ {
		fmt.Fprintf(&sb, " %12s", fmt.Sprintf("e=%d", e))
	}
	sb.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-14s", r.PadName)
		for _, f := range frames {
			if s, ok := f[r.Pad]; ok {
				fmt.Fprintf(&sb, " %12.5g", s.Val)
			} else {
				fmt.Fprintf(&sb, " %12s", "-")
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String(), nil
}
