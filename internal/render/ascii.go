// Package render draws pipeline diagrams. It stands in for the
// prototype's Sun-3/SunView bitmapped display: the ASCII renderer
// produces the drawing-area content of Figures 5–11 on a character
// canvas, RenderWindow reproduces the full display window layout
// (message strip, control panel, declaration region, drawing area),
// and the SVG renderer produces a vector rendition for modern viewing.
package render

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/arch"
	"repro/internal/diagram"
)

// Canvas is a character grid with painter's-algorithm drawing.
type Canvas struct {
	W, H  int
	cells [][]rune
}

// NewCanvas returns a space-filled canvas.
func NewCanvas(w, h int) *Canvas {
	c := &Canvas{W: w, H: h, cells: make([][]rune, h)}
	for y := range c.cells {
		row := make([]rune, w)
		for x := range row {
			row[x] = ' '
		}
		c.cells[y] = row
	}
	return c
}

// Set paints one cell; out-of-bounds writes are ignored.
func (c *Canvas) Set(x, y int, r rune) {
	if x < 0 || y < 0 || x >= c.W || y >= c.H {
		return
	}
	c.cells[y][x] = r
}

// Get reads one cell (space when out of bounds).
func (c *Canvas) Get(x, y int) rune {
	if x < 0 || y < 0 || x >= c.W || y >= c.H {
		return ' '
	}
	return c.cells[y][x]
}

// Text writes a string starting at (x, y).
func (c *Canvas) Text(x, y int, s string) {
	for i, r := range s {
		c.Set(x+i, y, r)
	}
}

// Box draws a rectangle with the given border rune set: horizontal,
// vertical, corner.
func (c *Canvas) Box(x, y, w, h int, hr, vr, cr rune) {
	for i := 1; i < w-1; i++ {
		c.Set(x+i, y, hr)
		c.Set(x+i, y+h-1, hr)
	}
	for j := 1; j < h-1; j++ {
		c.Set(x, y+j, vr)
		c.Set(x+w-1, y+j, vr)
	}
	c.Set(x, y, cr)
	c.Set(x+w-1, y, cr)
	c.Set(x, y+h-1, cr)
	c.Set(x+w-1, y+h-1, cr)
}

// HLine / VLine draw wire segments, marking crossings with '+'.
func (c *Canvas) HLine(x0, x1, y int) {
	if x1 < x0 {
		x0, x1 = x1, x0
	}
	for x := x0; x <= x1; x++ {
		if r := c.Get(x, y); r == '|' || r == '+' {
			c.Set(x, y, '+')
		} else if r == ' ' || r == '-' {
			c.Set(x, y, '-')
		}
	}
}

func (c *Canvas) VLine(x, y0, y1 int) {
	if y1 < y0 {
		y0, y1 = y1, y0
	}
	for y := y0; y <= y1; y++ {
		if r := c.Get(x, y); r == '-' || r == '+' {
			c.Set(x, y, '+')
		} else if r == ' ' || r == '|' {
			c.Set(x, y, '|')
		}
	}
}

// String renders the canvas with trailing whitespace trimmed.
func (c *Canvas) String() string {
	var sb strings.Builder
	for _, row := range c.cells {
		line := strings.TrimRight(string(row), " ")
		sb.WriteString(line)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// IconSize returns the character-cell footprint of an icon.
func IconSize(ic *diagram.Icon) (w, h int) {
	switch ic.Kind {
	case diagram.IconMemPlane, diagram.IconCache:
		return 12, 4
	case diagram.IconSDU:
		taps := len(ic.Taps)
		if taps < 1 {
			taps = 1
		}
		return 12, taps + 3
	default:
		n := ic.Kind.ActiveUnits()
		return 14, n*3 + 1
	}
}

// PadPos returns the canvas coordinates of a pad marker for an icon
// drawn at its (X, Y).
func PadPos(ic *diagram.Icon, pad string) (x, y int, ok bool) {
	w, _ := IconSize(ic)
	switch ic.Kind {
	case diagram.IconMemPlane, diagram.IconCache:
		switch pad {
		case "rd":
			return ic.X + w - 1, ic.Y + 2, true
		case "wr":
			return ic.X, ic.Y + 2, true
		}
		return 0, 0, false
	case diagram.IconSDU:
		if pad == "in" {
			return ic.X, ic.Y + 2, true
		}
		t, ok := diagram.TapPad(pad)
		return ic.X + w - 1, ic.Y + 2 + t, ok
	default:
		slot, side, good := diagram.UnitPad(pad)
		if !good || slot >= ic.Kind.ActiveUnits() {
			return 0, 0, false
		}
		base := ic.Y + 1 + slot*3
		switch side {
		case 0: // a: top-left of the unit box
			return ic.X, base, true
		case 1: // b: bottom-left
			return ic.X, base + 2, true
		default: // o: middle-right
			return ic.X + w - 1, base + 1, true
		}
	}
}

// unitCapString renders the capability tag of a unit slot, mirroring
// the Figure 4 "double box" marking for integer-capable units.
func unitCapString(kind diagram.IconKind, slot int) string {
	alsKind, ok := kind.ALSKind()
	if !ok {
		return ""
	}
	hw := alsKind.Units()
	if hw == 1 {
		return ""
	}
	if slot == 0 {
		return "I"
	}
	if slot == hw-1 && kind != diagram.IconDoubletBypass {
		return "M"
	}
	return ""
}

// DrawIcon paints one icon onto the canvas.
func DrawIcon(c *Canvas, ic *diagram.Icon) {
	w, h := IconSize(ic)
	x, y := ic.X, ic.Y
	switch ic.Kind {
	case diagram.IconMemPlane, diagram.IconCache:
		c.Box(x, y, w, h, '-', '|', '+')
		tag := fmt.Sprintf("M[%d]", ic.Plane)
		if ic.Kind == diagram.IconCache {
			tag = fmt.Sprintf("C[%d]", ic.Plane)
		}
		c.Text(x+1, y+1, clip(ic.Name+" "+tag, w-2))
		detail := ""
		if ic.RdDMA != nil {
			detail = dmaTag(ic.RdDMA)
		} else if ic.WrDMA != nil {
			detail = dmaTag(ic.WrDMA)
		}
		c.Text(x+1, y+2, clip(detail, w-2))
		c.Set(x+w-1, y+2, '*') // rd pad
		c.Set(x, y+2, '*')     // wr pad
	case diagram.IconSDU:
		c.Box(x, y, w, h, '-', '|', '+')
		c.Text(x+1, y+1, clip(ic.Name+" SDU", w-2))
		for t := range ic.Taps {
			c.Text(x+2, y+2+t, clip(fmt.Sprintf("z%-4d", ic.Taps[t]), w-3))
			c.Set(x+w-1, y+2+t, '*')
		}
		c.Set(x, y+2, '*')
	default:
		c.Text(x+1, y, clip(ic.Name+" ("+ic.Kind.String()+")", w))
		for slot := 0; slot < ic.Kind.ActiveUnits(); slot++ {
			by := y + 1 + slot*3
			// The Figure 4 "double box" for the integer-capable unit.
			hr, vr := '-', '|'
			if unitCapString(ic.Kind, slot) == "I" {
				hr, vr = '=', '‖'
			}
			c.Box(x+1, by, w-2, 3, hr, vr, '+')
			u := diagram.UnitConfig{}
			if slot < len(ic.Units) {
				u = ic.Units[slot]
			}
			label := u.Op.String()
			if u.Op == arch.OpNop {
				label = "----"
			}
			if u.Reduce {
				label += " R"
			}
			if u.ConstB != nil {
				label += fmt.Sprintf(" b=%g", *u.ConstB)
			}
			if u.ConstA != nil {
				label += fmt.Sprintf(" a=%g", *u.ConstA)
			}
			if tag := unitCapString(ic.Kind, slot); tag == "M" {
				label += " [M]"
			}
			c.Text(x+2, by+1, clip(label, w-4))
			c.Set(x, by, '*')       // a pad
			c.Set(x, by+2, '*')     // b pad
			c.Set(x+w-1, by+1, '*') // o pad
		}
	}
}

func dmaTag(d *diagram.DMASpec) string {
	if d.Var != "" {
		return fmt.Sprintf("%s+%d:%d", d.Var, d.Offset, d.Stride)
	}
	return fmt.Sprintf("@%d:%d", d.Offset, d.Stride)
}

func clip(s string, w int) string {
	if w <= 0 {
		return ""
	}
	if len(s) > w {
		return s[:w]
	}
	return s
}

// DrawWire routes a wire between two pads with an orthogonal
// three-segment path (the rendered form of the Figure 8 rubber band).
func DrawWire(c *Canvas, fx, fy, tx, ty int) {
	midX := fx + 2
	if tx > fx {
		midX = (fx + tx) / 2
	}
	c.HLine(fx+1, midX, fy)
	c.VLine(midX, fy, ty)
	c.HLine(midX, tx-1, ty)
}

// Pipeline renders one pipeline diagram as ASCII art.
func Pipeline(p *diagram.Pipeline) string {
	// Canvas extent from icon footprints.
	w, h := 40, 10
	for _, ic := range p.Icons {
		iw, ih := IconSize(ic)
		if v := ic.X + iw + 4; v > w {
			w = v
		}
		if v := ic.Y + ih + 2; v > h {
			h = v
		}
	}
	c := NewCanvas(w, h)
	// Wires under icons so boxes stay crisp.
	for _, wr := range p.Wires {
		fi, err1 := p.Icon(wr.From.Icon)
		ti, err2 := p.Icon(wr.To.Icon)
		if err1 != nil || err2 != nil {
			continue
		}
		fx, fy, ok1 := PadPos(fi, wr.From.Pad)
		tx, ty, ok2 := PadPos(ti, wr.To.Pad)
		if !ok1 || !ok2 {
			continue
		}
		DrawWire(c, fx, fy, tx, ty)
		if wr.Delay > 0 {
			c.Text((fx+tx)/2, (fy+ty)/2, fmt.Sprintf("z%d", wr.Delay))
		}
	}
	for _, ic := range p.Icons {
		DrawIcon(c, ic)
	}
	header := fmt.Sprintf("pipeline %d: %s", p.ID, p.Label)
	extra := ""
	if p.Compare != nil {
		extra = fmt.Sprintf("  [compare u%d %s %g -> flag %d]",
			p.Compare.Slot, p.Compare.Op, p.Compare.Threshold, p.Compare.Flag)
	}
	return header + extra + "\n" + c.String()
}

// Netlist renders the dataflow of a pipeline as indented text — the
// closest modern analogue of the hand-drawn Figure 2 working diagrams.
func Netlist(p *diagram.Pipeline) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "pipeline %d (%s)\n", p.ID, p.Label)
	icons := append([]*diagram.Icon(nil), p.Icons...)
	sort.Slice(icons, func(i, j int) bool { return icons[i].ID < icons[j].ID })
	name := func(pr diagram.PadRef) string {
		ic, err := p.Icon(pr.Icon)
		if err != nil {
			return pr.String()
		}
		return ic.Name + "." + pr.Pad
	}
	for _, ic := range icons {
		switch {
		case ic.Kind == diagram.IconMemPlane || ic.Kind == diagram.IconCache:
			fmt.Fprintf(&sb, "  %-8s %s plane %d", ic.Name, ic.Kind, ic.Plane)
			if ic.RdDMA != nil {
				fmt.Fprintf(&sb, "  rd %s count=%d skip=%d", dmaTag(ic.RdDMA), ic.RdDMA.Count, ic.RdDMA.Skip)
			}
			if ic.WrDMA != nil {
				fmt.Fprintf(&sb, "  wr %s count=%d skip=%d", dmaTag(ic.WrDMA), ic.WrDMA.Count, ic.WrDMA.Skip)
			}
			sb.WriteByte('\n')
		case ic.Kind == diagram.IconSDU:
			fmt.Fprintf(&sb, "  %-8s sdu taps=%v", ic.Name, ic.Taps)
			if w := p.WireTo(diagram.PadRef{Icon: ic.ID, Pad: "in"}); w != nil {
				fmt.Fprintf(&sb, "  in<-%s", name(w.From))
			}
			sb.WriteByte('\n')
		default:
			for slot := 0; slot < ic.Kind.ActiveUnits(); slot++ {
				u := ic.Units[slot]
				if u.Op == arch.OpNop {
					continue
				}
				fmt.Fprintf(&sb, "  %s.u%d = %s(", ic.Name, slot, u.Op)
				if w := p.WireTo(diagram.PadRef{Icon: ic.ID, Pad: diagram.UnitPadName(slot, 0)}); w != nil {
					sb.WriteString(name(w.From))
					if w.Delay > 0 {
						fmt.Fprintf(&sb, " z%d", w.Delay)
					}
				} else if u.ConstA != nil {
					fmt.Fprintf(&sb, "%g", *u.ConstA)
				}
				if u.Op.Info().Arity > 1 {
					sb.WriteString(", ")
					switch {
					case u.Reduce:
						fmt.Fprintf(&sb, "acc init=%g", u.RedInit)
					default:
						if w := p.WireTo(diagram.PadRef{Icon: ic.ID, Pad: diagram.UnitPadName(slot, 1)}); w != nil {
							sb.WriteString(name(w.From))
							if w.Delay > 0 {
								fmt.Fprintf(&sb, " z%d", w.Delay)
							}
						} else if u.ConstB != nil {
							fmt.Fprintf(&sb, "%g", *u.ConstB)
						}
					}
				}
				sb.WriteString(")\n")
			}
		}
	}
	if p.Compare != nil {
		ic, err := p.Icon(p.Compare.Icon)
		nm := "?"
		if err == nil {
			nm = ic.Name
		}
		fmt.Fprintf(&sb, "  compare %s.u%d %s %g -> flag %d\n",
			nm, p.Compare.Slot, p.Compare.Op, p.Compare.Threshold, p.Compare.Flag)
	}
	return sb.String()
}

// IconGallery renders one specimen of every icon kind — Figure 4, the
// ALS icon palette, extended with the plane/cache/SDU icons.
func IconGallery() string {
	d := diagram.NewDocument("gallery")
	p := d.AddPipeline("icons")
	x := 1
	for _, k := range diagram.AllKinds() {
		ic, err := p.AddIcon(k, k.String(), x, 1)
		if err != nil {
			continue
		}
		if k == diagram.IconSDU {
			ic.Taps = []int{0, 1, 64}
		}
		w, _ := IconSize(ic)
		x += w + 3
	}
	return Pipeline(p)
}
