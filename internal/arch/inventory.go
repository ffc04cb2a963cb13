package arch

import (
	"fmt"
	"sync"
)

// FUID is the global index of a functional unit within a node
// (0 .. TotalFUs-1). Units are numbered in ALS order: all triplets
// first, then doublets, then singlets; within an ALS, unit 0 first.
type FUID int

// ALSID is the index of an arithmetic-logic structure within a node
// (0 .. ALSCount-1), in the same triplets/doublets/singlets order.
type ALSID int

// ALS describes one physical arithmetic-logic structure instance.
type ALS struct {
	ID    ALSID
	Kind  ALSKind
	Units []FU
}

// FU describes one physical functional unit instance.
type FU struct {
	ID FUID
	// ALS is the structure the unit is wired into and Slot its position
	// within that structure (0-based).
	ALS  ALSID
	Slot int
	Cap  Capability
}

// Inventory is the fully enumerated hardware of one node, derived from
// a Config. It is immutable after construction; share freely.
type Inventory struct {
	Cfg  Config
	ALSs []ALS
	FUs  []FU
}

// inventories holds the one Inventory built for each valid Config.
var inventories = struct {
	sync.Mutex
	m map[Config]*Inventory
}{m: map[Config]*Inventory{}}

// NewInventory returns the node hardware described by cfg. Every call
// with an equal Config returns the same shared Inventory; the first
// validates cfg and builds it, and an invalid Config is never stored.
func NewInventory(cfg Config) (*Inventory, error) {
	inventories.Lock()
	defer inventories.Unlock()
	if inv, ok := inventories.m[cfg]; ok {
		return inv, nil
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	inv := buildInventory(cfg)
	inventories.m[cfg] = inv
	return inv, nil
}

// buildInventory enumerates the hardware of a valid cfg. Capability
// asymmetries follow §3: within each multi-unit ALS, unit 0 has the
// integer/logical circuitry and the last unit has the min/max
// circuitry; singlet units are floating-point only.
func buildInventory(cfg Config) *Inventory {
	inv := &Inventory{Cfg: cfg}
	kinds := make([]ALSKind, 0, cfg.ALSCount())
	for i := 0; i < cfg.Triplets; i++ {
		kinds = append(kinds, Triplet)
	}
	for i := 0; i < cfg.Doublets; i++ {
		kinds = append(kinds, Doublet)
	}
	for i := 0; i < cfg.Singlets; i++ {
		kinds = append(kinds, Singlet)
	}
	fuID := FUID(0)
	for ai, kind := range kinds {
		als := ALS{ID: ALSID(ai), Kind: kind}
		n := kind.Units()
		for slot := 0; slot < n; slot++ {
			cap := CapFloat
			if n > 1 && slot == 0 {
				cap |= CapInteger
			}
			if n > 1 && slot == n-1 {
				cap |= CapMinMax
			}
			fu := FU{ID: fuID, ALS: als.ID, Slot: slot, Cap: cap}
			als.Units = append(als.Units, fu)
			inv.FUs = append(inv.FUs, fu)
			fuID++
		}
		inv.ALSs = append(inv.ALSs, als)
	}
	return inv
}

// MustInventory is NewInventory for known-good configurations; it
// panics on error. Intended for tests and examples.
func MustInventory(cfg Config) *Inventory {
	inv, err := NewInventory(cfg)
	if err != nil {
		panic(err)
	}
	return inv
}

// UnitAt returns the functional unit in slot of ALS a.
func (inv *Inventory) UnitAt(a ALSID, slot int) (FU, error) {
	if int(a) < 0 || int(a) >= len(inv.ALSs) {
		return FU{}, fmt.Errorf("arch: ALS %d out of range", a)
	}
	als := inv.ALSs[a]
	if slot < 0 || slot >= len(als.Units) {
		return FU{}, fmt.Errorf("arch: slot %d out of range for %s %d", slot, als.Kind, a)
	}
	return als.Units[slot], nil
}

// SourceID identifies a data producer port on the switch network:
// memory-plane read channels, cache read channels, shift/delay-unit
// taps, and functional-unit outputs, in that order.
type SourceID int

// SinkID identifies a data consumer port on the switch network:
// memory-plane write channels, cache write channels, shift/delay-unit
// inputs, and functional-unit inputs (A then B per unit), in that
// order.
type SinkID int

// InvalidSource and InvalidSink are sentinels for "not connected".
const (
	InvalidSource SourceID = -1
	InvalidSink   SinkID   = -1
)

// Port arithmetic. All port numbering is derived from the Config so
// the microcode field widths adapt to the machine description.

// NumSources returns the number of producer ports.
func (c Config) NumSources() int {
	return c.MemPlanes + c.CachePlanes + c.ShiftDelayUnits*c.SDUTaps + c.TotalFUs
}

// NumSinks returns the number of consumer ports.
func (c Config) NumSinks() int {
	return c.MemPlanes + c.CachePlanes + c.ShiftDelayUnits + c.TotalFUs*2
}

// SrcMemRead returns the source port of memory plane p's read channel.
func (c Config) SrcMemRead(p int) SourceID { return SourceID(p) }

// SrcCacheRead returns the source port of cache plane p's read channel.
func (c Config) SrcCacheRead(p int) SourceID { return SourceID(c.MemPlanes + p) }

// SrcSDUTap returns the source port of tap t on shift/delay unit u.
func (c Config) SrcSDUTap(u, t int) SourceID {
	return SourceID(c.MemPlanes + c.CachePlanes + u*c.SDUTaps + t)
}

// SrcFUOut returns the source port of functional unit fu's output.
func (c Config) SrcFUOut(fu FUID) SourceID {
	return SourceID(c.MemPlanes + c.CachePlanes + c.ShiftDelayUnits*c.SDUTaps + int(fu))
}

// SnkMemWrite returns the sink port of memory plane p's write channel.
func (c Config) SnkMemWrite(p int) SinkID { return SinkID(p) }

// SnkCacheWrite returns the sink port of cache plane p's write channel.
func (c Config) SnkCacheWrite(p int) SinkID { return SinkID(c.MemPlanes + p) }

// SnkSDUIn returns the sink port of shift/delay unit u's input.
func (c Config) SnkSDUIn(u int) SinkID { return SinkID(c.MemPlanes + c.CachePlanes + u) }

// SnkFUIn returns the sink port of functional unit fu's input side
// (side 0 = A, side 1 = B).
func (c Config) SnkFUIn(fu FUID, side int) SinkID {
	return SinkID(c.MemPlanes + c.CachePlanes + c.ShiftDelayUnits + int(fu)*2 + side)
}

// SourceKind classifies a source port.
type SourceKind int

// Source port classes.
const (
	SrcKindMem SourceKind = iota
	SrcKindCache
	SrcKindSDU
	SrcKindFU
)

// ClassifySource decomposes a source port into its kind and indices.
// For SrcKindSDU the two results are (unit, tap); for others the second
// result is 0.
func (c Config) ClassifySource(s SourceID) (kind SourceKind, a, b int, err error) {
	i := int(s)
	if i < 0 || i >= c.NumSources() {
		return 0, 0, 0, fmt.Errorf("arch: source port %d out of range", i)
	}
	if i < c.MemPlanes {
		return SrcKindMem, i, 0, nil
	}
	i -= c.MemPlanes
	if i < c.CachePlanes {
		return SrcKindCache, i, 0, nil
	}
	i -= c.CachePlanes
	if i < c.ShiftDelayUnits*c.SDUTaps {
		return SrcKindSDU, i / c.SDUTaps, i % c.SDUTaps, nil
	}
	i -= c.ShiftDelayUnits * c.SDUTaps
	return SrcKindFU, i, 0, nil
}

// SinkKind classifies a sink port.
type SinkKind int

// Sink port classes.
const (
	SnkKindMem SinkKind = iota
	SnkKindCache
	SnkKindSDU
	SnkKindFU
)

// ClassifySink decomposes a sink port into its kind and indices. For
// SnkKindFU the two results are (unit, side).
func (c Config) ClassifySink(s SinkID) (kind SinkKind, a, b int, err error) {
	i := int(s)
	if i < 0 || i >= c.NumSinks() {
		return 0, 0, 0, fmt.Errorf("arch: sink port %d out of range", i)
	}
	if i < c.MemPlanes {
		return SnkKindMem, i, 0, nil
	}
	i -= c.MemPlanes
	if i < c.CachePlanes {
		return SnkKindCache, i, 0, nil
	}
	i -= c.CachePlanes
	if i < c.ShiftDelayUnits {
		return SnkKindSDU, i, 0, nil
	}
	i -= c.ShiftDelayUnits
	return SnkKindFU, i / 2, i % 2, nil
}

// SourceName returns a human-readable port name such as "M3.rd",
// "C7.rd", "SDU0.t2" or "FU12.out".
func (c Config) SourceName(s SourceID) string {
	kind, a, b, err := c.ClassifySource(s)
	if err != nil {
		return fmt.Sprintf("src?%d", int(s))
	}
	switch kind {
	case SrcKindMem:
		return fmt.Sprintf("M%d.rd", a)
	case SrcKindCache:
		return fmt.Sprintf("C%d.rd", a)
	case SrcKindSDU:
		return fmt.Sprintf("SDU%d.t%d", a, b)
	default:
		return fmt.Sprintf("FU%d.out", a)
	}
}

// SinkName returns a human-readable port name such as "M3.wr",
// "SDU0.in" or "FU12.a".
func (c Config) SinkName(s SinkID) string {
	kind, a, b, err := c.ClassifySink(s)
	if err != nil {
		return fmt.Sprintf("snk?%d", int(s))
	}
	switch kind {
	case SnkKindMem:
		return fmt.Sprintf("M%d.wr", a)
	case SnkKindCache:
		return fmt.Sprintf("C%d.wr", a)
	case SnkKindSDU:
		return fmt.Sprintf("SDU%d.in", a)
	default:
		side := "a"
		if b == 1 {
			side = "b"
		}
		return fmt.Sprintf("FU%d.%s", a, side)
	}
}
