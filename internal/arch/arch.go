// Package arch describes the Navier-Stokes Computer (NSC) node
// architecture: functional units, arithmetic-logic structures (ALSs),
// memory planes, data caches, shift/delay units, the switch network and
// the hypercube fabric. It is the knowledge base consulted by the
// checker, the microcode generator and the simulator (ICASE 88-6 §2).
//
// All quantities are configurable through Config; Default returns the
// machine as described in the paper: 32 functional units per node
// grouped into singlets, doublets and triplets, 16 memory planes of
// 128 MB, 16 double-buffered data caches, two shift/delay units, and a
// 20 MHz clock giving the stated 640 MFLOPS peak per node.
package arch

import (
	"errors"
	"fmt"
	"math"
)

// Capability is a bitmask of operation classes a functional unit can
// perform. Every unit performs floating-point operations; within each
// ALS only one unit has integer/logical circuitry and only one has
// min/max circuitry (§3 "the function units within each ALS are not
// constructed identically").
type Capability uint8

const (
	// CapFloat marks floating-point capability (all units have it).
	CapFloat Capability = 1 << iota
	// CapInteger marks integer and logical capability.
	CapInteger
	// CapMinMax marks min/max comparison circuitry.
	CapMinMax
)

// Has reports whether c includes all capabilities in want.
func (c Capability) Has(want Capability) bool { return c&want == want }

// String returns a short human-readable capability list.
func (c Capability) String() string {
	s := ""
	if c.Has(CapFloat) {
		s += "F"
	}
	if c.Has(CapInteger) {
		s += "I"
	}
	if c.Has(CapMinMax) {
		s += "M"
	}
	if s == "" {
		return "-"
	}
	return s
}

// ALSKind identifies one of the three hardwired arithmetic-logic
// structure types (Figure 4). A doublet may additionally be configured
// to operate as a singlet by bypassing one of its units; that is a
// diagram-level configuration, not a distinct hardware kind.
type ALSKind int

const (
	// Singlet is an ALS containing one functional unit.
	Singlet ALSKind = iota
	// Doublet is an ALS containing two functional units.
	Doublet
	// Triplet is an ALS containing three functional units.
	Triplet
)

// Units returns the number of functional units in an ALS of kind k.
func (k ALSKind) Units() int {
	switch k {
	case Singlet:
		return 1
	case Doublet:
		return 2
	case Triplet:
		return 3
	}
	return 0
}

// String returns the conventional name of the ALS kind.
func (k ALSKind) String() string {
	switch k {
	case Singlet:
		return "singlet"
	case Doublet:
		return "doublet"
	case Triplet:
		return "triplet"
	}
	return fmt.Sprintf("ALSKind(%d)", int(k))
}

// Config holds every architectural parameter of a node and of the
// surrounding hypercube. The zero value is not usable; start from
// Default (or Subset) and adjust.
type Config struct {
	// ALS inventory. Triplets*3 + Doublets*2 + Singlets must equal
	// TotalFUs.
	Triplets int
	Doublets int
	Singlets int
	// TotalFUs is the number of functional units per node (32 in the
	// paper).
	TotalFUs int

	// MemPlanes is the number of memory planes (16); PlaneBytes the
	// capacity of each plane (128 MB).
	MemPlanes  int
	PlaneBytes int64

	// CachePlanes is the number of double-buffered data caches (16);
	// CacheBytes the capacity of one buffer (8 KB); each cache has two
	// buffers.
	CachePlanes int
	CacheBytes  int64

	// ShiftDelayUnits is the number of shift/delay units (2), used to
	// reformat a single memory stream into multiple delayed vector
	// streams. SDUTaps is the number of taps each provides and
	// SDUBufferLen the maximum delay in elements.
	ShiftDelayUnits int
	SDUTaps         int
	SDUBufferLen    int

	// RegFileWords is the register-file capacity per functional unit,
	// used for constants and circular-queue timing delays; MaxDelay is
	// the longest register-file delay expressible.
	RegFileWords int
	MaxDelay     int

	// ClockHz is the machine clock. 20 MHz × 32 FUs = 640 MFLOPS peak.
	ClockHz float64

	// IssueOverheadCycles is the sequencer cost of dispatching one
	// instruction (reprogramming the switches and DMA units).
	IssueOverheadCycles int

	// WordBytes is the machine word size in bytes (8: 64-bit floats).
	WordBytes int

	// HypercubeDim is the dimension of the hypercube (6 ⇒ 64 nodes).
	HypercubeDim int
	// RouterHopCycles is the per-hop latency of the hyperspace router
	// and RouterBytesPerCycle its per-link bandwidth.
	RouterHopCycles     int
	RouterBytesPerCycle int
}

// Default returns the NSC node as described in the paper. The ALS mix
// is not pinned by the text beyond "32 functional units"; we use
// 4 triplets + 8 doublets + 4 singlets = 32 (DESIGN.md §5).
func Default() Config {
	return Config{
		Triplets:            4,
		Doublets:            8,
		Singlets:            4,
		TotalFUs:            32,
		MemPlanes:           16,
		PlaneBytes:          128 << 20,
		CachePlanes:         16,
		CacheBytes:          8 << 10,
		ShiftDelayUnits:     2,
		SDUTaps:             8,
		SDUBufferLen:        1 << 16,
		RegFileWords:        64,
		MaxDelay:            64,
		ClockHz:             20e6,
		IssueOverheadCycles: 16,
		WordBytes:           8,
		HypercubeDim:        6,
		RouterHopCycles:     8,
		RouterBytesPerCycle: 8,
	}
}

// Subset returns the simplified architectural model discussed in the
// paper's conclusions ("use a simpler architectural model, perhaps a
// subset of the NSC"): singlets only, no shift/delay units, a single
// flat memory plane set. Easier to program, slower (experiment A5).
func Subset() Config {
	c := Default()
	c.Triplets = 0
	c.Doublets = 0
	c.Singlets = 8
	c.TotalFUs = 8
	c.ShiftDelayUnits = 0
	c.SDUTaps = 0
	c.SDUBufferLen = 0
	return c
}

// Validate checks internal consistency of the configuration.
func (c Config) Validate() error {
	if c.TotalFUs <= 0 {
		return errors.New("arch: TotalFUs must be positive")
	}
	if got := c.Triplets*3 + c.Doublets*2 + c.Singlets; got != c.TotalFUs {
		return fmt.Errorf("arch: ALS mix yields %d functional units, want %d", got, c.TotalFUs)
	}
	if c.Triplets < 0 || c.Doublets < 0 || c.Singlets < 0 {
		return errors.New("arch: negative ALS count")
	}
	if c.MemPlanes <= 0 || c.PlaneBytes <= 0 {
		return errors.New("arch: memory planes misconfigured")
	}
	if c.CachePlanes < 0 || (c.CachePlanes > 0 && c.CacheBytes <= 0) {
		return errors.New("arch: cache planes misconfigured")
	}
	if c.ShiftDelayUnits < 0 {
		return errors.New("arch: negative shift/delay unit count")
	}
	if c.ShiftDelayUnits > 0 && (c.SDUTaps <= 0 || c.SDUBufferLen <= 0) {
		return errors.New("arch: shift/delay units present but taps or buffer unset")
	}
	if c.RegFileWords <= 0 {
		return errors.New("arch: RegFileWords must be positive")
	}
	if c.MaxDelay < 0 || c.MaxDelay > c.RegFileWords {
		return fmt.Errorf("arch: MaxDelay %d outside register file of %d words", c.MaxDelay, c.RegFileWords)
	}
	// Written so that NaN, which fails every comparison, is rejected.
	if !(c.ClockHz > 0) || math.IsInf(c.ClockHz, 1) {
		return errors.New("arch: ClockHz must be positive")
	}
	if c.WordBytes <= 0 {
		return errors.New("arch: WordBytes must be positive")
	}
	if c.HypercubeDim < 0 || c.HypercubeDim > 20 {
		return fmt.Errorf("arch: HypercubeDim %d out of range", c.HypercubeDim)
	}
	return nil
}

// Nodes returns the number of nodes in the configured hypercube.
func (c Config) Nodes() int { return 1 << uint(c.HypercubeDim) }

// NodeMemoryBytes returns the total memory of one node.
func (c Config) NodeMemoryBytes() int64 { return int64(c.MemPlanes) * c.PlaneBytes }

// TotalMemoryBytes returns the memory of the full hypercube.
func (c Config) TotalMemoryBytes() int64 { return int64(c.Nodes()) * c.NodeMemoryBytes() }

// PeakFLOPS returns the peak floating-point rate of one node: every
// functional unit produces one result per clock.
func (c Config) PeakFLOPS() float64 { return float64(c.TotalFUs) * c.ClockHz }

// PeakSystemFLOPS returns the peak rate of the full hypercube.
func (c Config) PeakSystemFLOPS() float64 { return float64(c.Nodes()) * c.PeakFLOPS() }

// ALSCount returns the total number of ALSs of all kinds.
func (c Config) ALSCount() int { return c.Triplets + c.Doublets + c.Singlets }

// ALSOfKind returns how many ALSs of kind k the node has.
func (c Config) ALSOfKind(k ALSKind) int {
	switch k {
	case Singlet:
		return c.Singlets
	case Doublet:
		return c.Doublets
	case Triplet:
		return c.Triplets
	}
	return 0
}

// PlaneWords returns the number of machine words a memory plane holds.
func (c Config) PlaneWords() int64 { return c.PlaneBytes / int64(c.WordBytes) }

// CacheWords returns the number of machine words one cache buffer holds.
func (c Config) CacheWords() int64 { return c.CacheBytes / int64(c.WordBytes) }
