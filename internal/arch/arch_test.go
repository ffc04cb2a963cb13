package arch

import (
	"math"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

func TestDefaultConfigMatchesPaper(t *testing.T) {
	c := Default()
	if err := c.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if c.TotalFUs != 32 {
		t.Errorf("TotalFUs = %d, paper says 32", c.TotalFUs)
	}
	if c.MemPlanes != 16 {
		t.Errorf("MemPlanes = %d, paper says 16", c.MemPlanes)
	}
	if c.PlaneBytes != 128<<20 {
		t.Errorf("PlaneBytes = %d, paper says 128 MB", c.PlaneBytes)
	}
	if got := c.NodeMemoryBytes(); got != 2<<30 {
		t.Errorf("node memory = %d, paper says 2 GB", got)
	}
	if c.CachePlanes != 16 {
		t.Errorf("CachePlanes = %d, paper says 16", c.CachePlanes)
	}
	if c.ShiftDelayUnits != 2 {
		t.Errorf("ShiftDelayUnits = %d, paper says 2", c.ShiftDelayUnits)
	}
	if got := c.PeakFLOPS(); got != 640e6 {
		t.Errorf("peak = %g FLOPS, paper says 640 MFLOPS", got)
	}
}

func TestDefaultSystemClaims(t *testing.T) {
	c := Default()
	if got := c.Nodes(); got != 64 {
		t.Errorf("Nodes = %d, paper's example system has 64", got)
	}
	if got := c.TotalMemoryBytes(); got != 128<<30 {
		t.Errorf("system memory = %d, paper says 128 GB", got)
	}
	if got := c.PeakSystemFLOPS(); got != 40.96e9 {
		// 64 × 640 MFLOPS = 40.96 GFLOPS; the paper rounds to 40.
		t.Errorf("system peak = %g, want 40.96 GFLOPS", got)
	}
}

func TestConfigValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"bad ALS mix", func(c *Config) { c.Singlets++ }},
		{"zero FUs", func(c *Config) { c.TotalFUs = 0 }},
		{"negative triplets", func(c *Config) { c.Triplets = -1; c.TotalFUs -= 3 }},
		{"no planes", func(c *Config) { c.MemPlanes = 0 }},
		{"zero plane bytes", func(c *Config) { c.PlaneBytes = 0 }},
		{"cache without bytes", func(c *Config) { c.CacheBytes = 0 }},
		{"negative SDUs", func(c *Config) { c.ShiftDelayUnits = -1 }},
		{"SDU without taps", func(c *Config) { c.SDUTaps = 0 }},
		{"zero regfile", func(c *Config) { c.RegFileWords = 0 }},
		{"delay exceeds regfile", func(c *Config) { c.MaxDelay = c.RegFileWords + 1 }},
		{"zero clock", func(c *Config) { c.ClockHz = 0 }},
		{"NaN clock", func(c *Config) { c.ClockHz = math.NaN() }},
		{"infinite clock", func(c *Config) { c.ClockHz = math.Inf(1) }},
		{"zero word", func(c *Config) { c.WordBytes = 0 }},
		{"huge hypercube", func(c *Config) { c.HypercubeDim = 21 }},
	}
	for _, tc := range cases {
		c := Default()
		tc.mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted bad config", tc.name)
		}
	}
}

func TestSubsetConfig(t *testing.T) {
	c := Subset()
	if err := c.Validate(); err != nil {
		t.Fatalf("subset config invalid: %v", err)
	}
	if c.Triplets != 0 || c.Doublets != 0 {
		t.Error("subset model should have singlets only")
	}
	if c.ShiftDelayUnits != 0 {
		t.Error("subset model should have no shift/delay units")
	}
	if c.PeakFLOPS() >= Default().PeakFLOPS() {
		t.Error("subset model should have lower peak than full model")
	}
}

func TestALSKindUnits(t *testing.T) {
	if Singlet.Units() != 1 || Doublet.Units() != 2 || Triplet.Units() != 3 {
		t.Error("ALS unit counts wrong")
	}
	if ALSKind(99).Units() != 0 {
		t.Error("unknown kind should report 0 units")
	}
	if Singlet.String() != "singlet" || Doublet.String() != "doublet" || Triplet.String() != "triplet" {
		t.Error("ALS kind names wrong")
	}
}

func TestInventoryEnumeration(t *testing.T) {
	inv := MustInventory(Default())
	if got := len(inv.FUs); got != 32 {
		t.Fatalf("enumerated %d FUs, want 32", got)
	}
	if got := len(inv.ALSs); got != 16 {
		t.Fatalf("enumerated %d ALSs, want 16", got)
	}
	// Order: triplets, doublets, singlets.
	wantKinds := []ALSKind{}
	for i := 0; i < 4; i++ {
		wantKinds = append(wantKinds, Triplet)
	}
	for i := 0; i < 8; i++ {
		wantKinds = append(wantKinds, Doublet)
	}
	for i := 0; i < 4; i++ {
		wantKinds = append(wantKinds, Singlet)
	}
	for i, a := range inv.ALSs {
		if a.Kind != wantKinds[i] {
			t.Errorf("ALS %d kind = %s, want %s", i, a.Kind, wantKinds[i])
		}
		if int(a.ID) != i {
			t.Errorf("ALS %d has ID %d", i, a.ID)
		}
	}
	// FU IDs dense and consistent with ALS membership.
	next := FUID(0)
	for _, a := range inv.ALSs {
		for slot, u := range a.Units {
			if u.ID != next {
				t.Fatalf("FU ID %d, want %d", u.ID, next)
			}
			if u.ALS != a.ID || u.Slot != slot {
				t.Errorf("FU %d back-references ALS %d slot %d, want %d/%d", u.ID, u.ALS, u.Slot, a.ID, slot)
			}
			next++
		}
	}
}

func TestInventoryCapabilityAsymmetry(t *testing.T) {
	inv := MustInventory(Default())
	for _, a := range inv.ALSs {
		n := len(a.Units)
		intCount, mmCount := 0, 0
		for _, u := range a.Units {
			if !u.Cap.Has(CapFloat) {
				t.Errorf("FU %d lacks float capability", u.ID)
			}
			if u.Cap.Has(CapInteger) {
				intCount++
			}
			if u.Cap.Has(CapMinMax) {
				mmCount++
			}
		}
		if n > 1 {
			if intCount != 1 {
				t.Errorf("%s %d has %d integer units, want exactly 1", a.Kind, a.ID, intCount)
			}
			if mmCount != 1 {
				t.Errorf("%s %d has %d min/max units, want exactly 1", a.Kind, a.ID, mmCount)
			}
			if !a.Units[0].Cap.Has(CapInteger) {
				t.Errorf("%s %d: unit 0 should hold the integer circuitry", a.Kind, a.ID)
			}
			if !a.Units[n-1].Cap.Has(CapMinMax) {
				t.Errorf("%s %d: last unit should hold the min/max circuitry", a.Kind, a.ID)
			}
		} else if intCount != 0 || mmCount != 0 {
			t.Errorf("singlet %d should be float-only", a.ID)
		}
	}
}

func TestUnitAtBounds(t *testing.T) {
	inv := MustInventory(Default())
	if _, err := inv.UnitAt(0, 0); err != nil {
		t.Errorf("UnitAt(0,0): %v", err)
	}
	if _, err := inv.UnitAt(-1, 0); err == nil {
		t.Error("UnitAt(-1,0) should fail")
	}
	if _, err := inv.UnitAt(ALSID(len(inv.ALSs)), 0); err == nil {
		t.Error("UnitAt out-of-range ALS should fail")
	}
	if _, err := inv.UnitAt(0, 3); err == nil {
		t.Error("UnitAt slot 3 of a triplet should fail")
	}
}

// alsCount counts the inventory's ALSs of kind k.
func alsCount(inv *Inventory, k ALSKind) int {
	n := 0
	for _, a := range inv.ALSs {
		if a.Kind == k {
			n++
		}
	}
	return n
}

func TestALSByKind(t *testing.T) {
	inv := MustInventory(Default())
	if got := alsCount(inv, Triplet); got != 4 {
		t.Errorf("triplets = %d, want 4", got)
	}
	if got := alsCount(inv, Doublet); got != 8 {
		t.Errorf("doublets = %d, want 8", got)
	}
	if got := alsCount(inv, Singlet); got != 4 {
		t.Errorf("singlets = %d, want 4", got)
	}
}

func TestOpTableComplete(t *testing.T) {
	for _, op := range AllOps() {
		info := op.Info()
		if info.Name == "" {
			t.Errorf("op %d has no name", op)
		}
		if op != OpNop && info.Arity == 0 {
			t.Errorf("op %s has arity 0", info.Name)
		}
		if info.Latency <= 0 {
			t.Errorf("op %s has non-positive latency", info.Name)
		}
		if !info.Needs.Has(CapFloat) {
			t.Errorf("op %s does not require float capability", info.Name)
		}
		back, ok := OpByName(info.Name)
		if !ok || back != op {
			t.Errorf("OpByName(%q) = %v,%v, want %v", info.Name, back, ok, op)
		}
	}
}

func TestOpCapabilityRequirements(t *testing.T) {
	if !OpIAdd.Info().Needs.Has(CapInteger) {
		t.Error("iadd should need integer capability")
	}
	if !OpMax.Info().Needs.Has(CapMinMax) {
		t.Error("max should need min/max capability")
	}
	if OpAdd.Info().Needs.Has(CapInteger) || OpAdd.Info().Needs.Has(CapMinMax) {
		t.Error("add should need only float capability")
	}
}

func TestOpStringInvalid(t *testing.T) {
	bad := Op(200)
	if bad.Valid() {
		t.Fatal("op 200 should be invalid")
	}
	if s := bad.String(); s == "" {
		t.Error("invalid op should still render")
	}
	defer func() {
		if recover() == nil {
			t.Error("Info on invalid op should panic")
		}
	}()
	_ = bad.Info()
}

func TestCapabilityString(t *testing.T) {
	if got := (CapFloat | CapInteger).String(); got != "FI" {
		t.Errorf("capability string = %q, want FI", got)
	}
	if got := Capability(0).String(); got != "-" {
		t.Errorf("empty capability = %q, want -", got)
	}
}

// Property: every source port classifies back to a unique, in-range
// description and round-trips through the constructor functions.
func TestPortRoundTripProperty(t *testing.T) {
	c := Default()
	seen := map[SourceID]bool{}
	for p := 0; p < c.MemPlanes; p++ {
		seen[c.SrcMemRead(p)] = true
	}
	for p := 0; p < c.CachePlanes; p++ {
		seen[c.SrcCacheRead(p)] = true
	}
	for u := 0; u < c.ShiftDelayUnits; u++ {
		for tp := 0; tp < c.SDUTaps; tp++ {
			seen[c.SrcSDUTap(u, tp)] = true
		}
	}
	for fu := 0; fu < c.TotalFUs; fu++ {
		seen[c.SrcFUOut(FUID(fu))] = true
	}
	if len(seen) != c.NumSources() {
		t.Fatalf("constructed %d distinct sources, want %d", len(seen), c.NumSources())
	}
	for s := range seen {
		kind, a, b, err := c.ClassifySource(s)
		if err != nil {
			t.Fatalf("classify %d: %v", s, err)
		}
		var back SourceID
		switch kind {
		case SrcKindMem:
			back = c.SrcMemRead(a)
		case SrcKindCache:
			back = c.SrcCacheRead(a)
		case SrcKindSDU:
			back = c.SrcSDUTap(a, b)
		case SrcKindFU:
			back = c.SrcFUOut(FUID(a))
		}
		if back != s {
			t.Errorf("source %d round-trips to %d", s, back)
		}
	}
}

func TestSinkRoundTripProperty(t *testing.T) {
	c := Default()
	seen := map[SinkID]bool{}
	for p := 0; p < c.MemPlanes; p++ {
		seen[c.SnkMemWrite(p)] = true
	}
	for p := 0; p < c.CachePlanes; p++ {
		seen[c.SnkCacheWrite(p)] = true
	}
	for u := 0; u < c.ShiftDelayUnits; u++ {
		seen[c.SnkSDUIn(u)] = true
	}
	for fu := 0; fu < c.TotalFUs; fu++ {
		for side := 0; side < 2; side++ {
			seen[c.SnkFUIn(FUID(fu), side)] = true
		}
	}
	if len(seen) != c.NumSinks() {
		t.Fatalf("constructed %d distinct sinks, want %d", len(seen), c.NumSinks())
	}
	for s := range seen {
		kind, a, b, err := c.ClassifySink(s)
		if err != nil {
			t.Fatalf("classify %d: %v", s, err)
		}
		var back SinkID
		switch kind {
		case SnkKindMem:
			back = c.SnkMemWrite(a)
		case SnkKindCache:
			back = c.SnkCacheWrite(a)
		case SnkKindSDU:
			back = c.SnkSDUIn(a)
		case SnkKindFU:
			back = c.SnkFUIn(FUID(a), b)
		}
		if back != s {
			t.Errorf("sink %d round-trips to %d", s, back)
		}
	}
}

func TestClassifyOutOfRange(t *testing.T) {
	c := Default()
	if _, _, _, err := c.ClassifySource(SourceID(c.NumSources())); err == nil {
		t.Error("classify past-end source should fail")
	}
	if _, _, _, err := c.ClassifySource(InvalidSource); err == nil {
		t.Error("classify invalid source should fail")
	}
	if _, _, _, err := c.ClassifySink(SinkID(c.NumSinks())); err == nil {
		t.Error("classify past-end sink should fail")
	}
	if _, _, _, err := c.ClassifySink(InvalidSink); err == nil {
		t.Error("classify invalid sink should fail")
	}
}

func TestPortNames(t *testing.T) {
	c := Default()
	cases := []struct {
		got, want string
	}{
		{c.SourceName(c.SrcMemRead(3)), "M3.rd"},
		{c.SourceName(c.SrcCacheRead(7)), "C7.rd"},
		{c.SourceName(c.SrcSDUTap(0, 2)), "SDU0.t2"},
		{c.SourceName(c.SrcFUOut(12)), "FU12.out"},
		{c.SinkName(c.SnkMemWrite(3)), "M3.wr"},
		{c.SinkName(c.SnkCacheWrite(0)), "C0.wr"},
		{c.SinkName(c.SnkSDUIn(1)), "SDU1.in"},
		{c.SinkName(c.SnkFUIn(12, 0)), "FU12.a"},
		{c.SinkName(c.SnkFUIn(12, 1)), "FU12.b"},
		{c.SourceName(InvalidSource), "src?-1"},
		{c.SinkName(InvalidSink), "snk?-1"},
	}
	for _, tc := range cases {
		if tc.got != tc.want {
			t.Errorf("port name = %q, want %q", tc.got, tc.want)
		}
	}
}

// Property: for arbitrary small valid ALS mixes the inventory always
// enumerates exactly the configured number of units with dense IDs.
func TestInventoryProperty(t *testing.T) {
	f := func(t3, d2, s1 uint8) bool {
		tr, db, sg := int(t3%5), int(d2%9), int(s1%5)
		if tr+db+sg == 0 {
			return true
		}
		c := Default()
		c.Triplets, c.Doublets, c.Singlets = tr, db, sg
		c.TotalFUs = tr*3 + db*2 + sg
		inv, err := NewInventory(c)
		if err != nil {
			return false
		}
		if len(inv.FUs) != c.TotalFUs || len(inv.ALSs) != tr+db+sg {
			return false
		}
		for i, u := range inv.FUs {
			if int(u.ID) != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewInventoryRejectsBadConfig(t *testing.T) {
	c := Default()
	c.TotalFUs = 31
	if _, err := NewInventory(c); err == nil {
		t.Error("NewInventory should reject inconsistent config")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustInventory should panic on bad config")
		}
	}()
	MustInventory(c)
}

// storedInventories reports how many Configs have a shared Inventory.
func storedInventories() int {
	inventories.Lock()
	defer inventories.Unlock()
	return len(inventories.m)
}

// TestInventoryShared: equal Configs share one Inventory, equal to a
// freshly built one; a different Config gets its own; and an invalid
// Config, NaN clock included, errors on every call and is never
// stored.
func TestInventoryShared(t *testing.T) {
	a, err := NewInventory(Default())
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := NewInventory(Default()); b != a {
		t.Error("equal configs returned different inventories")
	}
	if !reflect.DeepEqual(a, buildInventory(Default())) {
		t.Error("the shared inventory differs from a fresh build")
	}
	if sub, _ := NewInventory(Subset()); sub == a || len(sub.FUs) != 8 {
		t.Error("the subset config did not get an inventory of its own")
	}
	nan, mix := Default(), Default()
	nan.ClockHz = math.NaN()
	mix.Singlets++
	for _, bad := range []Config{nan, mix} {
		before := storedInventories()
		for i := 0; i < 3; i++ {
			if inv, err := NewInventory(bad); err == nil || inv != nil {
				t.Errorf("call %d: invalid config returned %v, %v", i, inv, err)
			}
		}
		if got := storedInventories(); got != before {
			t.Errorf("invalid config stored: %d inventories, had %d", got, before)
		}
	}
}

// TestInventoryFirstUseRace: goroutines racing on a Config's first use
// all get the one Inventory that is stored.
func TestInventoryFirstUseRace(t *testing.T) {
	cfg := Default()
	for cfg.ClockHz = 21e6; storedInventoryFor(cfg) != nil; cfg.ClockHz++ {
		// find a Config nothing has built yet
	}
	got := make([]*Inventory, 8)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i], _ = NewInventory(cfg)
		}()
	}
	close(start)
	wg.Wait()
	for i, inv := range got {
		if inv == nil || inv != storedInventoryFor(cfg) {
			t.Errorf("goroutine %d got %p, stored %p", i, inv, storedInventoryFor(cfg))
		}
	}
}

// storedInventoryFor returns the shared Inventory of cfg, if built.
func storedInventoryFor(cfg Config) *Inventory {
	inventories.Lock()
	defer inventories.Unlock()
	return inventories.m[cfg]
}

func TestPlaneAndCacheWords(t *testing.T) {
	c := Default()
	if got := c.PlaneWords(); got != (128<<20)/8 {
		t.Errorf("PlaneWords = %d", got)
	}
	if got := c.CacheWords(); got != (8<<10)/8 {
		t.Errorf("CacheWords = %d", got)
	}
}
