package arch

import "fmt"

// Node-level exception handling configuration (§2: the central
// sequencer's "elaborate interrupt scheme"). The simulator detects
// IEEE-754 exception conditions per functional-unit application,
// models single/double-bit memory-plane ECC events and a sequencer
// watchdog; what happens when one of those conditions arises is a
// per-environment *policy*, configured here and consulted by the run
// layer on every dispatch.

// TrapPolicy selects how a node reacts to a detected exception.
type TrapPolicy int

const (
	// TrapOff disables policy-driven detection: only instructions whose
	// microcode trap bit (Seq.Trap) is set abort on non-finite results,
	// exactly the hardware-faithful seed behaviour. Zero value.
	TrapOff TrapPolicy = iota
	// TrapHalt stops the instruction at the first exception with a
	// structured error naming the unit, element and cycle.
	TrapHalt
	// TrapRetry re-dispatches the faulted instruction up to
	// TrapRetries times, pricing every attempt and its exponential
	// Backoff in simulated cycles. Transient faults (an expired ECC
	// event) recover to bit-identical results; persistent ones (a
	// deterministic 0/0) exhaust the budget and halt.
	TrapRetry
	// TrapQuietNaN records the exception and continues: invalid results
	// stream on as quiet NaNs, uncorrectable ECC reads are substituted
	// with NaN, and the trap counters keep score.
	TrapQuietNaN
)

// String returns the policy's flag spelling.
func (p TrapPolicy) String() string {
	switch p {
	case TrapOff:
		return "off"
	case TrapHalt:
		return "halt"
	case TrapRetry:
		return "retry"
	case TrapQuietNaN:
		return "quiet"
	}
	return fmt.Sprintf("TrapPolicy(%d)", int(p))
}

// ParseTrapPolicy parses the nscsim -trap-policy spelling.
func ParseTrapPolicy(s string) (TrapPolicy, error) {
	switch s {
	case "", "off":
		return TrapOff, nil
	case "halt":
		return TrapHalt, nil
	case "retry":
		return TrapRetry, nil
	case "quiet", "quietnan":
		return TrapQuietNaN, nil
	}
	return TrapOff, fmt.Errorf("arch: trap policy %q: want off, halt, retry or quiet", s)
}

// TrapConfig is one node's exception-handling configuration. The zero
// value (policy off, no watchdog) reproduces the seed simulator
// exactly and charges zero extra simulated cycles.
type TrapConfig struct {
	Policy TrapPolicy
	// WatchdogCycles, when positive, arms the sequencer watchdog: an
	// instruction whose drain point (plus issue overhead) exceeds this
	// budget raises a watchdog trap — fatal under TrapHalt, an alarm
	// interrupt under every other policy.
	WatchdogCycles int64
}

// TrapRetries is how many times a node re-dispatches a trapped
// instruction under TrapRetry before it halts.
const TrapRetries = 3

// Backoff returns the simulated-cycle penalty of retry `attempt`
// (0-based): 64 cycles, doubling per attempt, capped at 4096. A node
// re-dispatching a trapped instruction and the engine retrying a
// faulted operation both charge it, so node- and link-level recovery
// price time alike.
func Backoff(attempt int) int64 {
	const base, limit = 64, 4096
	b := int64(base)
	for i := 0; i < attempt && b < limit; i++ {
		b <<= 1
	}
	return min(b, limit)
}

// Armed reports whether the policy performs exception detection.
func (tc TrapConfig) Armed() bool { return tc.Policy != TrapOff }
