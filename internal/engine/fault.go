package engine

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/diag"
)

// This file is the fault-injection half of the engine's robustness
// layer (the recovery half lives with the client, which owns the
// checkpoint representation and feeds it back through the loop's
// Take/Rollback hooks). Machines of the NSC's class could not finish
// long iterative solves without engineering around node and link
// faults; the engine models the three failure modes that dominated in
// practice — a node dispatch that is lost, a link payload corrupted in
// transit, and a link that stalls — at deterministic, plan-chosen
// sweep/phase points, so the recovery machinery can be tested
// bit-for-bit against fault-free runs.

// FaultKind classifies an injected fault.
type FaultKind int

// Fault kinds.
const (
	// FaultKill loses the operation entirely (a killed node dispatch or
	// a dropped message); recovery is bounded retry with backoff.
	FaultKill FaultKind = iota
	// FaultCorrupt delivers a bit-flipped payload; the modeled link CRC
	// detects it and the driver re-sends. Only meaningful on the link
	// phases (exchange, merge) — a payload must move to be corrupted.
	FaultCorrupt
	// FaultStall delays the operation by Stall simulated cycles; the
	// operation still completes, so no retry is needed.
	FaultStall
	// FaultKillForever is a permanent node death: the rank never
	// dispatches again, so no retry can help. The loop reports the dead
	// rank through a DeadRankError and the client recovers by activating
	// a hot spare or re-partitioning over the survivors (see
	// recovery.go). Only meaningful on the dispatch phase — a node dies,
	// not a message.
	FaultKillForever
)

func (k FaultKind) String() string {
	switch k {
	case FaultKill:
		return "kill"
	case FaultCorrupt:
		return "corrupt"
	case FaultStall:
		return "stall"
	case FaultKillForever:
		return "kill-forever"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// Phase names the point in a sweep where a fault strikes.
type Phase int

// Sweep phases.
const (
	// PhaseDispatch is the per-node sweep dispatch; Rank is the ring
	// rank of the victim node.
	PhaseDispatch Phase = iota
	// PhaseExchange is the ghost-plane exchange; Rank is the lower ring
	// rank of the victim pair (r, r+1).
	PhaseExchange
	// PhaseMerge is the log₂P residual combine; Rank is the combine
	// round (hypercube dimension index).
	PhaseMerge
)

func (ph Phase) String() string {
	switch ph {
	case PhaseDispatch:
		return "dispatch"
	case PhaseExchange:
		return "exchange"
	case PhaseMerge:
		return "merge"
	}
	return fmt.Sprintf("Phase(%d)", int(ph))
}

// FaultEvent is one planned fault: kind Kind strikes phase Phase of
// sweep Sweep at rank Rank, firing Repeat consecutive times before
// clearing (a transient fault that heals after Repeat attempts).
type FaultEvent struct {
	Sweep  int
	Phase  Phase
	Rank   int
	Kind   FaultKind
	Repeat int   // attempts the fault survives; 0 means 1
	Stall  int64 // simulated stall cycles (FaultStall only)
}

func (ev FaultEvent) String() string {
	s := fmt.Sprintf("%s:%s@%d:%d", ev.Phase, ev.Kind, ev.Sweep, ev.Rank)
	if ev.Repeat > 1 {
		s += fmt.Sprintf(":repeat=%d", ev.Repeat)
	}
	if ev.Kind == FaultStall {
		s += fmt.Sprintf(":stall=%d", ev.Stall)
	}
	return s
}

// FaultPlan is a deterministic fault schedule. Plans are injected via
// the loop configuration (never the global math/rand state), so a
// given plan reproduces the same faults at the same points on every
// run, whatever the worker count.
type FaultPlan struct {
	Events []FaultEvent
	// fired counts, per event, how many times it has struck. The
	// counters are the plan's only mutable state; they are serialized
	// into checkpoints so a restored run does not re-suffer faults it
	// already survived.
	fired []int64
}

// NewFaultPlan validates the events and returns a plan.
func NewFaultPlan(events ...FaultEvent) (*FaultPlan, error) {
	p := &FaultPlan{Events: events, fired: make([]int64, len(events))}
	for i := range p.Events {
		ev := &p.Events[i]
		if ev.Repeat <= 0 {
			ev.Repeat = 1
		}
		if ev.Sweep < 0 || ev.Rank < 0 {
			return nil, fmt.Errorf("engine: fault %s: negative sweep or rank", ev)
		}
		switch ev.Kind {
		case FaultKill:
		case FaultCorrupt:
			if ev.Phase == PhaseDispatch {
				return nil, fmt.Errorf("engine: fault %s: corrupt faults need a link phase (exchange or merge); a dispatch moves no payload", ev)
			}
		case FaultStall:
			if ev.Stall <= 0 {
				return nil, fmt.Errorf("engine: fault %s: stall faults need stall cycles > 0", ev)
			}
		case FaultKillForever:
			if ev.Phase != PhaseDispatch {
				return nil, fmt.Errorf("engine: fault %s: kill-forever is a node death and strikes the dispatch phase only", ev)
			}
			// A dead node cannot die twice; one firing is the whole event.
			ev.Repeat = 1
		default:
			return nil, fmt.Errorf("engine: fault event %d: unknown kind %d", i, int(ev.Kind))
		}
		switch ev.Phase {
		case PhaseDispatch, PhaseExchange, PhaseMerge:
		default:
			return nil, fmt.Errorf("engine: fault event %d: unknown phase %d", i, int(ev.Phase))
		}
	}
	return p, nil
}

// checkRanks rejects an event that names a point the machine does not
// have: such an event could never fire, and the run would report a
// clean solve for a plan that injected nothing. A dispatch event names
// a rank (< P), an exchange event the lower rank of a ring pair
// (< P−1) and a merge event a combine round (< len(CombineHops())).
// Sweeps are not checked: a run may legitimately stop before an event.
func (p *FaultPlan) checkRanks(f Fabric) error {
	if p == nil {
		return nil
	}
	for _, ev := range p.Events {
		what, n := "rank", f.P()
		switch ev.Phase {
		case PhaseExchange:
			what, n = "exchange pair", f.P()-1
		case PhaseMerge:
			what, n = "combine round", len(f.CombineHops())
		}
		if ev.Rank < n {
			continue
		}
		valid := "none"
		if n > 0 {
			valid = fmt.Sprintf("0..%d", n-1)
		}
		return planErrf("event %s names %s %d, but the %d-rank machine's %ss are %s",
			ev, what, ev.Rank, f.P(), what, valid)
	}
	return nil
}

// MustFaultPlan is NewFaultPlan for known-good plans.
func MustFaultPlan(events ...FaultEvent) *FaultPlan {
	p, err := NewFaultPlan(events...)
	if err != nil {
		panic(err)
	}
	return p
}

// RandomFaultPlan derives a plan of n transient kill faults from its
// own seeded generator: sweeps in [0, sweeps), dispatch or exchange
// phase, ranks in [0, ranks). The same seed always yields the same
// plan.
func RandomFaultPlan(seed int64, sweeps, ranks, n int) *FaultPlan {
	rng := rand.New(rand.NewSource(seed))
	events := make([]FaultEvent, 0, n)
	for i := 0; i < n; i++ {
		ev := FaultEvent{
			Sweep:  rng.Intn(sweeps),
			Kind:   FaultKill,
			Repeat: 1 + rng.Intn(2),
		}
		if ranks > 1 && rng.Intn(2) == 1 {
			ev.Phase = PhaseExchange
			ev.Rank = rng.Intn(ranks - 1)
		} else {
			ev.Phase = PhaseDispatch
			ev.Rank = rng.Intn(ranks)
		}
		events = append(events, ev)
	}
	return MustFaultPlan(events...)
}

// HasPermanent reports whether the plan contains any kill-forever
// event — the signal for clients to arm buddy checkpointing before the
// solve starts. Nil-safe.
func (p *FaultPlan) HasPermanent() bool {
	if p == nil {
		return false
	}
	for _, ev := range p.Events {
		if ev.Kind == FaultKillForever {
			return true
		}
	}
	return false
}

// RandomChaosPlan derives a mixed plan from its own seeded generator:
// transient kills, link corruptions and stalls across all phases, the
// chaos-smoke battery's input. Permanent kills are not included — a
// chaos test appends its own, so the recovery path under test is
// explicit. The same seed always yields the same plan.
func RandomChaosPlan(seed int64, sweeps, ranks, n int) *FaultPlan {
	rng := rand.New(rand.NewSource(seed))
	events := make([]FaultEvent, 0, n)
	for i := 0; i < n; i++ {
		ev := FaultEvent{Sweep: rng.Intn(sweeps), Repeat: 1 + rng.Intn(2)}
		switch rng.Intn(3) {
		case 0: // transient dispatch kill
			ev.Kind = FaultKill
			ev.Phase = PhaseDispatch
			ev.Rank = rng.Intn(ranks)
		case 1: // link corruption (exchange when possible, else merge)
			ev.Kind = FaultCorrupt
			if ranks > 1 && rng.Intn(2) == 0 {
				ev.Phase = PhaseExchange
				ev.Rank = rng.Intn(ranks - 1)
			} else {
				ev.Phase = PhaseMerge
				ev.Rank = 0
			}
		default: // stall on any phase
			ev.Kind = FaultStall
			ev.Stall = int64(100 + rng.Intn(900))
			if ranks > 1 && rng.Intn(2) == 0 {
				ev.Phase = PhaseExchange
				ev.Rank = rng.Intn(ranks - 1)
			} else {
				ev.Phase = PhaseDispatch
				ev.Rank = rng.Intn(ranks)
			}
		}
		events = append(events, ev)
	}
	return MustFaultPlan(events...)
}

// trigger returns the next unexpired event matching (sweep, phase,
// rank) and consumes one firing, or nil. Nil-safe. Concurrent callers
// are safe because the loop serves each (phase, rank) point from a
// single goroutine per barrier interval: the immutable key fields are
// compared before the per-event counter is touched, so no two
// goroutines ever race on one counter.
func (p *FaultPlan) trigger(sweep int, ph Phase, rank int) *FaultEvent {
	if p == nil {
		return nil
	}
	for i := range p.Events {
		ev := &p.Events[i]
		if ev.Sweep == sweep && ev.Phase == ph && ev.Rank == rank && p.fired[i] < int64(ev.Repeat) {
			p.fired[i]++
			return ev
		}
	}
	return nil
}

// FiredSnapshot copies the per-event firing counters (checkpointing).
func (p *FaultPlan) FiredSnapshot() []int64 {
	if p == nil {
		return nil
	}
	return append([]int64(nil), p.fired...)
}

// SetFired restores the firing counters from a checkpoint. Counts are
// clamped to the plan's own length so a plan/checkpoint mismatch
// degrades to re-firing rather than panicking.
func (p *FaultPlan) SetFired(counts []int64) {
	if p == nil {
		return
	}
	for i := range p.fired {
		if i < len(counts) {
			p.fired[i] = counts[i]
		}
	}
}

// faultEventGrammar is the event grammar quoted by every parse
// diagnostic, so a bad spec's error always shows what was expected
// next to the offending token.
const faultEventGrammar = "phase:kind@sweep:rank[:repeat=N][:stall=C] " +
	"(phase ∈ dispatch|exchange|merge, kind ∈ kill|kill-forever|corrupt|stall)"

// planErrf builds the typed diagnostic every fault-plan parse error
// carries (rule R040): the offending token plus the expected grammar.
func planErrf(format string, args ...any) *diag.DiagError {
	return diag.Errorf(diag.RuleFaultPlan, "fault plan: "+format, args...)
}

// ParseFaultPlan parses the nscsim -faults syntax: a comma-separated
// event list, each event
//
//	phase:kind@sweep:rank[:repeat=N][:stall=C]
//
// with phase ∈ {dispatch, exchange, merge} and kind ∈ {kill,
// kill-forever, corrupt, stall}; or the seeded form
//
//	seed@S:sweeps=N:ranks=P:events=K
//
// which expands through RandomFaultPlan(S, N, P, K).
//
// Errors are typed diagnostics (diag.RuleFaultPlan) naming the
// offending token and the expected grammar. Two events aiming at the
// same (sweep, phase, rank) are rejected — the second could never fire
// independently of the first, so a duplicate is always a spec mistake.
// Seeded plans bypass the duplicate check: they are generated, not
// hand-written.
func ParseFaultPlan(spec string) (*FaultPlan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return NewFaultPlan()
	}
	if rest, ok := strings.CutPrefix(spec, "seed@"); ok {
		parts := strings.Split(rest, ":")
		if len(parts) != 4 {
			return nil, planErrf("spec %q: want seed@S:sweeps=N:ranks=P:events=K", spec)
		}
		seed, err := strconv.ParseInt(parts[0], 10, 64)
		if err != nil {
			return nil, planErrf("seed %q is not an integer: want seed@S:sweeps=N:ranks=P:events=K", parts[0])
		}
		kv := map[string]int{}
		for _, part := range parts[1:] {
			k, v, ok := strings.Cut(part, "=")
			if !ok {
				return nil, planErrf("field %q: want key=value in seed@S:sweeps=N:ranks=P:events=K", part)
			}
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				return nil, planErrf("field %q: want a positive integer", part)
			}
			kv[k] = n
		}
		for _, k := range []string{"sweeps", "ranks", "events"} {
			if kv[k] == 0 {
				return nil, planErrf("spec %q: missing %s= (want seed@S:sweeps=N:ranks=P:events=K)", spec, k)
			}
		}
		return RandomFaultPlan(seed, kv["sweeps"], kv["ranks"], kv["events"]), nil
	}

	type point struct {
		sweep int
		ph    Phase
		rank  int
	}
	seen := map[point]string{}
	var events []FaultEvent
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		ev, err := parseFaultEvent(tok)
		if err != nil {
			return nil, err
		}
		pt := point{ev.Sweep, ev.Phase, ev.Rank}
		if prev, dup := seen[pt]; dup {
			return nil, planErrf("event %q duplicates %q: two events target sweep %d %s rank %d (use repeat=N for multi-firing faults)",
				tok, prev, ev.Sweep, ev.Phase, ev.Rank)
		}
		seen[pt] = tok
		events = append(events, ev)
	}
	plan, err := NewFaultPlan(events...)
	if err != nil {
		return nil, planErrf("%v", err)
	}
	return plan, nil
}

func parseFaultEvent(tok string) (FaultEvent, error) {
	var ev FaultEvent
	head, at, ok := strings.Cut(tok, "@")
	if !ok {
		return ev, planErrf("event %q has no @sweep:rank part: want %s", tok, faultEventGrammar)
	}
	phase, kind, ok := strings.Cut(head, ":")
	if !ok {
		return ev, planErrf("event %q: missing phase:kind before @: want %s", tok, faultEventGrammar)
	}
	switch phase {
	case "dispatch":
		ev.Phase = PhaseDispatch
	case "exchange":
		ev.Phase = PhaseExchange
	case "merge":
		ev.Phase = PhaseMerge
	default:
		return ev, planErrf("phase %q in event %q: want dispatch, exchange or merge", phase, tok)
	}
	switch kind {
	case "kill":
		ev.Kind = FaultKill
	case "kill-forever":
		ev.Kind = FaultKillForever
	case "corrupt":
		ev.Kind = FaultCorrupt
	case "stall":
		ev.Kind = FaultStall
		ev.Stall = 1 // overridable via :stall=
	default:
		return ev, planErrf("kind %q in event %q: want kill, kill-forever, corrupt or stall", kind, tok)
	}
	parts := strings.Split(at, ":")
	if len(parts) < 2 {
		return ev, planErrf("event %q: want @sweep:rank after the kind: %s", tok, faultEventGrammar)
	}
	var err error
	if ev.Sweep, err = strconv.Atoi(parts[0]); err != nil {
		return ev, planErrf("sweep %q in event %q is not an integer: want %s", parts[0], tok, faultEventGrammar)
	}
	if ev.Rank, err = strconv.Atoi(parts[1]); err != nil {
		return ev, planErrf("rank %q in event %q is not an integer: want %s", parts[1], tok, faultEventGrammar)
	}
	for _, part := range parts[2:] {
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return ev, planErrf("option %q in event %q: want repeat=N or stall=C", part, tok)
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return ev, planErrf("option %q in event %q is not an integer: want repeat=N or stall=C", part, tok)
		}
		switch k {
		case "repeat":
			ev.Repeat = int(n)
		case "stall":
			ev.Stall = n
		default:
			return ev, planErrf("option %q in event %q: want repeat= or stall=", part, tok)
		}
	}
	return ev, nil
}

// The fault-recovery budget. Backoff is expressed in simulated machine
// cycles: retry a (0-based) charges min(retryBackoff·2^a,
// retryBackoffCap) to the faulted operation's critical path, the
// classic exponential schedule.
const (
	// maxAttempts is the per-operation attempt budget per sweep,
	// initial try included.
	maxAttempts     = 3
	retryBackoff    = 64
	retryBackoffCap = 4096
	// maxRestores bounds checkpoint restores per solve, so a permanent
	// fault cannot restore forever.
	maxRestores = 4
)

// backoff returns the simulated-cycle penalty of retry `attempt`
// (0-based).
func backoff(attempt int) int64 {
	b := int64(retryBackoff)
	for i := 0; i < attempt && b < retryBackoffCap; i++ {
		b <<= 1
	}
	return min(b, retryBackoffCap)
}

// BudgetError reports a retry budget exhausted by injected faults. The
// loop converts it into a checkpoint restore when one is available;
// otherwise it surfaces to the caller.
type BudgetError struct {
	Sweep    int
	Phase    Phase
	Rank     int
	Attempts int
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("engine: sweep %d %s rank %d: fault persisted through %d attempts",
		e.Sweep, e.Phase, e.Rank, e.Attempts)
}

// FaultStats counts injected faults and the recovery work they caused.
// Zero faults means zero overhead: every counter stays 0 and no
// simulated cycle is charged.
type FaultStats struct {
	// Injected counts fault events fired, by kind below.
	Injected    int64
	Kills       int64
	Corruptions int64
	Stalls      int64
	// Retries counts re-attempts; BackoffCycles their simulated cost.
	Retries       int64
	BackoffCycles int64
	// StallCycles is the simulated time lost to link/node stalls.
	StallCycles int64
	// Exhausted counts operations whose attempt budget ran out.
	Exhausted int64
	// Checkpoints counts snapshots taken; Restores counts rollbacks.
	Checkpoints int64
	Restores    int64
}

// Add accumulates o into s.
func (s *FaultStats) Add(o FaultStats) {
	s.Injected += o.Injected
	s.Kills += o.Kills
	s.Corruptions += o.Corruptions
	s.Stalls += o.Stalls
	s.Retries += o.Retries
	s.BackoffCycles += o.BackoffCycles
	s.StallCycles += o.StallCycles
	s.Exhausted += o.Exhausted
	s.Checkpoints += o.Checkpoints
	s.Restores += o.Restores
}

func (s FaultStats) String() string {
	return fmt.Sprintf("injected=%d (kill=%d corrupt=%d stall=%d) retries=%d backoff=%d stallcycles=%d exhausted=%d checkpoints=%d restores=%d",
		s.Injected, s.Kills, s.Corruptions, s.Stalls, s.Retries, s.BackoffCycles, s.StallCycles, s.Exhausted, s.Checkpoints, s.Restores)
}
