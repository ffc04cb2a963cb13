package engine

import (
	"runtime"
	"sync/atomic"
	"time"
)

// spinWindow is how long an idle helper waits for the next phase
// before it exits. A multigrid V-cycle's barriers arrive a few tens of
// microseconds apart, with gaps of a few hundred where the host runs
// the grid transfers and the coarse chain, and waking a parked
// goroutine for each barrier costs more than the barrier's work. In
// 8 s nscbench runs of the multigrid op on a 2-CPU host, a goroutine
// per rank per barrier read 34.5–35.3 ms, helpers that exit after 64
// idle polls 29.5–30.5 ms, a 50 µs window 25.1–28.8 ms, 200 µs
// 26.0–26.8 ms and 1 ms 26.4–27.3 ms.
const spinWindow = 200 * time.Microsecond

// pool runs one phase at a time: the items 0..n-1 of fn, shared
// between the calling goroutine and up to cap helper goroutines. The
// helpers live across phases. One that has finished its share spins on
// the phase counter for spinWindow and exits if no phase arrives; the
// next phase starts it again. A Loop keeps one pool for its whole life,
// and ParallelFor is a pool used for one phase.
//
// The phase counter seq is odd while a phase is open. The caller writes
// the phase (fn, n, errs) while seq is even, opens it, takes its own
// share, closes it and then waits until no helper is inside it. A
// helper enters a phase by counting itself active and then checking
// that seq is still the value it saw, so once the caller has closed a
// phase and seen no helper active, no helper touches it again.
type pool struct {
	cap int

	seq    atomic.Uint64
	active atomic.Int32 // helpers inside the open phase
	live   atomic.Int32 // helper goroutines running
	quit   atomic.Bool

	fn   func(i int) error
	n    int
	next atomic.Int64 // next unclaimed item
	low  atomic.Int64 // lowest failed item so far, n when none failed
	errs []error
}

// newPool returns a pool for phases of up to n items with `workers`
// goroutines in all, the caller included: workers < 0 means
// GOMAXPROCS, and no more goroutines start than there are items or
// GOMAXPROCS.
func newPool(workers, n int) *pool {
	procs := runtime.GOMAXPROCS(0)
	if workers < 0 {
		workers = procs
	}
	return &pool{cap: max(0, min(workers, n, procs)-1)}
}

// ParallelFor runs fn(0..n-1) on the calling goroutine and up to
// workers−1 helpers, no more than GOMAXPROCS goroutines in all.
// Semantics follow the errgroup shape: the first error cancels — once
// an item has failed, no item above the lowest failed index starts,
// though items already in flight run to completion. The returned
// error is deterministic regardless of scheduling: among all failed
// items, the one with the lowest index wins, exactly as in a
// sequential loop that stops at the first error.
//
// workers <= 1 (or n <= 1) runs every item on the caller, so
// sequential and parallel callers share one code path and produce
// identical effects. workers < 0 means GOMAXPROCS.
func ParallelFor(workers, n int, fn func(i int) error) error {
	p := newPool(workers, n)
	defer p.close()
	return p.run(n, fn)
}

// run executes one phase: fn(0..n-1) on the caller and the helpers,
// returning the lowest-index error. It returns when every item has
// finished or been skipped and no helper is inside the phase.
func (p *pool) run(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	p.fn, p.n = fn, n
	if len(p.errs) < n {
		p.errs = make([]error, n)
	}
	p.next.Store(0)
	p.low.Store(int64(n))
	p.quit.Store(false)
	p.seq.Add(1) // open
	for int(p.live.Load()) < min(p.cap, n-1) {
		p.live.Add(1)
		go p.helper()
	}
	p.drain()
	p.seq.Add(1) // closed: no helper enters after this
	for p.active.Load() != 0 {
		runtime.Gosched()
	}
	p.fn = nil
	low := p.low.Load()
	if low == int64(n) {
		return nil
	}
	err := p.errs[low]
	clear(p.errs[:n])
	return err
}

// drain claims and runs the open phase's items until none is left. An
// item above the lowest failed index so far is claimed but skipped.
func (p *pool) drain() {
	n := int64(p.n)
	for {
		i := p.next.Add(1) - 1
		if i >= n {
			return
		}
		if i > p.low.Load() {
			continue
		}
		if err := p.fn(int(i)); err != nil {
			p.errs[i] = err
			for low := p.low.Load(); i < low && !p.low.CompareAndSwap(low, i); low = p.low.Load() {
			}
		}
	}
}

// helper takes a share of every phase that opens while it runs. Idle,
// it spins on the phase counter, yielding its processor to any other
// runnable goroutine as it goes, and exits after spinWindow without a
// phase or as soon as the pool is closed.
func (p *pool) helper() {
	defer p.live.Add(-1)
	var last uint64
	idle := time.Now()
	for spins := 1; ; spins++ {
		if s := p.seq.Load(); s&1 == 1 && s != last {
			p.active.Add(1)
			if p.seq.Load() == s {
				p.drain()
			}
			p.active.Add(-1)
			last, idle = s, time.Now()
			continue
		}
		if p.quit.Load() || spins%64 == 0 && time.Since(idle) > spinWindow {
			return
		}
		runtime.Gosched()
	}
}

// close stops the helpers now rather than at the end of their window
// and returns once they have exited. A later run starts them again.
func (p *pool) close() {
	p.quit.Store(true)
	for p.live.Load() != 0 {
		runtime.Gosched()
	}
}
