// Package sim provides a deterministic discrete-event simulation engine
// with cooperative processes.
//
// The engine maintains a priority queue of events keyed by (cycle, sequence
// number). Exactly one entity — the engine's event loop or a single process
// goroutine — runs at any moment, so simulations are fully reproducible:
// the same inputs always produce the same event ordering and timings.
//
// The queue is split for speed: a monomorphic binary heap holds future
// events, and a plain FIFO holds events scheduled for the current cycle —
// the very common After(0, …) pattern (process wakeups, controller queue
// handoffs, hook completions) therefore skips heap churn entirely. Both
// structures order events by the same (cycle, seq) key, so the split is
// invisible: dispatch order is byte-identical to a single heap.
package sim

import (
	"fmt"
	"sync/atomic"
)

// totalCycles accumulates simulated cycles across every engine in the
// process, backing the SimulatedCycles compatibility shim. Engines flush
// their progress when they finish running (Drain, RunUntil, Close) and on
// a cheap cadence from Step, so the counter stays fresh even for callers
// driving the engine with bare Step() loops.
var totalCycles atomic.Uint64

// totalEvents accumulates executed events across every engine, for
// throughput reporting (events/sec) in the benchmark harness.
var totalEvents atomic.Uint64

// SimulatedCycles returns the total simulated cycles executed by all
// engines so far. It is a compatibility shim for coarse progress
// reporting only: per-engine counts are published as the "sim.cycles"
// metric in each machine's metrics registry, which is what the
// experiment runner sums for exact per-job attribution.
func SimulatedCycles() uint64 { return totalCycles.Load() }

// SimulatedEvents returns the total events executed by all engines so
// far. Like SimulatedCycles it is a process-wide aggregate for coarse
// throughput reporting (internal/bench), flushed on the same cadence.
func SimulatedEvents() uint64 { return totalEvents.Load() }

// cycleFlushPeriod is how far simulated time may advance before Step
// flushes the process-wide counters. One comparison per time-advancing
// event buys bounded staleness for Step-driven loops.
const cycleFlushPeriod = 1 << 12

// Cycle is a point in simulated time, measured in CPU clock cycles.
type Cycle = uint64

// event is a scheduled callback. Events with equal cycles fire in the order
// they were scheduled (seq breaks ties), which keeps the simulation
// deterministic.
type event struct {
	when Cycle
	seq  uint64
	fn   func()
}

// before reports whether a orders ahead of b. (when, seq) pairs are
// unique: seq is a per-engine monotone counter.
func (a *event) before(b *event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// Engine is a discrete-event simulator. The zero value is not usable; create
// one with NewEngine.
type Engine struct {
	now Cycle
	seq uint64

	// heap holds events strictly ordered after the current cycle's FIFO
	// tail at insert time: At routes when == now to fifo, everything later
	// here. It is a plain binary min-heap on (when, seq) with inlined
	// sift operations — no interfaces, no boxing.
	heap []event
	// fifo holds events scheduled for the current cycle, in seq order by
	// construction (seq is monotone and only At(now) appends). fifoHead
	// avoids reslicing on pop; the backing array is reused once drained.
	fifo     []event
	fifoHead int

	procs    []*Proc // live processes, for deadlock diagnostics and Close
	limit    Cycle   // cycle budget; Step panics past it (0 = unlimited)
	closed   bool
	reported Cycle  // cycles already flushed into totalCycles
	executed uint64 // events run by this engine
	repEv    uint64 // events already flushed into totalEvents

	// advance, when set, fires whenever simulated time moves from `from`
	// to `to` (from < to), before the event at `to` runs. At that instant
	// every event scheduled at or before `from` has executed and no event
	// exists in (from, to), so an observer sampling at boundaries inside
	// (from, to] sees a state determined solely by the event history —
	// the timeline plane's determinism rests on this. Disabled cost: one
	// nil check per time-advancing event.
	advance func(from, to Cycle)
}

// NewEngine returns an engine with simulated time at cycle 0.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated cycle.
func (e *Engine) Now() Cycle { return e.now }

// CycleLimitError is the panic value raised by Step when simulated time
// passes the engine's cycle limit (SetCycleLimit). It
// converts livelocked or runaway simulations into a structured failure the
// job runner can report instead of hanging forever.
type CycleLimitError struct {
	Limit Cycle // the configured budget
	Now   Cycle // the cycle that exceeded it
}

func (e *CycleLimitError) Error() string {
	return fmt.Sprintf("sim: cycle budget exceeded (limit %d, reached %d)", e.Limit, e.Now)
}

// SetCycleLimit installs a cycle budget: once simulated time advances past
// limit, Step panics with *CycleLimitError. 0 removes the budget. The check
// costs one comparison per time-advancing event; same-cycle events are
// unaffected (time does not move).
func (e *Engine) SetCycleLimit(limit Cycle) { e.limit = limit }

// At schedules fn to run at the given absolute cycle. Scheduling in the past
// panics: it indicates a component computed a completion time before "now",
// which is always a modeling bug. On a closed engine At is a no-op (events
// cannot run again), so teardown paths of released processes stay safe.
func (e *Engine) At(when Cycle, fn func()) {
	if e.closed {
		return
	}
	if when < e.now {
		panic(fmt.Sprintf("sim: scheduling event at cycle %d, before now (%d)", when, e.now))
	}
	e.seq++
	if when == e.now {
		e.fifo = append(e.fifo, event{when: when, seq: e.seq, fn: fn})
		return
	}
	e.push(event{when: when, seq: e.seq, fn: fn})
}

// After schedules fn to run delay cycles from now.
func (e *Engine) After(delay Cycle, fn func()) { e.At(e.now+delay, fn) }

// Pending reports the number of scheduled events.
func (e *Engine) Pending() int { return len(e.heap) + len(e.fifo) - e.fifoHead }

// Executed reports the number of events this engine has run.
func (e *Engine) Executed() uint64 { return e.executed }

// Step runs the next event, advancing simulated time to its cycle. It
// reports whether an event was run.
func (e *Engine) Step() bool {
	// Same-cycle fast path. A heap event can still be due first: it was
	// scheduled for this cycle before time advanced here, so its seq is
	// smaller. fifo[fifoHead] has the smallest seq in the FIFO, so one
	// (when, seq) comparison against the heap root decides.
	if e.fifoHead < len(e.fifo) {
		ev := &e.fifo[e.fifoHead]
		if len(e.heap) == 0 || e.heap[0].when > e.now || e.heap[0].seq > ev.seq {
			fn := ev.fn
			ev.fn = nil
			e.fifoHead++
			if e.fifoHead == len(e.fifo) {
				e.fifo = e.fifo[:0]
				e.fifoHead = 0
			}
			e.executed++
			fn()
			return true
		}
	}
	if len(e.heap) == 0 {
		return false
	}
	ev := e.pop()
	prev := e.now
	e.now = ev.when
	if e.limit != 0 && e.now > e.limit {
		e.flushCycles()
		panic(&CycleLimitError{Limit: e.limit, Now: e.now})
	}
	e.executed++
	if e.now-e.reported >= cycleFlushPeriod {
		e.flushCycles()
	}
	if e.advance != nil && e.now > prev {
		e.advance(prev, e.now)
	}
	ev.fn()
	return true
}

// OnAdvance installs fn to be called whenever simulated time advances from
// one cycle to a later one — after all events at the old cycle have run
// and before any event at the new cycle does. nil uninstalls. Only one
// hook is supported; installing over an existing hook panics, because a
// silently dropped observer would corrupt whatever it was recording.
func (e *Engine) OnAdvance(fn func(from, to Cycle)) {
	if fn != nil && e.advance != nil {
		panic("sim: OnAdvance hook already installed")
	}
	e.advance = fn
}

// push inserts ev into the heap (sift-up with a hole, no boxing).
func (e *Engine) push(ev event) {
	h := append(e.heap, event{})
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].before(&ev) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	e.heap = h
}

// pop removes and returns the heap minimum (sift-down with a hole).
func (e *Engine) pop() event {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n].fn = nil // release the closure for GC
	e.heap = h[:n]
	if n > 0 {
		h = h[:n]
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && h[r].before(&h[c]) {
				c = r
			}
			if last.before(&h[c]) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = last
	}
	return top
}

// nextWhen returns the cycle of the next due event, if any.
func (e *Engine) nextWhen() (Cycle, bool) {
	if e.fifoHead < len(e.fifo) {
		return e.now, true
	}
	if len(e.heap) > 0 {
		return e.heap[0].when, true
	}
	return 0, false
}

// RunUntil runs events up to and including the given cycle, then advances
// simulated time to limit even when later events remain pending — a
// bounded run simulates exactly limit-Now() cycles, so "sim.cycles" does
// not under-report on runs that stop mid-queue.
func (e *Engine) RunUntil(limit Cycle) {
	for {
		when, ok := e.nextWhen()
		if !ok || when > limit {
			break
		}
		e.Step()
	}
	if e.now < limit {
		prev := e.now
		e.now = limit
		if e.advance != nil {
			e.advance(prev, limit)
		}
	}
	e.flushCycles()
}

// Drain runs events until none remain. If a process is still blocked when
// the queue empties, Drain panics: the simulation has deadlocked.
func (e *Engine) Drain() {
	for e.Step() {
	}
	e.flushCycles()
	for _, p := range e.procs {
		if !p.finished {
			panic("sim: Drain with blocked process(es): " + p.name)
		}
	}
}

// Close releases every parked process goroutine and drops all pending
// events. Abandoned engines (bounded runs, panicked jobs, benchmark
// harnesses) otherwise leak one goroutine per suspended process for the
// life of the program. Close must be called when the engine is not
// running — never from an event callback or a process. After Close the
// engine schedules nothing, Step reports false, and Go panics.
// Idempotent.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	e.flushCycles()
	for _, p := range e.procs {
		if p.finished {
			continue
		}
		// Exactly one entity runs at a time and it is the caller, so every
		// unfinished process is blocked receiving on its wake channel —
		// either parked or awaiting its first resume. Waking it with
		// aborted set makes it exit (via runtime.Goexit for parked
		// processes); the yield receive is its termination ack.
		p.aborted = true
		p.wake <- struct{}{}
		<-p.yield
	}
	e.heap, e.fifo, e.fifoHead, e.procs = nil, nil, 0, nil
}

// flushCycles publishes this engine's progress into the process-wide
// counters. Idempotent: only the progress since the last flush is added.
func (e *Engine) flushCycles() {
	if e.now > e.reported {
		totalCycles.Add(uint64(e.now - e.reported))
		e.reported = e.now
	}
	if e.executed > e.repEv {
		totalEvents.Add(e.executed - e.repEv)
		e.repEv = e.executed
	}
}
