// Package sim provides a deterministic discrete-event simulation engine
// with cooperative processes.
//
// The engine maintains a priority queue of events keyed by (cycle, sequence
// number). Processes are coroutines the engine switches into directly, and
// exactly one entity — the engine's event loop or a single process — runs
// at any moment, so simulations are fully reproducible: the same inputs
// always produce the same event ordering and timings.
//
// The queue is split for speed: a 64-slot timing wheel holds the events
// due within the next 64 cycles — the hot same-cycle handoffs, cache and
// interconnect latencies and short process waits — and a monomorphic
// binary heap holds everything later. Both order events by the same
// (cycle, seq) key, so the split is invisible: dispatch order is
// byte-identical to a single heap.
package sim

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// totalEvents accumulates executed events across every engine in the
// process. Engines flush their progress when they finish running (Drain,
// RunUntil, Close, a CycleLimit panic) and on a cheap cadence from Step, so
// the counter stays fresh even for callers driving the engine with bare
// Step() loops.
var totalEvents atomic.Uint64

// SimulatedEvents returns the total events executed by all engines so far.
// It is a process-wide aggregate: mcperf reads it around a child's one
// round as that round's sim.events. Per-engine cycles are published as the
// "sim.cycles" metric in each machine's metrics registry instead.
func SimulatedEvents() uint64 { return totalEvents.Load() }

// cycleFlushPeriod is how far simulated time may advance before Step
// flushes the process-wide event counter. One comparison per time-advancing
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

// wheelSlots is the timing wheel's span: At sends an event due less than
// wheelSlots cycles from now to the wheel, anything later to the heap. It
// is the width of the occupancy word.
const (
	wheelSlots = 64
	wheelMask  = wheelSlots - 1
	nilNode    = -1
)

// wheelNode is one wheel event, linked into its slot's list or, once
// run, into the free list. The slot gives its cycle, and the list its
// place in seq order.
type wheelNode struct {
	fn   func()
	next int32
}

// Engine is a discrete-event simulator. The zero value is not usable; create
// one with NewEngine.
type Engine struct {
	now Cycle
	seq uint64

	// heap holds the events due wheelSlots or more cycles after the cycle
	// they were scheduled in. It is a plain binary min-heap on (when, seq)
	// with inlined sift operations — no interfaces, no boxing.
	heap []event
	// The timing wheel holds every other event. A pending wheel event is
	// due in [now, now+wheelSlots), so slot when&wheelMask holds exactly
	// one cycle; appends come in seq order, so each slot's list is in
	// (when, seq) order by construction. Bit s of occupied marks slot s
	// non-empty (its head and tail are meaningful only then). The lists
	// live in one slab, nodes, whose freed entries chain from free: the
	// slab grows only to the peak number of pending wheel events.
	slots    [wheelSlots]struct{ head, tail int32 }
	occupied uint64
	nodes    []wheelNode
	free     int32
	inWheel  int

	procs    []*Proc // live processes, for deadlock diagnostics and Close
	running  *Proc   // process being resumed, nil while the engine runs
	limit    Cycle   // cycle budget; Step panics past it (0 = unlimited)
	closed   bool
	reported Cycle  // cycle of the last flush into totalEvents
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
func NewEngine() *Engine { return &Engine{free: nilNode} }

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
	if when-e.now >= wheelSlots {
		e.push(event{when: when, seq: e.seq, fn: fn})
		return
	}
	i := e.free
	if i == nilNode {
		i = int32(len(e.nodes))
		e.nodes = append(e.nodes, wheelNode{fn: fn, next: nilNode})
	} else {
		n := &e.nodes[i]
		e.free = n.next
		n.fn, n.next = fn, nilNode
	}
	s := &e.slots[when&wheelMask]
	if bit := uint64(1) << (when & wheelMask); e.occupied&bit == 0 {
		e.occupied |= bit
		s.head = i
	} else {
		e.nodes[s.tail].next = i
	}
	s.tail = i
	e.inWheel++
}

// After schedules fn to run delay cycles from now.
func (e *Engine) After(delay Cycle, fn func()) { e.At(e.now+delay, fn) }

// Pending reports the number of scheduled events.
func (e *Engine) Pending() int { return len(e.heap) + e.inWheel }

// Executed reports the number of events this engine has run.
func (e *Engine) Executed() uint64 { return e.executed }

// wheelNext returns the cycle of the wheel's earliest event. The wheel
// must be non-empty: rotating the occupancy word so that bit 0 is now's
// slot makes the trailing-zero count the distance to the first due slot.
func (e *Engine) wheelNext() Cycle {
	return e.now + Cycle(bits.TrailingZeros64(bits.RotateLeft64(e.occupied, -int(e.now&wheelMask))))
}

// Step runs the next event, advancing simulated time to its cycle. It
// reports whether an event was run.
func (e *Engine) Step() bool {
	if e.running != nil {
		e.inProcPanic("Step")
	}
	// The head of the wheel's earliest slot is its least (when, seq). A
	// heap event due in the same cycle has a smaller seq: it was scheduled
	// wheelSlots or more cycles before it is due, the wheel event fewer,
	// and time never goes back. So the heap wins ties.
	var when Cycle
	var fn func()
	wheel := e.occupied != 0
	if wheel {
		when = e.wheelNext()
		wheel = len(e.heap) == 0 || e.heap[0].when > when
	}
	if wheel {
		s := &e.slots[when&wheelMask]
		i := s.head
		n := &e.nodes[i]
		fn = n.fn
		s.head = n.next
		if n.next == nilNode {
			e.occupied &^= 1 << (when & wheelMask)
		}
		*n = wheelNode{next: e.free}
		e.free = i
		e.inWheel--
	} else if len(e.heap) > 0 {
		ev := e.pop()
		when, fn = ev.when, ev.fn
	} else {
		return false
	}
	if when != e.now {
		prev := e.now
		e.now = when
		if e.limit != 0 && when > e.limit {
			e.flushEvents()
			panic(&CycleLimitError{Limit: e.limit, Now: when})
		}
		if when-e.reported >= cycleFlushPeriod {
			e.flushEvents()
		}
		if e.advance != nil {
			e.advance(prev, when)
		}
	}
	e.executed++
	fn()
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
	if e.occupied != 0 {
		when := e.wheelNext()
		if len(e.heap) > 0 && e.heap[0].when < when {
			when = e.heap[0].when
		}
		return when, true
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
	if e.running != nil {
		e.inProcPanic("RunUntil")
	}
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
	e.flushEvents()
}

// Drain runs events until none remain. If a process is still blocked when
// the queue empties, Drain panics: the simulation has deadlocked.
func (e *Engine) Drain() {
	if e.running != nil {
		e.inProcPanic("Drain")
	}
	for e.Step() {
	}
	e.flushEvents()
	for _, p := range e.procs {
		if !p.finished {
			panic("sim: Drain with blocked process(es): " + p.name)
		}
	}
}

// Close releases every unfinished process and drops all pending events.
// Abandoned engines (bounded runs, panicked jobs, benchmark harnesses)
// otherwise keep one parked coroutine, and its goroutine, per process for
// the life of the program. A parked process unwinds from its pending
// Wait/Suspend, running its deferred calls; one that never started does
// not run at all. Close must be called when the engine is not running:
// never from an event callback, and from a process it panics. After Close
// the engine schedules nothing, Step reports false, and Go panics.
// Idempotent.
func (e *Engine) Close() {
	if e.running != nil {
		e.inProcPanic("Close")
	}
	if e.closed {
		return
	}
	e.closed = true
	e.flushEvents()
	// Drop the queue first: nothing an unwinding process does runs an event.
	procs := e.procs
	e.heap, e.nodes, e.procs = nil, nil, nil
	e.occupied, e.free, e.inWheel = 0, nilNode, 0
	for _, p := range procs {
		if !p.finished {
			p.stop()
			p.finished = true
		}
	}
}

// inProcPanic rejects driving the engine from inside one of its own
// processes: the process would wait on itself.
func (e *Engine) inProcPanic(op string) {
	panic(fmt.Sprintf("sim: %s called from process %q", op, e.running.name))
}

// flushEvents publishes this engine's executed events into the
// process-wide counter. Idempotent: only the events since the last flush
// are added.
func (e *Engine) flushEvents() {
	e.reported = e.now
	if e.executed > e.repEv {
		totalEvents.Add(e.executed - e.repEv)
		e.repEv = e.executed
	}
}
