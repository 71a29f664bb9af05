//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
)

// ProcPanic wraps a panic raised inside a simulated process. The body
// wrapper captures the panic with the process's own stack and re-panics
// it, so it comes out of the engine's resume point and Drain/Step callers
// (the runner's per-job recover, tests) can handle it like any other
// panic.
type ProcPanic struct {
	Proc  string // process name
	Value any    // original panic value
	Stack []byte // stack of the process at capture time
}

func (p *ProcPanic) Error() string {
	return fmt.Sprintf("sim: process %q panicked: %v", p.Proc, p.Value)
}

// Unwrap exposes an error panic value to errors.Is/As.
func (p *ProcPanic) Unwrap() error {
	if err, ok := p.Value.(error); ok {
		return err
	}
	return nil
}

// procAbort is the sentinel panic that unwinds a process released by
// Engine.Close. Process code that calls recover() must re-panic values it
// does not own, so the sentinel always reaches the body wrapper.
type procAbort struct{}

// Proc is a simulated process: a coroutine (iter.Pull) co-scheduled with
// the engine's event loop. Exactly one of {engine, some process} executes
// at a time, and control passes between them by a direct coroutine
// switch, not through the Go scheduler. A process runs until it parks
// (Wait/Suspend) or returns; the engine then resumes pumping events. This
// gives imperative workload code (loops, data structures, recursion)
// deterministic simulated timing.
type Proc struct {
	eng       *Engine
	name      string
	next      func() (struct{}, bool) // engine -> proc: run until the next park
	stop      func()                  // Engine.Close: make the pending park unwind
	yield     func(struct{}) bool     // proc -> engine: park; false once stopped
	resumeFn  func()                  // pre-bound p.resume: every wakeup schedules this one closure
	finished  bool
	suspended bool // parked via Suspend (awaiting an explicit Resume)
	aborted   bool // released by Engine.Close: panics while unwinding are dropped
}

// Go spawns fn as a simulated process starting at the current cycle.
// fn never runs concurrently with the engine or another process.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	if e.closed {
		panic("sim: Go on closed engine")
	}
	p := &Proc{eng: e, name: name}
	p.resumeFn = p.resume
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			p.finished = true
			r := recover()
			if r == nil || p.aborted {
				return
			}
			if _, ok := r.(*ProcPanic); !ok {
				r = &ProcPanic{Proc: p.name, Value: r, Stack: debug.Stack()}
			}
			panic(r) // comes out of next() on the engine side
		}()
		fn(p)
	})
	e.procs = append(e.procs, p)
	e.After(0, p.resumeFn)
	return p
}

// resume runs the process until it parks again or finishes. Must be
// called from the engine side.
func (p *Proc) resume() {
	if p.finished {
		panic("sim: waking process " + p.name + " after it finished (stale wakeup)")
	}
	p.eng.running = p
	defer func() { p.eng.running = nil }()
	p.next()
}

// Engine returns the engine this process runs under.
func (p *Proc) Engine() *Engine { return p.eng }

// Name returns the process name (used in diagnostics).
func (p *Proc) Name() string { return p.name }

// Now returns the current simulated cycle.
func (p *Proc) Now() Cycle { return p.eng.Now() }

// Wait suspends the process for delay cycles of simulated time: its
// wakeup is an event due delay cycles from now, after every event already
// due by then.
//
// When that wakeup would be the next event anyway — nothing else is
// pending at or before it — and Drain or RunUntil drives the engine (within
// RunUntil's limit and the cycle budget), the process does not park: the
// engine does the wakeup's bookkeeping in place (seq, the time advance and
// its OnAdvance call, the executed count) and the process continues. Event
// order, Executed, sim.events and every OnAdvance sample are exactly what
// parking would produce; only the queued event and the two coroutine
// switches are saved. Under bare Step the process always parks.
func (p *Proc) Wait(delay Cycle) { p.sleep(p.eng.Now() + delay) }

// WaitUntil suspends the process until the given absolute cycle, as Wait
// does. If the cycle is not in the future, it is a no-op.
func (p *Proc) WaitUntil(when Cycle) {
	if when > p.eng.Now() {
		p.sleep(when)
	}
}

// sleep wakes the process at when: inline when the engine allows it,
// otherwise by a scheduled resume and a park.
func (p *Proc) sleep(when Cycle) {
	if p.eng.wakeInline(when) {
		return
	}
	p.eng.At(when, p.resumeFn)
	p.park()
}

// Suspend parks the process indefinitely; some event callback must later
// call Resume. Use for waiting on asynchronous completions (memory
// responses, queue-slot availability).
func (p *Proc) Suspend() {
	p.suspended = true
	p.park()
}

// Resume schedules the process to continue at the current cycle. It must
// be called from engine context (an event callback or another process),
// and only while the target is suspended. Resuming a process that is not
// suspended panics immediately — the alternative is a silent simulator
// deadlock.
func (p *Proc) Resume() {
	if !p.suspended {
		panic("sim: Resume of process " + p.name + " that is not suspended")
	}
	p.suspended = false
	p.eng.After(0, p.resumeFn)
}

// park transfers control back to the engine. yield reports false once
// Engine.Close has stopped the coroutine — on the pending park and on any
// later one, such as a deferred Wait during the unwind — and the sentinel
// panic then unwinds the process, running its deferred calls.
func (p *Proc) park() {
	if !p.yield(struct{}{}) {
		p.aborted = true
		panic(procAbort{})
	}
}

// Finished reports whether the process has terminated — its function
// returned or panicked, or Engine.Close released it.
func (p *Proc) Finished() bool { return p.finished }
