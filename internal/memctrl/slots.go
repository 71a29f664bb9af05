package memctrl

import (
	"mcsquare/internal/invariant"
	"mcsquare/internal/sim"
)

// Slots is a bounded controller queue (the RPQ, the WPQ, a BPQ) seen as a
// slot gate: a request holds a slot from Acquire until Release, and
// requests that find every slot taken wait in FIFO order. A release hands
// its slot straight to the oldest waiter, so occupancy changes only when
// a slot is taken from or returned to the free count, and the queue
// oracle checks it each time.
//
// The zero value has no slots; NewSlots sets the capacity.
type Slots struct {
	capacity, used int
	waiters        sim.Queue[func()]

	inv  *invariant.Oracles // nil when invariant oracles are off
	name string             // queue name for occupancy violations
}

// NewSlots returns a gate with the given number of slots.
func NewSlots(capacity int) Slots { return Slots{capacity: capacity} }

// SetInvariants attaches the queue oracle, which reports an occupancy
// outside [0, capacity] under name (precomputed so the checks allocate
// nothing on the hot path).
func (s *Slots) SetInvariants(o *invariant.Oracles, name string) {
	s.inv, s.name = o, name
}

// Used reports the number of slots held.
func (s *Slots) Used() int { return s.used }

// Acquire runs fn once a slot is held: now if one is free, else when a
// release hands it one. waited reports the latter, so the caller can
// count the stall.
func (s *Slots) Acquire(fn func()) (waited bool) {
	if s.used < s.capacity {
		s.used++
		s.inv.CheckQueue(s.name, s.used, s.capacity)
		fn()
		return false
	}
	s.waiters.Push(fn)
	return true
}

// Release frees a held slot, handing it to the oldest waiter if any.
func (s *Slots) Release() {
	if s.waiters.Len() > 0 {
		s.waiters.Pop()()
		return
	}
	s.used--
	s.inv.CheckQueue(s.name, s.used, s.capacity)
}
