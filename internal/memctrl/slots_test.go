package memctrl

import (
	"math/rand"
	"strings"
	"testing"

	"mcsquare/internal/invariant"
)

// TestSlotsMatchReference drives gates of several capacities with random
// acquires and releases against a reference of the held count and a FIFO
// of waiting ids: each request runs at once while a slot is free and
// otherwise when a release hands it one, oldest first; Acquire's waited
// result says which; the held count stays within [0, capacity]; and the
// queue oracle, watching every occupancy change, reports nothing.
func TestSlotsMatchReference(t *testing.T) {
	for capacity := 1; capacity <= 4; capacity++ {
		rng := rand.New(rand.NewSource(int64(capacity) + 1))
		inv := invariant.New(invariant.Config{Queues: true}, nil, nil)
		s := NewSlots(capacity)
		s.SetInvariants(inv, "test.q")
		var ran []int
		held, next := 0, 0
		var waiting []int
		for step := 0; step < 5000; step++ {
			if held == 0 || rng.Intn(2) == 0 {
				id := next
				next++
				ran = ran[:0]
				waited := s.Acquire(func() { ran = append(ran, id) })
				if wantWait := held == capacity; waited != wantWait {
					t.Fatalf("cap %d step %d: Acquire waited=%v with %d of %d held", capacity, step, waited, held, capacity)
				}
				if waited {
					if len(ran) != 0 {
						t.Fatalf("cap %d step %d: a waiting request ran %v", capacity, step, ran)
					}
					waiting = append(waiting, id)
				} else {
					if len(ran) != 1 || ran[0] != id {
						t.Fatalf("cap %d step %d: Acquire with a free slot ran %v, want [%d]", capacity, step, ran, id)
					}
					held++
				}
			} else if held > 0 {
				ran = ran[:0]
				s.Release()
				if len(waiting) > 0 {
					if len(ran) != 1 || ran[0] != waiting[0] {
						t.Fatalf("cap %d step %d: Release ran %v, want the oldest waiter %d", capacity, step, ran, waiting[0])
					}
					waiting = waiting[1:]
				} else {
					if len(ran) != 0 {
						t.Fatalf("cap %d step %d: Release with no waiter ran %v", capacity, step, ran)
					}
					held--
				}
			}
			if s.Used() != held || s.Used() < 0 || s.Used() > capacity {
				t.Fatalf("cap %d step %d: Used = %d, want %d within [0, %d]", capacity, step, s.Used(), held, capacity)
			}
		}
		if n := inv.TotalViolations(); n != 0 {
			t.Fatalf("cap %d: %d queue violations on a correct gate: %v", capacity, n, inv.Violations())
		}
	}
	// With no slots every request waits.
	s := NewSlots(0)
	if !s.Acquire(func() { t.Fatal("a gate with no slots ran a request") }) {
		t.Fatal("Acquire on a gate with no slots did not wait")
	}
}

// TestSlotsReportOccupancy checks that the oracle sees each occupancy
// change, under the gate's name: a release without a holder (occupancy
// -1) and an acquire from a corrupted count are both reported.
func TestSlotsReportOccupancy(t *testing.T) {
	inv := invariant.New(invariant.Config{Queues: true}, nil, nil)
	s := NewSlots(1)
	s.SetInvariants(inv, "mc3.rpq")

	s.Release()
	if n := inv.TotalViolations(); n != 1 {
		t.Fatalf("release of an unheld slot: %d violations, want 1", n)
	}
	if what := inv.Violations()[0].What; !strings.Contains(what, "mc3.rpq occupancy -1") {
		t.Fatalf("violation %q does not name the gate and its occupancy", what)
	}

	s.used = -3
	s.Acquire(func() {})
	if n := inv.TotalViolations(); n != 2 {
		t.Fatalf("acquire to occupancy -2: %d violations, want 2", n)
	}
}
