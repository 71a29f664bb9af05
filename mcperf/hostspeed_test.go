package main

import (
	"testing"
	"time"
)

// TestHostSpeed checks that a round too short for a single tick still times
// the reference work once, and that a longer one times it every refInterval,
// charging the round for every timing. With two timings or more, at least
// half of each half's timings reach its median, so the time spent is at
// least twice the reference time.
func TestHostSpeed(t *testing.T) {
	h, err := startHostSpeed()
	if err != nil {
		t.Fatal(err)
	}
	ref, spent := h.stop()
	if !(ref > 0) || !(spent > 0) {
		t.Fatalf("immediate stop: ref %v s, spent %v s; want both > 0", ref, spent)
	}

	if h, err = startHostSpeed(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * refInterval)
	ref, spent = h.stop()
	if !(ref > 0) || spent < 1.99*ref {
		t.Fatalf("5 intervals: ref %v s, spent %v s; want spent >= 2 ref > 0", ref, spent)
	}
}
