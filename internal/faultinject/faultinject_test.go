package faultinject

import (
	"path/filepath"
	"testing"
)

// TestFromSeedDeterministic: the seed→schedule derivation is pure, every
// kind is active, and rates/windows land in their documented ranges.
func TestFromSeedDeterministic(t *testing.T) {
	a, b := FromSeed(0xC0FFEE), FromSeed(0xC0FFEE)
	if a != b {
		t.Fatalf("FromSeed not deterministic:\n%+v\n%+v", a, b)
	}
	if a == FromSeed(0xC0FFEF) {
		t.Fatal("adjacent seeds produced identical schedules")
	}
	if !a.Active() {
		t.Fatal("FromSeed schedule inactive")
	}
	for k := Kind(0); k < NumKinds; k++ {
		if e := a.every(k); e < 16 || e >= 80 {
			t.Errorf("rate for %s = %d, want [16, 80)", k, e)
		}
	}
	for _, k := range []Kind{KindBPQStall, KindXConDelay} {
		if w := a.window(k); w < 128 || w >= 1152 {
			t.Errorf("window for %s = %d, want [128, 1152)", k, w)
		}
	}
}

// TestScheduleJSONRoundTrip: WriteJSON output parses back (via ParseSpec's
// file branch) to the identical schedule — the CI chaos artifact replays
// exactly.
func TestScheduleJSONRoundTrip(t *testing.T) {
	s := FromSeed(42)
	path := filepath.Join(t.TempDir(), "sched.json")
	if err := s.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	got, err := ParseSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != s {
		t.Fatalf("round trip changed schedule:\n%+v\n%+v", got, s)
	}
}

// TestParseSpec: a bare integer (decimal or hex) is a seed; anything else
// is a file path; a missing file is an error, not a silent no-op schedule.
func TestParseSpec(t *testing.T) {
	if s, err := ParseSpec("0xC0FFEE"); err != nil || s != FromSeed(0xC0FFEE) {
		t.Fatalf("hex seed: %+v, %v", s, err)
	}
	if s, err := ParseSpec("12648430"); err != nil || s != FromSeed(12648430) {
		t.Fatalf("decimal seed: %+v, %v", s, err)
	}
	if _, err := ParseSpec(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing schedule file accepted")
	}
}

// TestPlaneCounterFiring: firing is purely counter-based — exactly one of
// every `every` offered events fires, and a fresh plane with the same
// (schedule, index) replays the identical firing positions.
func TestPlaneCounterFiring(t *testing.T) {
	s := Schedule{Seed: 7, WPQRejectEvery: 4}
	const offers = 100
	record := func() ([]bool, uint64) {
		p := NewPlane(s, 0)
		seq := make([]bool, offers)
		for i := range seq {
			seq[i] = p.Fire(KindWPQReject, uint64(i), uint64(i))
		}
		return seq, p.Fired(KindWPQReject)
	}
	seq1, fired1 := record()
	seq2, fired2 := record()
	if fired1 != offers/4 {
		t.Fatalf("fired %d of %d offers with every=4, want %d", fired1, offers, offers/4)
	}
	if fired1 != fired2 {
		t.Fatalf("fired counts diverged: %d vs %d", fired1, fired2)
	}
	for i := range seq1 {
		if seq1[i] != seq2[i] {
			t.Fatalf("firing position %d diverged across identical planes", i)
		}
	}
	// Distinct machine indices derive distinct phases from the same seed
	// (not a hard requirement per-kind, but the rate is identical).
	p1 := NewPlane(s, 1)
	for i := 0; i < offers; i++ {
		p1.Fire(KindWPQReject, uint64(i), uint64(i))
	}
	if p1.Fired(KindWPQReject) != fired1 {
		t.Fatalf("plane 1 fired %d, want %d (same rate, shifted phase)", p1.Fired(KindWPQReject), fired1)
	}
}

// TestFireWindow: window kinds return their configured duration when they
// fire and 0 otherwise; kinds with Every=0 never fire.
func TestFireWindow(t *testing.T) {
	s := Schedule{Seed: 9, BPQStallEvery: 1, BPQStallCycles: 321}
	p := NewPlane(s, 0)
	if w := p.FireWindow(KindBPQStall, 0, 0); w != 321 {
		t.Fatalf("FireWindow = %d, want 321", w)
	}
	if w := p.FireWindow(KindXConDelay, 0, 0); w != 0 {
		t.Fatalf("inactive kind fired a %d-cycle window", w)
	}
	if p.Offered(KindXConDelay) != 0 {
		t.Fatal("inactive kind counted an offer")
	}
}

// TestNilPlane: every Plane query is nil-safe — the disabled hot path.
func TestNilPlane(t *testing.T) {
	var p *Plane
	if p.Fire(KindCTTEvict, 0, 0) || p.FireWindow(KindBPQStall, 0, 0) != 0 {
		t.Fatal("nil plane fired")
	}
	if p.Offered(KindCTTEvict) != 0 || p.Fired(KindCTTEvict) != 0 || p.FiredTotal() != 0 {
		t.Fatal("nil plane counted")
	}
	if p.Schedule() != (Schedule{}) {
		t.Fatal("nil plane has a schedule")
	}
	p.SetTracer(nil) // must not panic
}

// TestPlaneRandDeterministic: the auxiliary stream (corruption bit choice)
// replays identically for the same (schedule, index).
func TestPlaneRandDeterministic(t *testing.T) {
	s := Schedule{Seed: 11, DRAMCorruptEvery: 1}
	p1, p2 := NewPlane(s, 3), NewPlane(s, 3)
	for i := 0; i < 64; i++ {
		if a, b := p1.Rand(512), p2.Rand(512); a != b {
			t.Fatalf("Rand diverged at draw %d: %d vs %d", i, a, b)
		}
	}
}
