package faultinject

import (
	"encoding/json"
	"testing"
)

func TestFleetStormFromSeedDeterministic(t *testing.T) {
	a := FleetStormFromSeed(0x5709)
	b := FleetStormFromSeed(0x5709)
	if a != b {
		t.Fatalf("storm derivation not pure: %+v vs %+v", a, b)
	}
	if !a.FleetActive() {
		t.Fatalf("derived storm inert: %+v", a)
	}
	if a.CrashMeanUpCycles < 400_000 || a.CrashMeanUpCycles >= 1_200_000 {
		t.Fatalf("CrashMeanUpCycles out of band: %g", a.CrashMeanUpCycles)
	}
	if a.BrownoutFactor < 2 {
		t.Fatalf("BrownoutFactor below 2: %g", a.BrownoutFactor)
	}
	if a.ProbeLossEvery < 6 {
		t.Fatalf("ProbeLossEvery below 6: %d", a.ProbeLossEvery)
	}
	if c := FleetStormFromSeed(0x5710); c == a {
		t.Fatal("different seeds derived identical storms")
	}
}

// TestFromSeedMicroKindsUnchanged pins that adding the fleet fields did not
// perturb FromSeed's micro-kind derivation: committed chaos goldens
// (figuretimeline's chaos cells run FromSeed(0x7E11)) depend on it.
func TestFromSeedMicroKindsUnchanged(t *testing.T) {
	s := FromSeed(0x7E11)
	micro := s
	micro.CrashMeanUpCycles = 0
	micro.CrashMeanDownCycles = 0
	micro.BrownoutMeanUpCycles = 0
	micro.BrownoutMeanCycles = 0
	micro.BrownoutFactor = 0
	micro.ProbeLossEvery = 0
	if !micro.Active() {
		t.Fatal("FromSeed derived no micro kinds")
	}
	if !s.FleetActive() {
		t.Fatal("FromSeed derived no fleet storm")
	}
	storm := FleetStormFromSeed(0x7E11)
	if s.CrashMeanUpCycles != storm.CrashMeanUpCycles ||
		s.CrashMeanDownCycles != storm.CrashMeanDownCycles ||
		s.BrownoutMeanUpCycles != storm.BrownoutMeanUpCycles ||
		s.BrownoutMeanCycles != storm.BrownoutMeanCycles ||
		s.BrownoutFactor != storm.BrownoutFactor ||
		s.ProbeLossEvery != storm.ProbeLossEvery {
		t.Fatalf("FromSeed fleet fields diverge from FleetStormFromSeed:\n%+v\n%+v", s, storm)
	}
}

func TestScaleFleet(t *testing.T) {
	s := FleetStormFromSeed(42)
	off := s.ScaleFleet(0)
	if off.FleetActive() {
		t.Fatalf("intensity 0 left the storm active: %+v", off)
	}
	// Scaling only touches the fleet fields: a full chaos schedule keeps
	// its micro kinds at every intensity.
	full := FromSeed(42)
	if quiet := full.ScaleFleet(0); quiet.FleetActive() || !quiet.Active() ||
		quiet.DRAMCorruptEvery != full.DRAMCorruptEvery {
		t.Fatalf("ScaleFleet(0) disturbed micro kinds: %+v", quiet)
	}
	one := s.ScaleFleet(1)
	if one != s {
		t.Fatalf("intensity 1 changed the storm: %+v vs %+v", one, s)
	}
	two := s.ScaleFleet(2)
	if two.CrashMeanUpCycles != s.CrashMeanUpCycles/2 ||
		two.BrownoutMeanUpCycles != s.BrownoutMeanUpCycles/2 {
		t.Fatalf("intensity 2 did not halve the mean-up cycles: %+v", two)
	}
	if two.CrashMeanDownCycles != s.CrashMeanDownCycles ||
		two.BrownoutMeanCycles != s.BrownoutMeanCycles ||
		two.BrownoutFactor != s.BrownoutFactor {
		t.Fatalf("intensity scaling touched the outage shapes: %+v", two)
	}
	if two.ProbeLossEvery == 0 {
		t.Fatal("probe loss scaled to never")
	}
	// Scaling far past the probe-loss period floors at every-probe, not 0.
	huge := s.ScaleFleet(1e9)
	if huge.ProbeLossEvery != 1 {
		t.Fatalf("extreme intensity probe loss = %d, want floor 1", huge.ProbeLossEvery)
	}
}

func TestFleetStreamSeedStable(t *testing.T) {
	s := Schedule{Seed: 99}
	for m := 0; m < 4; m++ {
		for kind := 0; kind < 3; kind++ {
			a := s.FleetStreamSeed(m, kind)
			if a != s.FleetStreamSeed(m, kind) {
				t.Fatalf("stream seed (m=%d kind=%d) not stable", m, kind)
			}
			if a == s.FleetStreamSeed(m, (kind+1)%3) {
				t.Fatalf("stream seed (m=%d) collides across kinds", m)
			}
			if a == s.FleetStreamSeed(m+1, kind) {
				t.Fatalf("stream seed (kind=%d) collides across machines", kind)
			}
		}
	}
}

func TestFleetOnlyScheduleIsActive(t *testing.T) {
	s := Schedule{Seed: 1, CrashMeanUpCycles: 100_000, CrashMeanDownCycles: 10_000}
	if !s.Active() {
		t.Fatal("fleet-only schedule reports inactive; a run environment would drop it")
	}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Schedule
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != s {
		t.Fatalf("fleet fields lost in JSON: %+v vs %+v", back, s)
	}
	// A micro-only schedule must not report a fleet storm.
	micro := Schedule{Seed: 2, DRAMCorruptEvery: 1000}
	if micro.FleetActive() {
		t.Fatal("micro-only schedule reports a fleet storm")
	}
}
