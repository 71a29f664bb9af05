package config

import (
	"strings"
	"testing"

	"mcsquare/internal/faultinject"
	"mcsquare/internal/metrics"
	"mcsquare/internal/sim"
	"mcsquare/internal/timeline"
)

func TestTimelineSpecValidate(t *testing.T) {
	s := Default()
	s.Timeline = &TimelineSpec{Enabled: true, WindowCycles: 50_000, Tracks: []string{"ctt", "engine.bounces"}, SLOP99Ms: 2.5}
	if err := s.Validate(); err != nil {
		t.Fatalf("valid timeline block rejected: %v", err)
	}

	s.Timeline = &TimelineSpec{Enabled: true, Tracks: []string{"CTT..bad"}, SLOP99Ms: -1}
	err := s.Validate()
	if err == nil {
		t.Fatal("invalid timeline block accepted")
	}
	msg := err.Error()
	for _, want := range []string{"Timeline.Tracks", "Timeline.SLOP99Ms"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
}

func TestTimelineSpecConfigLowering(t *testing.T) {
	var nilSpec *TimelineSpec
	if c := nilSpec.Config(); c.Enabled {
		t.Fatal("nil spec must lower to disabled config")
	}
	s := &TimelineSpec{Enabled: true, WindowCycles: 0, Tracks: []string{"ctt"}}
	c := s.Config()
	if !c.Enabled || c.WindowCycles != 0 || len(c.Tracks) != 1 {
		t.Fatalf("lowered config = %+v", c)
	}
	if timeline.NewRecorder(c, metrics.NewRegistry(), sim.NewEngine()) == nil {
		t.Fatal("enabled lowered config must yield a recorder")
	}
}

func TestSpecRoundTripWithTimelineAndFaults(t *testing.T) {
	s := Default()
	s.Timeline = &TimelineSpec{Enabled: true, WindowCycles: 20_000}
	sched := faultinject.FromSeed(0xBEEF)
	s.Faults = &sched
	data, err := s.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Parse(data)
	if err != nil {
		t.Fatalf("round-trip parse failed: %v\n%s", err, data)
	}
	if got.Timeline == nil || !got.Timeline.Enabled || got.Timeline.WindowCycles != 20_000 {
		t.Fatalf("timeline block lost in round-trip: %+v", got.Timeline)
	}
	if got.Faults == nil || !got.Faults.Active() {
		t.Fatalf("faults block lost in round-trip: %+v", got.Faults)
	}
	// A spec without the new blocks must not mention them (omitempty keeps
	// canonical output of existing configs byte-identical).
	plain, err := Default().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(plain), "Timeline") || strings.Contains(string(plain), "Faults") {
		t.Fatalf("default spec output grew new blocks:\n%s", plain)
	}
}
