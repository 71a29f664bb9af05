package interconnect

import (
	"testing"

	"mcsquare/internal/sim"
)

func TestLatencyOnlyDelivery(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, Config{HopLatency: 24})
	var at []sim.Cycle
	eng.After(0, func() {
		b.Send(64, 0, func() { at = append(at, eng.Now()) })
		b.Send(64, 0, func() { at = append(at, eng.Now()) })
	})
	eng.Drain()
	if len(at) != 2 || at[0] != 24 || at[1] != 24 {
		t.Fatalf("latency-only sends arrived at %v, want both at 24", at)
	}
	if b.Stats.Messages != 2 || b.Stats.Bytes != 128 {
		t.Fatalf("stats: %+v", b.Stats)
	}
}

func TestBandwidthSerializes(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, Config{HopLatency: 10, BytesPerCycle: 8}) // 64B takes 8 cycles
	var at []sim.Cycle
	eng.After(0, func() {
		for i := 0; i < 3; i++ {
			b.Send(64, 0, func() { at = append(at, eng.Now()) })
		}
	})
	eng.Drain()
	want := []sim.Cycle{18, 26, 34} // 10 + 8, then +8 per queued transfer
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("arrivals %v, want %v", at, want)
		}
	}
	if b.Stats.QueueCycles == 0 {
		t.Fatal("no queueing recorded despite saturation")
	}
}

func TestBandwidthIdleGapsReset(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, Config{HopLatency: 0, BytesPerCycle: 1})
	var second sim.Cycle
	eng.After(0, func() { b.Send(10, 0, func() {}) })
	eng.After(100, func() { b.Send(10, 0, func() { second = eng.Now() }) })
	eng.Drain()
	if second != 110 {
		t.Fatalf("post-idle send arrived at %d, want 110 (no stale busy)", second)
	}
}

func TestBroadcast(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, Config{HopLatency: 24})
	var at []sim.Cycle
	eng.After(0, func() {
		b.Broadcast(func() { at = append(at, eng.Now()) })
	})
	eng.Drain()
	// One logical CTT: the broadcast is delivered once, after one hop.
	if len(at) != 1 || at[0] != 24 {
		t.Fatalf("broadcast delivered at %v, want once at 24", at)
	}
	if b.Stats.Broadcasts != 1 || b.Stats.Messages != 1 || b.Stats.Bytes != 16 {
		t.Fatalf("stats: %+v", b.Stats)
	}
}

func TestZeroByteTransferStillProgresses(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, Config{HopLatency: 5, BytesPerCycle: 64})
	fired := false
	eng.After(0, func() { b.Send(0, 0, func() { fired = true }) })
	eng.Drain()
	if !fired {
		t.Fatal("zero-byte send never delivered")
	}
}
