package memctrl

import (
	"bytes"
	"testing"

	"mcsquare/internal/dram"
	"mcsquare/internal/memdata"
	"mcsquare/internal/sim"
	"mcsquare/internal/txtrace"
)

func newTestMC(eng *sim.Engine) (*Controller, *memdata.Physical) {
	phys := memdata.NewPhysical(1 << 24)
	ch := dram.NewChannel(dram.DDR4Config())
	return New(0, eng, DefaultConfig(), ch, phys), phys
}

func TestReadReturnsMemoryData(t *testing.T) {
	eng := sim.NewEngine()
	mc, phys := newTestMC(eng)
	want := make([]byte, memdata.LineSize)
	for i := range want {
		want[i] = byte(i * 3)
	}
	phys.WriteLine(256, want)

	var got []byte
	var doneAt sim.Cycle
	eng.After(0, func() {
		mc.ReadLine(256, 0, func(d []byte) { got = append([]byte(nil), d...); doneAt = eng.Now() })
	})
	eng.Drain()
	if !bytes.Equal(got, want) {
		t.Fatal("read data mismatch")
	}
	if doneAt == 0 {
		t.Fatal("read completed instantly")
	}
}

func TestWriteThenReadForwards(t *testing.T) {
	eng := sim.NewEngine()
	mc, _ := newTestMC(eng)
	data := make([]byte, memdata.LineSize)
	data[0] = 0xAB

	var got []byte
	eng.After(0, func() {
		mc.WriteLine(512, data, 0, func() {})
		mc.ReadLine(512, 0, func(d []byte) { got = append([]byte(nil), d...) })
	})
	eng.Drain()
	if got[0] != 0xAB {
		t.Fatal("read did not observe pending write")
	}
	if mc.Stats.Forwards == 0 {
		t.Fatal("expected WPQ forwarding")
	}
}

func TestWriteEventuallyLandsInMemory(t *testing.T) {
	eng := sim.NewEngine()
	mc, phys := newTestMC(eng)
	data := make([]byte, memdata.LineSize)
	data[7] = 0x77
	eng.After(0, func() { mc.WriteLine(1024, data, 0, func() {}) })
	eng.Drain()
	if phys.ReadLine(1024)[7] != 0x77 {
		t.Fatal("write never drained to memory")
	}
	if !mc.Quiesce() {
		t.Fatal("controller did not quiesce")
	}
}

func TestLatestWriteWins(t *testing.T) {
	eng := sim.NewEngine()
	mc, phys := newTestMC(eng)
	a := memdata.Addr(2048)
	mk := func(b byte) []byte {
		d := make([]byte, memdata.LineSize)
		d[0] = b
		return d
	}
	var got []byte
	eng.After(0, func() {
		mc.WriteLine(a, mk(1), 0, func() {})
		mc.WriteLine(a, mk(2), 0, func() {})
		mc.ReadLine(a, 0, func(d []byte) { got = append([]byte(nil), d...) })
	})
	eng.Drain()
	if got[0] != 2 {
		t.Fatalf("forwarded stale write: got %d", got[0])
	}
	if phys.ReadLine(a)[0] != 2 {
		t.Fatalf("memory holds stale value %d", phys.ReadLine(a)[0])
	}
}

func TestRPQBackpressure(t *testing.T) {
	eng := sim.NewEngine()
	mc, _ := newTestMC(eng)
	n := mc.cfg.RPQCapacity * 3
	completed := 0
	eng.After(0, func() {
		for i := 0; i < n; i++ {
			// Distinct rows in the same bank to force serialization.
			a := memdata.Addr(uint64(i) * 8192 * 16)
			mc.ReadLine(a, 0, func([]byte) { completed++ })
		}
	})
	eng.Drain()
	if completed != n {
		t.Fatalf("completed %d of %d reads", completed, n)
	}
	if mc.Stats.ReadStalls == 0 {
		t.Fatal("expected RPQ stalls with 3x capacity reads")
	}
}

func TestWPQBackpressureAndDrain(t *testing.T) {
	eng := sim.NewEngine()
	mc, phys := newTestMC(eng)
	n := mc.cfg.WPQCapacity * 2
	released := 0
	eng.After(0, func() {
		for i := 0; i < n; i++ {
			d := make([]byte, memdata.LineSize)
			d[0] = byte(i)
			mc.WriteLine(memdata.Addr(i*memdata.LineSize), d, 0, func() { released++ })
		}
	})
	eng.Drain()
	if released != n {
		t.Fatalf("released %d of %d writes", released, n)
	}
	if mc.Stats.WriteStalls == 0 {
		t.Fatal("expected WPQ stalls")
	}
	for i := 0; i < n; i++ {
		if phys.ReadLine(memdata.Addr(i * memdata.LineSize))[0] != byte(i) {
			t.Fatalf("write %d lost", i)
		}
	}
}

type claimAllHook struct {
	reads, writes int
}

func (h *claimAllHook) FilterRead(a memdata.Addr, tx txtrace.Tx, done func([]byte)) bool {
	h.reads++
	done(make([]byte, memdata.LineSize))
	return true
}
func (h *claimAllHook) FilterWrite(a memdata.Addr, data []byte, tx txtrace.Tx, release func()) bool {
	h.writes++
	release()
	return true
}

func TestHookInterception(t *testing.T) {
	eng := sim.NewEngine()
	mc, _ := newTestMC(eng)
	h := &claimAllHook{}
	mc.SetHook(h)
	eng.After(0, func() {
		mc.ReadLine(0, 0, func([]byte) {})
		mc.WriteLine(64, make([]byte, memdata.LineSize), 0, func() {})
		// Raw variants must bypass the hook.
		mc.RawReadLine(128, 0, func([]byte) {})
		mc.RawWriteLine(192, make([]byte, memdata.LineSize), 0, func() {})
	})
	eng.Drain()
	if h.reads != 1 || h.writes != 1 {
		t.Fatalf("hook saw %d reads, %d writes; want 1, 1", h.reads, h.writes)
	}
}

func TestManyMixedOpsQuiesce(t *testing.T) {
	eng := sim.NewEngine()
	mc, phys := newTestMC(eng)
	// Interleave reads and writes over a small region; ensure everything
	// completes and the final memory state reflects the last write per line.
	last := map[memdata.Addr]byte{}
	eng.After(0, func() {
		for i := 0; i < 500; i++ {
			a := memdata.Addr((i % 37) * memdata.LineSize)
			if i%3 == 0 {
				mc.ReadLine(a, 0, func([]byte) {})
			} else {
				d := make([]byte, memdata.LineSize)
				d[0] = byte(i)
				last[a] = byte(i)
				mc.WriteLine(a, d, 0, func() {})
			}
		}
	})
	eng.Drain()
	if !mc.Quiesce() {
		t.Fatal("controller did not quiesce")
	}
	for a, v := range last {
		if phys.ReadLine(a)[0] != v {
			t.Fatalf("line %d: got %d want %d", a, phys.ReadLine(a)[0], v)
		}
	}
}

// TestSnapshotReadCapturesAtIssue: RawReadLineSnapshot must return the data
// as of the call, even when a write to the same line lands before the read's
// DRAM completion — the ordering guarantee (MC)² bounce reads rely on.
func TestSnapshotReadCapturesAtIssue(t *testing.T) {
	eng := sim.NewEngine()
	mc, phys := newTestMC(eng)
	a := memdata.Addr(4096)
	old := make([]byte, memdata.LineSize)
	old[0] = 0x01
	phys.WriteLine(a, old)

	newer := make([]byte, memdata.LineSize)
	newer[0] = 0x02
	var snap, plain []byte
	eng.After(0, func() {
		mc.RawReadLineSnapshot(a, 0, func(d []byte) { snap = append([]byte(nil), d...) })
		// A write arrives immediately after the snapshot was taken.
		mc.RawWriteLine(a, newer, 0, func() {})
		// A regular read issued after the write must see the new data.
		mc.RawReadLine(a, 0, func(d []byte) { plain = append([]byte(nil), d...) })
	})
	eng.Drain()
	if snap[0] != 0x01 {
		t.Fatalf("snapshot read returned %#x, want the as-of-issue value 0x01", snap[0])
	}
	if plain[0] != 0x02 {
		t.Fatalf("plain read returned %#x, want the forwarded new value 0x02", plain[0])
	}
}

// TestWPQOccupancyZeroCapacity pins the divide-by-zero fix: a controller
// configured with no write queue must report itself as full (1.0), not NaN.
// NaN poisoned every threshold comparison downstream — `NaN >= frac` is
// false, so throttling that should engage with a zero-capacity WPQ was
// silently disabled instead.
func TestWPQOccupancyZeroCapacity(t *testing.T) {
	eng := sim.NewEngine()
	phys := memdata.NewPhysical(1 << 20)
	ch := dram.NewChannel(dram.DDR4Config())
	cfg := DefaultConfig()
	cfg.WPQCapacity = 0
	mc := New(0, eng, cfg, ch, phys)

	occ := mc.WPQOccupancy()
	if occ != occ { // NaN check
		t.Fatal("WPQOccupancy returned NaN for zero capacity")
	}
	if occ != 1.0 {
		t.Fatalf("WPQOccupancy = %v with zero capacity, want 1.0 (full)", occ)
	}
	// The value must behave as "full" against the paper's 75% rule.
	if !(occ >= 0.75) {
		t.Fatal("zero-capacity occupancy does not trip threshold comparisons")
	}
}

// TestPartialWritePanicsBeforeHook: a short line must be refused at
// WriteLine's entry, before the hook sees it. A claiming hook used to take
// it first, and could merge it into a held line as a prefix.
func TestPartialWritePanicsBeforeHook(t *testing.T) {
	eng := sim.NewEngine()
	mc, _ := newTestMC(eng)
	h := &claimAllHook{}
	mc.SetHook(h)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("WriteLine accepted a 32-byte line")
			}
		}()
		mc.WriteLine(64, make([]byte, memdata.LineSize/2), 0, func() {})
	}()
	if h.writes != 0 {
		t.Fatalf("hook saw %d writes of a partial line, want 0", h.writes)
	}
	if mc.Stats.Writes != 0 {
		t.Fatalf("controller counted %d writes, want 0", mc.Stats.Writes)
	}
}
