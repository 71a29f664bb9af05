package cache

import (
	"testing"

	"mcsquare/internal/dram"
	"mcsquare/internal/memctrl"
	"mcsquare/internal/memdata"
	"mcsquare/internal/sim"
)

// pinAllocs fails the test unless fn, after its warm-up run, allocates
// nothing.
func pinAllocs(t *testing.T, name string, fn func()) {
	t.Helper()
	if got := testing.AllocsPerRun(100, fn); got != 0 {
		t.Errorf("%s: %v allocs/op, want 0", name, got)
	}
}

// TestMemoryPathAllocations pins the steady-state read and write paths of
// the hierarchy and its controller at zero allocations per access: line
// data lives in pooled requests and carved cache-array chunks, and every
// continuation is a method value bound once.
func TestMemoryPathAllocations(t *testing.T) {
	var got []byte
	keep := func(d []byte) { got = append(got[:0], d...) }
	retired := 0
	retire := func() { retired++ }

	t.Run("L1 read hit", func(t *testing.T) {
		r := newRig(1)
		r.fill(1)
		r.read(0, 4096)
		hits := r.h.Stats.L1Hits
		pinAllocs(t, "L1 read hit", func() {
			r.h.Read(0, 4096, 0, keep)
			r.eng.Drain()
		})
		if r.h.Stats.L1Hits != hits+101 {
			t.Fatalf("L1 hits %d, want %d", r.h.Stats.L1Hits, hits+101)
		}
	})

	t.Run("L1 and L2 miss from DRAM", func(t *testing.T) {
		r := newRig(1)
		r.fill(2)
		a := memdata.Addr(8192)
		line := memdata.Range{Start: a, Size: memdata.LineSize}
		r.read(0, a)
		misses, reads := r.h.Stats.L2Misses, r.mc.Stats.Reads
		pinAllocs(t, "L1+L2 miss", func() {
			r.h.InvalidateRange(line)
			r.h.Read(0, a, 0, keep)
			r.eng.Drain()
		})
		if r.h.Stats.L2Misses != misses+101 || r.mc.Stats.Reads != reads+101 {
			t.Fatalf("L2 misses %d, controller reads %d: want %d and %d",
				r.h.Stats.L2Misses, r.mc.Stats.Reads, misses+101, reads+101)
		}
		if want := r.phys.ReadLine(a); string(got) != string(want) {
			t.Fatal("miss delivered the wrong line")
		}
	})

	t.Run("WPQ-forwarded read", func(t *testing.T) {
		r := newRig(1)
		line := make([]byte, memdata.LineSize)
		forwards := r.mc.Stats.Forwards
		pinAllocs(t, "WPQ forward", func() {
			line[0]++
			r.mc.WriteLine(512, line, 0, retire)
			r.mc.ReadLine(512, 0, keep)
			r.eng.Drain()
		})
		if r.mc.Stats.Forwards != forwards+101 {
			t.Fatalf("forwards %d, want %d", r.mc.Stats.Forwards, forwards+101)
		}
		if got[0] != line[0] {
			t.Fatalf("forwarded byte %d, want %d", got[0], line[0])
		}
	})

	t.Run("dirty L2 eviction write-back", func(t *testing.T) {
		// One-set caches: every store to a new line evicts the L2's least
		// recently used line, which an earlier store dirtied.
		eng := sim.NewEngine()
		phys := memdata.NewPhysical(1 << 20)
		mc := memctrl.New(0, eng, memctrl.DefaultConfig(), dram.NewChannel(dram.DDR4Config()), phys)
		cfg := DefaultConfig(1)
		cfg.L1Size, cfg.L1Ways = 2*memdata.LineSize, 2
		cfg.L2Size, cfg.L2Ways = 4*memdata.LineSize, 4
		cfg.Prefetch.Enabled = false
		h := New(eng, cfg, func(memdata.Addr) *memctrl.Controller { return mc })
		val := []byte{0}
		next := 0
		store := func() {
			val[0]++
			h.Write(0, memdata.Addr(next%8)*memdata.LineSize, 0, val, 0, retire)
			next++
			eng.Drain()
		}
		for i := 0; i < 8; i++ {
			store()
		}
		wbs := h.Stats.L2Writebacks
		pinAllocs(t, "dirty L2 eviction", store)
		if h.Stats.L2Writebacks != wbs+101 {
			t.Fatalf("L2 write-backs %d, want %d", h.Stats.L2Writebacks, wbs+101)
		}
	})
}

// TestPrefetchStopsAtEndOfMemory streams the last lines of physical memory
// in ascending order. The stride prefetcher must not aim past the end of
// the backing store: it used to, and the read panicked in memdata.
func TestPrefetchStopsAtEndOfMemory(t *testing.T) {
	r := newRig(1)
	r.fill(5)
	top := memdata.Addr(r.phys.Size())
	for i := 8; i > 0; i-- {
		a := top - memdata.Addr(i)*memdata.LineSize
		if got, want := r.read(0, a), r.phys.ReadLine(a); string(got) != string(want) {
			t.Fatalf("line %#x: wrong data", a)
		}
	}
	if r.h.Stats.PrefetchesIssued == 0 {
		t.Fatal("the stream trained no prefetches")
	}
}

// TestCancelledFillCountedOnce invalidates a line while its demand miss is
// in flight. InvalidateRange cancels the fill and then drops the line,
// which cancels again; the fill must be counted once.
func TestCancelledFillCountedOnce(t *testing.T) {
	r := newRig(1)
	r.fill(6)
	const a = memdata.Addr(4096)
	// Make the line present in the caches, then start a second miss to it
	// from a state where it is cached nowhere but the L2.
	r.read(0, a)
	l1 := r.h.l1s[0]
	_, i := l1.lookup(a)
	l1.invalidate(i)
	var got []byte
	r.h.Read(0, a, 0, func(d []byte) { got = append([]byte(nil), d...) })
	if n := r.h.InvalidateRange(memdata.Range{Start: a, Size: memdata.LineSize}); n != 1 {
		t.Fatalf("InvalidateRange found %d lines, want 1", n)
	}
	r.eng.Drain()
	if r.h.Stats.CancelledFills != 1 {
		t.Fatalf("CancelledFills = %d, want 1", r.h.Stats.CancelledFills)
	}
	if got == nil {
		t.Fatal("the cancelled miss never completed")
	}
	if _, where := r.h.Peek(a); where != "" {
		t.Fatalf("cancelled fill installed the line in %s", where)
	}
}
