package isa_test

import (
	"bytes"
	"testing"

	"mcsquare/internal/cpu"
	"mcsquare/internal/machine"
	"mcsquare/internal/memdata"
	"mcsquare/internal/txtrace"
)

func newM() *machine.Machine { return machine.New(machine.DefaultParams()) }

func TestMCLazyInvalidatesDestination(t *testing.T) {
	m := newM()
	src := m.AllocPage(8 << 10)
	dst := m.AllocPage(8 << 10)
	m.FillRandom(src, 8<<10, 1)
	m.Run(func(c *cpu.Core) {
		// Cache the destination with stale data first.
		for a := dst; a < dst+8<<10; a += memdata.LineSize {
			c.LoadAsync(a, 8)
		}
		c.Fence()
		c.MCLazy(memdata.Range{Start: dst, Size: 8 << 10}, src)
		c.Fence()
		// The first read after MCLAZY must return the source data, not the
		// stale cached destination.
		got := c.Load(dst, 64)
		want := c.Load(src, 64)
		if !bytes.Equal(got, want) {
			t.Error("stale cached destination survived MCLAZY")
		}
	})
	if m.ISA.Stats.DestInvalidated == 0 {
		t.Fatal("no destination lines were invalidated")
	}
}

func TestMCLazyFlushesDirtySource(t *testing.T) {
	m := newM()
	src := m.AllocPage(4096)
	dst := m.AllocPage(4096)
	m.FillRandom(src, 4096, 2)
	m.Run(func(c *cpu.Core) {
		// Dirty the source in the cache; skip the wrapper's CLWBs to force
		// the instruction's own safety flush.
		c.Store(src, bytes.Repeat([]byte{0xAB}, 64))
		c.Fence()
		c.MCLazy(memdata.Range{Start: dst, Size: 4096}, src)
		c.Fence()
		got := c.Load(dst, 1)
		if got[0] != 0xAB {
			t.Error("lazy copy missed the dirty cached source data")
		}
	})
	if m.ISA.Stats.SrcFlushed == 0 {
		t.Fatal("dirty source line was not flushed by MCLAZY")
	}
}

func TestMCFreeThroughUnit(t *testing.T) {
	m := newM()
	src := m.AllocPage(4096)
	dst := m.AllocPage(4096)
	m.FillRandom(src, 4096, 3)
	m.Run(func(c *cpu.Core) {
		c.MCLazy(memdata.Range{Start: dst, Size: 4096}, src)
		// MCLAZY and MCFREE proceed in parallel without ordering (§III-C);
		// the fence makes the free observe the inserted entry.
		c.Fence()
		c.MCFree(memdata.Range{Start: dst, Size: 4096})
		c.Fence()
	})
	if m.ISA.Stats.MCFrees != 1 {
		t.Fatalf("MCFrees = %d", m.ISA.Stats.MCFrees)
	}
	if m.Lazy.CTT().Len() != 0 {
		t.Fatalf("CTT has %d entries after MCFREE", m.Lazy.CTT().Len())
	}
}

func TestPacketCyclesAccumulate(t *testing.T) {
	m := newM()
	src := m.AllocPage(4096)
	dst := m.AllocPage(4096)
	m.Run(func(c *cpu.Core) {
		c.MCLazy(memdata.Range{Start: dst, Size: 4096}, src)
		c.Fence()
	})
	if m.ISA.Stats.MCLazies != 1 || m.ISA.Stats.PacketCycles == 0 {
		t.Fatalf("stats: %+v", m.ISA.Stats)
	}
}

// TestMCLazyRoundTripAllocations pins a warm MCLAZY and MCFREE round trip
// (core → CTT acceptance → core) at zero allocations, both straight to
// the CTT and held behind a CLWB still in flight: the core's op, the
// unit's packet and the engine's pending insert all come from pools. The
// CTT carves its entries 32 to an allocation, a fraction AllocsPerRun's
// whole-object count reports as 0.
func TestMCLazyRoundTripAllocations(t *testing.T) {
	m := newM()
	src := m.AllocPage(4096)
	dst := m.AllocPage(4096)
	m.FillRandom(src, 4096, 4)
	r := memdata.Range{Start: dst, Size: 4096}
	roundTrip := func(c *cpu.Core) {
		c.MCLazy(r, src)
		c.Fence()
		c.MCFree(r)
		c.Fence()
	}
	behindCLWB := func(c *cpu.Core) {
		c.CLWB(src)
		roundTrip(c)
	}
	var direct, held float64
	m.Run(func(c *cpu.Core) {
		roundTrip(c)
		behindCLWB(c)
		direct = testing.AllocsPerRun(100, func() { roundTrip(c) })
		held = testing.AllocsPerRun(100, func() { behindCLWB(c) })
	})
	if direct != 0 || held != 0 {
		t.Fatalf("MCLAZY+MCFREE round trip: %v allocs/op, %v behind a CLWB; want 0", direct, held)
	}
	if m.Lazy.CTT().Len() != 0 {
		t.Fatalf("CTT has %d entries after the last MCFREE", m.Lazy.CTT().Len())
	}
}

// TestMCLazyOrderedBehindCLWB issues a store, a CLWB of its line and an
// MCLAZY from that line with no fence between them. The packet must wait
// for the CLWB's write to be accepted (§III-B1: the caches' FIFO write
// buffer delivers the writeback first), so the CTT sees the entry only
// after memory holds the stored bytes, and the destination reads them.
func TestMCLazyOrderedBehindCLWB(t *testing.T) {
	p := machine.DefaultParams()
	p.Env = machine.NewEnv(machine.Env{Trace: txtrace.Config{Enabled: true, SampleEvery: 1}})
	m := machine.New(p)
	src := m.AllocPage(4096)
	dst := m.AllocPage(4096)
	m.FillRandom(src, 4096, 5)
	stored := bytes.Repeat([]byte{0x5A}, memdata.LineSize)
	m.Run(func(c *cpu.Core) {
		c.Store(src, stored)
		c.CLWB(src)
		c.MCLazy(memdata.Range{Start: dst, Size: memdata.LineSize}, src)
		c.Fence()
		if got := c.Load(dst, memdata.LineSize); !bytes.Equal(got, stored) {
			t.Errorf("lazy destination reads %x, want the stored %x", got[:4], stored[:4])
		}
	})
	var clwbAccepted, inserted uint64
	var sawCLWB, sawInsert bool
	for _, s := range m.Trace.Spans() {
		switch s.Stage {
		case txtrace.StageCPUCLWB:
			clwbAccepted, sawCLWB = s.End, true
		case txtrace.StageCTTInsert:
			inserted, sawInsert = s.Start, true
		}
	}
	if !sawCLWB || !sawInsert {
		t.Fatalf("trace holds CLWB span %v, CTT insert span %v", sawCLWB, sawInsert)
	}
	if inserted < clwbAccepted {
		t.Fatalf("CTT insert began at cycle %d, before the CLWB's write was accepted at %d", inserted, clwbAccepted)
	}
}
