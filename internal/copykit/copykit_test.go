package copykit

import (
	"bytes"
	"testing"

	"mcsquare/internal/cpu"
	"mcsquare/internal/machine"
	"mcsquare/internal/memdata"
)

func newM(lazy bool) *machine.Machine {
	p := machine.DefaultParams()
	p.LazyEnabled = lazy
	return machine.New(p)
}

func roundTrip(t *testing.T, m *machine.Machine, cp Copier) {
	t.Helper()
	src := m.AllocPage(16 << 10)
	dst := m.AllocPage(16 << 10)
	m.FillRandom(src, 16<<10, 1)
	want := m.Phys.Read(src, 16<<10)
	m.Run(func(c *cpu.Core) {
		cp.Memcpy(c, dst, src, 16<<10)
		got := cp.Read(c, dst, 16<<10)
		if !bytes.Equal(got, want) {
			t.Errorf("%T: copy mismatch", cp)
		}
		cp.Write(c, dst, []byte{0x11})
		c.Fence()
		if cp.Read(c, dst, 1)[0] != 0x11 {
			t.Errorf("%T: write not visible", cp)
		}
		cp.ReadAsync(c, dst+64, 8)
		c.Fence()
		cp.Free(c, memdata.Range{Start: dst, Size: 16 << 10})
	})
}

func TestEagerRoundTrip(t *testing.T) { roundTrip(t, newM(false), Eager{}) }

func TestLazyRoundTrip(t *testing.T) { roundTrip(t, newM(true), Lazy{Threshold: 1024}) }

func TestLazyThresholdRouting(t *testing.T) {
	m := newM(true)
	src := m.AllocPage(8 << 10)
	dst := m.AllocPage(8 << 10)
	m.FillRandom(src, 8<<10, 2)
	cp := Lazy{Threshold: 2048}
	m.Run(func(c *cpu.Core) {
		cp.Memcpy(c, dst, src, 1024) // below: eager
	})
	if m.Lazy.Stats.LazyOps != 0 {
		t.Fatal("below-threshold copy went lazy")
	}
	m.Run(func(c *cpu.Core) {
		cp.Memcpy(c, dst+4096, src+4096, 4096) // above: lazy
	})
	if m.Lazy.Stats.LazyOps == 0 {
		t.Fatal("above-threshold copy stayed eager")
	}
}

func TestZeroThresholdAlwaysLazy(t *testing.T) {
	m := newM(true)
	src := m.AllocPage(4096)
	dst := m.AllocPage(4096)
	m.FillRandom(src, 4096, 3)
	m.Run(func(c *cpu.Core) {
		Lazy{}.Memcpy(c, dst, src, 128)
	})
	if m.Lazy.Stats.LazyOps == 0 {
		t.Fatal("zero-threshold Lazy copier did not go lazy")
	}
}

// TestInterposerCounters counts the MCLAZYs behind each call under a
// 1 KB threshold: a 512-byte call stays eager, and a call at the threshold
// and one above it each become one page-bounded MCLAZY. The eager copier
// never issues one, even on (MC)² hardware.
func TestInterposerCounters(t *testing.T) {
	m := newM(true)
	buf := m.AllocPage(64 << 10)
	m.FillRandom(buf, 64<<10, 7)
	ip := Lazy{Threshold: 1024}
	for _, tc := range []struct {
		dst  memdata.Addr
		n    uint64
		lazy uint64
	}{{buf + 32<<10, 512, 0}, {buf + 40<<10, 1024, 1}, {buf + 48<<10, 4096, 1}} {
		before := m.ISA.Stats.MCLazies
		m.Run(func(c *cpu.Core) { ip.Memcpy(c, tc.dst, buf, tc.n) })
		if got := m.ISA.Stats.MCLazies - before; got != tc.lazy {
			t.Errorf("%d-byte copy issued %d MCLAZYs, want %d", tc.n, got, tc.lazy)
		}
	}
	m2 := newM(true)
	buf2 := m2.AllocPage(16 << 10)
	m2.Run(func(c *cpu.Core) { Eager{}.Memcpy(c, buf2+8<<10, buf2, 4096) })
	if m2.ISA.Stats.MCLazies != 0 || m2.Lazy.Stats.LazyOps != 0 {
		t.Fatal("eager copier issued MCLAZY")
	}
}
