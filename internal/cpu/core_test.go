package cpu

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"mcsquare/internal/cache"
	"mcsquare/internal/dram"
	"mcsquare/internal/memctrl"
	"mcsquare/internal/memdata"
	"mcsquare/internal/sim"
)

type rig struct {
	eng  *sim.Engine
	phys *memdata.Physical
	hier *cache.Hierarchy
	core *Core
}

func newRig() *rig {
	eng := sim.NewEngine()
	phys := memdata.NewPhysical(1 << 24)
	mc := memctrl.New(0, eng, memctrl.DefaultConfig(), dram.NewChannel(dram.DDR4Config()), phys)
	hier := cache.New(eng, cache.DefaultConfig(1), func(memdata.Addr) *memctrl.Controller { return mc })
	core := New(0, DefaultConfig(), hier, nil)
	return &rig{eng: eng, phys: phys, hier: hier, core: core}
}

func (r *rig) fill(seed int64) {
	rnd := rand.New(rand.NewSource(seed))
	buf := make([]byte, r.phys.Size())
	rnd.Read(buf)
	r.phys.Write(0, buf)
}

// run executes fn on the core's process and returns total simulated cycles.
func (r *rig) run(fn func(c *Core)) sim.Cycle {
	var end sim.Cycle
	r.eng.Go("wl", func(p *sim.Proc) {
		r.core.Bind(p)
		fn(r.core)
		end = p.Now()
	})
	r.eng.Drain()
	return end
}

func TestLoadReturnsData(t *testing.T) {
	r := newRig()
	r.fill(1)
	want := r.phys.Read(1000, 8)
	var got []byte
	r.run(func(c *Core) { got = c.Load(1000, 8) })
	if !bytes.Equal(got, want) {
		t.Fatalf("Load = %x, want %x", got, want)
	}
}

func TestLoadCrossesLines(t *testing.T) {
	r := newRig()
	r.fill(2)
	want := r.phys.Read(60, 16) // spans two lines
	var got []byte
	r.run(func(c *Core) { got = c.Load(60, 16) })
	if !bytes.Equal(got, want) {
		t.Fatal("line-crossing load mismatch")
	}
}

func TestStoreThenLoad(t *testing.T) {
	r := newRig()
	r.fill(3)
	var got []byte
	r.run(func(c *Core) {
		c.Store(500, []byte{9, 8, 7})
		c.Fence()
		got = c.Load(500, 3)
	})
	if !bytes.Equal(got, []byte{9, 8, 7}) {
		t.Fatalf("got %v", got)
	}
}

func TestMemcpyMovesBytes(t *testing.T) {
	r := newRig()
	r.fill(4)
	const n = 1000
	want := r.phys.Read(4096, n)
	var got []byte
	r.run(func(c *Core) {
		c.Memcpy(65536+13, 4096, n) // misaligned destination
		c.Fence()
		got = c.Load(65536+13, n)
	})
	if !bytes.Equal(got, want) {
		t.Fatal("memcpy data mismatch")
	}
}

func TestMemcpyParallelismBeatsDependentLoads(t *testing.T) {
	// Copying N uncached lines with Memcpy (async) must be much faster than
	// N dependent loads (serialized on the miss latency).
	const lines = 64
	r1 := newRig()
	r1.fill(5)
	tAsync := r1.run(func(c *Core) {
		c.Memcpy(1<<20, 0, lines*memdata.LineSize)
		c.Fence()
	})
	r2 := newRig()
	r2.fill(5)
	perm := rand.New(rand.NewSource(5)).Perm(4096)[:lines]
	tDep := r2.run(func(c *Core) {
		for _, pi := range perm {
			// A random permutation of distant lines defeats the stride
			// prefetcher, exposing the full dependent-load latency.
			a := memdata.Addr(pi*memdata.LineSize) + (4 << 20)
			c.Load(a, 8)
		}
	})
	if tAsync*2 >= tDep {
		t.Fatalf("no MLP benefit: async=%d dependent=%d", tAsync, tDep)
	}
}

func TestWindowLimitsInflight(t *testing.T) {
	r := newRig()
	r.fill(6)
	r.run(func(c *Core) {
		for i := 0; i < 200; i++ {
			c.LoadAsync(memdata.Addr(i*4096), 8)
			if c.Inflight() > c.cfg.WindowSize {
				t.Fatalf("inflight %d exceeds window %d", c.Inflight(), c.cfg.WindowSize)
			}
		}
		c.Fence()
	})
	if r.core.Stats.WindowStall == 0 {
		t.Fatal("no window stalls with 200 outstanding loads")
	}
	if r.core.Inflight() != 0 {
		t.Fatal("fence left operations in flight")
	}
}

func TestFenceDrains(t *testing.T) {
	r := newRig()
	r.fill(7)
	r.run(func(c *Core) {
		c.Store(0, bytes.Repeat([]byte{1}, 64))
		c.LoadAsync(8192, 64)
		c.Fence()
		if c.Inflight() != 0 {
			t.Fatal("inflight after fence")
		}
	})
	if r.core.Stats.Fences != 1 {
		t.Fatalf("Fences = %d", r.core.Stats.Fences)
	}
}

func TestStoreNT(t *testing.T) {
	r := newRig()
	r.fill(8)
	data := bytes.Repeat([]byte{0xAB}, 2*memdata.LineSize)
	r.run(func(c *Core) {
		c.StoreNT(4096, data)
		c.Fence()
	})
	r.eng.Drain()
	if r.phys.ReadLine(4096)[0] != 0xAB || r.phys.ReadLine(4160)[0] != 0xAB {
		t.Fatal("NT store data missing from memory")
	}
	if r.core.Stats.NTStores != 2 {
		t.Fatalf("NTStores = %d", r.core.Stats.NTStores)
	}
}

func TestCLWBFromCore(t *testing.T) {
	r := newRig()
	r.fill(9)
	r.run(func(c *Core) {
		c.Store(4096, []byte{0x42})
		c.Fence()
		c.CLWB(4096)
		c.Fence()
	})
	r.eng.Drain()
	if r.phys.ReadLine(4096)[0] != 0x42 {
		t.Fatal("CLWB did not push data to memory")
	}
}

func TestComputeAdvancesTime(t *testing.T) {
	r := newRig()
	end := r.run(func(c *Core) { c.Compute(1234) })
	if end != 1234 {
		t.Fatalf("end = %d", end)
	}
}

func TestCachedCopyFasterThanUncached(t *testing.T) {
	// "Touched memcpy" effect (Fig 10): copying a cached source is faster.
	const n = 16 << 10
	r1 := newRig()
	r1.fill(10)
	tCold := r1.run(func(c *Core) {
		c.Memcpy(8<<20, 0, n)
		c.Fence()
	})
	r2 := newRig()
	r2.fill(10)
	tWarm := r2.run(func(c *Core) {
		// Touch the source first.
		for a := memdata.Addr(0); a < n; a += memdata.LineSize {
			c.LoadAsync(a, 8)
		}
		c.Fence()
		start := c.Now()
		c.Memcpy(8<<20, 0, n)
		c.Fence()
		_ = start
	})
	_ = tWarm
	// Compare only the copy part for warm: rerun measuring inside.
	r3 := newRig()
	r3.fill(10)
	var warmCopy sim.Cycle
	r3.run(func(c *Core) {
		for a := memdata.Addr(0); a < n; a += memdata.LineSize {
			c.LoadAsync(a, 8)
		}
		c.Fence()
		start := c.Now()
		c.Memcpy(8<<20, 0, n)
		c.Fence()
		warmCopy = c.Now() - start
	})
	if warmCopy >= tCold {
		t.Fatalf("cached copy (%d) not faster than cold copy (%d)", warmCopy, tCold)
	}
}

// Property: lineSpans partitions [a, a+n) exactly — no gaps, no overlap,
// spans stay within their line.
func TestLineSpansPartitionQuick(t *testing.T) {
	f := func(a32 uint32, n16 uint16) bool {
		a, n := memdata.Addr(a32), uint64(n16)
		spans := lineSpans(a, n)
		cursor := a
		var total uint64
		for _, s := range spans {
			if s.line != memdata.LineAlign(s.line) || s.n == 0 {
				return false
			}
			if s.line+memdata.Addr(s.off) != cursor {
				return false // gap or overlap
			}
			if s.off+s.n > memdata.LineSize {
				return false // crosses a line
			}
			cursor += memdata.Addr(s.n)
			total += s.n
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestMemcpyLineAllocations pins one eager Memcpy line at zero allocations
// once warm: the element, its gather buffer and its load and store steps
// come from the core's pool. The source is unaligned, so the line gathers
// from two source lines.
func TestMemcpyLineAllocations(t *testing.T) {
	r := newRig()
	r.fill(9)
	const dst, src = memdata.Addr(1 << 20), memdata.Addr(8<<10 + 24)
	var allocs float64
	r.run(func(c *Core) {
		c.Memcpy(dst, src, memdata.LineSize)
		c.Fence()
		allocs = testing.AllocsPerRun(100, func() {
			c.Memcpy(dst, src, memdata.LineSize)
			c.Fence()
		})
	})
	if allocs != 0 {
		t.Fatalf("Memcpy of one line: %v allocs/op, want 0", allocs)
	}
	if got, _ := r.hier.Peek(dst); !bytes.Equal(got, r.phys.Read(src, memdata.LineSize)) {
		t.Fatalf("copied line %x, want the source's bytes", got)
	}
}
