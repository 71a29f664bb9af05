package cache

import (
	"bytes"
	"math/rand"
	"testing"

	"mcsquare/internal/dram"
	"mcsquare/internal/memctrl"
	"mcsquare/internal/memdata"
	"mcsquare/internal/sim"
)

type rig struct {
	eng  *sim.Engine
	phys *memdata.Physical
	mc   *memctrl.Controller
	h    *Hierarchy
}

func newRig(cores int) *rig {
	eng := sim.NewEngine()
	phys := memdata.NewPhysical(1 << 24)
	mc := memctrl.New(0, eng, memctrl.DefaultConfig(), dram.NewChannel(dram.DDR4Config()), phys)
	h := New(eng, DefaultConfig(cores), func(memdata.Addr) *memctrl.Controller { return mc })
	return &rig{eng: eng, phys: phys, mc: mc, h: h}
}

func (r *rig) fill(seed int64) {
	rnd := rand.New(rand.NewSource(seed))
	buf := make([]byte, r.phys.Size())
	rnd.Read(buf)
	r.phys.Write(0, buf)
}

// read synchronously reads a line in a fresh engine run.
func (r *rig) read(core int, a memdata.Addr) []byte {
	var out []byte
	r.eng.After(0, func() { r.h.Read(core, a, 0, func(d []byte) { out = append([]byte(nil), d...) }) })
	r.eng.Drain()
	return out
}

func (r *rig) write(core int, a memdata.Addr, off uint64, data []byte) {
	r.eng.After(0, func() { r.h.Write(core, a, off, data, 0, func() {}) })
	r.eng.Drain()
}

func TestReadMissThenHit(t *testing.T) {
	r := newRig(1)
	r.fill(1)
	want := r.phys.ReadLine(4096)
	got := r.read(0, 4096)
	if !bytes.Equal(got, want) {
		t.Fatal("miss data mismatch")
	}
	if r.h.Stats.L1Misses != 1 || r.h.Stats.L2Misses != 1 {
		t.Fatalf("stats: %+v", r.h.Stats)
	}
	got2 := r.read(0, 4096)
	if !bytes.Equal(got2, want) {
		t.Fatal("hit data mismatch")
	}
	if r.h.Stats.L1Hits != 1 {
		t.Fatalf("expected L1 hit, stats: %+v", r.h.Stats)
	}
}

func TestWriteReadYourOwn(t *testing.T) {
	r := newRig(1)
	r.fill(2)
	r.write(0, 4096, 10, []byte{1, 2, 3})
	got := r.read(0, 4096)
	if got[10] != 1 || got[11] != 2 || got[12] != 3 {
		t.Fatal("read-your-writes violated")
	}
	// Memory must be stale until eviction (write-back).
	mem := r.phys.ReadLine(4096)
	if mem[10] == 1 && mem[11] == 2 && mem[12] == 3 {
		t.Skip("write coincided with memory content")
	}
}

func TestCrossCoreCoherence(t *testing.T) {
	r := newRig(2)
	r.fill(3)
	r.write(0, 8192, 0, []byte{0xAA})
	// Core 1 must observe core 0's dirty data.
	got := r.read(1, 8192)
	if got[0] != 0xAA {
		t.Fatalf("core 1 read stale data: %#x", got[0])
	}
	if r.h.Stats.CrossCorePulls == 0 {
		t.Fatal("no cross-core pull recorded")
	}
	// Core 1 writes; core 0 must see it.
	r.write(1, 8192, 1, []byte{0xBB})
	got0 := r.read(0, 8192)
	if got0[0] != 0xAA || got0[1] != 0xBB {
		t.Fatalf("core 0 missed core 1's write: %x", got0[:2])
	}
	if err := r.h.CheckDirectory(); err != nil {
		t.Fatal(err)
	}
}

func TestEvictionWritesBack(t *testing.T) {
	r := newRig(1)
	r.fill(4)
	// Dirty a line, then stream enough lines through the same L2 set to
	// evict it. L2: 2MB/16 ways -> 2048 sets; same set stride = 2048*64 = 128KB.
	a := memdata.Addr(0)
	r.write(0, a, 0, []byte{0xCC})
	setStride := (r.h.l2.setMask + 1) * memdata.LineSize
	for i := uint64(1); i <= uint64(r.h.cfg.L2Ways)+2; i++ {
		r.read(0, memdata.Addr(i*setStride))
	}
	r.eng.Drain()
	if r.phys.ReadLine(a)[0] != 0xCC {
		t.Fatal("dirty eviction lost data")
	}
	if r.h.Stats.L2Writebacks == 0 {
		t.Fatal("no L2 writeback recorded")
	}
	if err := r.h.CheckDirectory(); err != nil {
		t.Fatal(err)
	}
}

func TestCLWB(t *testing.T) {
	r := newRig(1)
	r.fill(5)
	a := memdata.Addr(4096)
	r.write(0, a, 0, []byte{0xDD})
	r.eng.After(0, func() { r.h.CLWB(0, a, 0, func() {}) })
	r.eng.Drain()
	if r.phys.ReadLine(a)[0] != 0xDD {
		t.Fatal("CLWB did not write back")
	}
	// Line stays cached (clean): next read is an L1 hit.
	h0 := r.h.Stats.L1Hits
	r.read(0, a)
	if r.h.Stats.L1Hits != h0+1 {
		t.Fatal("CLWB evicted the line")
	}
	// CLWB of a clean line writes nothing.
	w0 := r.h.Stats.CLWBDirty
	r.eng.After(0, func() { r.h.CLWB(0, a, 0, func() {}) })
	r.eng.Drain()
	if r.h.Stats.CLWBDirty != w0 {
		t.Fatal("clean CLWB wrote back")
	}
}

func TestNTStoreBypassesCache(t *testing.T) {
	r := newRig(1)
	r.fill(6)
	a := memdata.Addr(4096)
	r.read(0, a) // cache it
	data := bytes.Repeat([]byte{0x77}, memdata.LineSize)
	r.eng.After(0, func() { r.h.WriteLineNT(0, a, data, 0, func() {}) })
	r.eng.Drain()
	if r.phys.ReadLine(a)[0] != 0x77 {
		t.Fatal("NT store did not reach memory")
	}
	// Cached copy must have been dropped; next read misses.
	m0 := r.h.Stats.L1Misses
	got := r.read(0, a)
	if r.h.Stats.L1Misses != m0+1 {
		t.Fatal("NT store left a stale cached copy")
	}
	if got[0] != 0x77 {
		t.Fatal("read after NT store returned stale data")
	}
}

func TestInvalidateRangeDropsWithoutWriteback(t *testing.T) {
	r := newRig(1)
	r.fill(7)
	a := memdata.Addr(4096)
	old := r.phys.ReadLine(a)
	r.write(0, a, 0, []byte{0x99})
	n := 0
	r.eng.After(0, func() {
		n = r.h.InvalidateRange(memdata.Range{Start: a, Size: memdata.LineSize})
	})
	r.eng.Drain()
	if n != 1 {
		t.Fatalf("invalidated %d lines", n)
	}
	// The dirty data is discarded: memory keeps the old value.
	if !bytes.Equal(r.phys.ReadLine(a), old) {
		t.Fatal("invalidate wrote back dirty data")
	}
}

func TestFlushRange(t *testing.T) {
	r := newRig(1)
	r.fill(8)
	base := memdata.Addr(8192)
	for i := uint64(0); i < 4; i++ {
		r.write(0, base+memdata.Addr(i*memdata.LineSize), 0, []byte{byte(0x10 + i)})
	}
	calls := 0
	var dirty int
	r.eng.After(0, func() {
		dirty = r.h.FlushRange(memdata.Range{Start: base, Size: 4 * memdata.LineSize}, 0, func() { calls++ })
		if calls != 0 {
			t.Errorf("done ran %d times before FlushRange returned", calls)
		}
	})
	r.eng.Drain()
	if dirty != 4 {
		t.Fatalf("flushed %d dirty lines, want 4", dirty)
	}
	// Once per accepted writeback, plus once after the L2 probe.
	if calls != dirty+1 {
		t.Fatalf("done ran %d times, want %d", calls, dirty+1)
	}
	for i := uint64(0); i < 4; i++ {
		if r.phys.ReadLine(base + memdata.Addr(i*memdata.LineSize))[0] != byte(0x10+i) {
			t.Fatalf("line %d not flushed", i)
		}
	}
}

func TestMSHRMergesAndBounds(t *testing.T) {
	r := newRig(1)
	r.fill(9)
	hits := 0
	r.eng.After(0, func() {
		// Two concurrent reads of the same line: one miss, merged waiter.
		r.h.Read(0, 0, 0, func([]byte) { hits++ })
		r.h.Read(0, 0, 0, func([]byte) { hits++ })
		// Plus more misses than MSHRs.
		for i := 1; i <= r.h.cfg.MSHRsPerCore+5; i++ {
			r.h.Read(0, memdata.Addr(i*4096), 0, func([]byte) { hits++ })
		}
	})
	r.eng.Drain()
	if hits != 2+r.h.cfg.MSHRsPerCore+5 {
		t.Fatalf("completed %d reads", hits)
	}
	if r.h.Stats.MSHRStalls == 0 {
		t.Fatal("no MSHR stalls with over-capacity misses")
	}
	if r.h.Stats.L2Misses >= r.h.Stats.L1Misses {
		t.Fatalf("merge failed: L1 misses %d, L2 misses %d", r.h.Stats.L1Misses, r.h.Stats.L2Misses)
	}
}

func TestStridePrefetcher(t *testing.T) {
	r := newRig(1)
	r.fill(10)
	// Sequential stream: after training, prefetches should land in L2 so
	// later lines are L2 hits instead of misses.
	for i := 0; i < 64; i++ {
		r.read(0, memdata.Addr(i*memdata.LineSize))
	}
	if r.h.Stats.PrefetchesIssued == 0 {
		t.Fatal("no prefetches issued on a sequential stream")
	}
	if r.h.Stats.L2Hits == 0 {
		t.Fatal("prefetches never produced L2 hits")
	}
	// Disabled prefetcher issues nothing.
	r2 := newRig(1)
	r2.h.cfg.Prefetch.Enabled = false
	r2.fill(10)
	for i := 0; i < 64; i++ {
		r2.read(0, memdata.Addr(i*memdata.LineSize))
	}
	if r2.h.Stats.PrefetchesIssued != 0 {
		t.Fatal("disabled prefetcher issued prefetches")
	}
}

func TestPrefetchLatencyBenefit(t *testing.T) {
	run := func(enabled bool) sim.Cycle {
		r := newRig(1)
		r.h.cfg.Prefetch.Enabled = enabled
		r.fill(11)
		var doneAt sim.Cycle
		r.eng.Go("stream", func(p *sim.Proc) {
			for i := 0; i < 256; i++ {
				ok := false
				r.h.Read(0, memdata.Addr(i*memdata.LineSize), 0, func([]byte) {
					ok = true
					if !p.Finished() {
						p.Resume()
					}
				})
				for !ok {
					p.Suspend()
				}
			}
			doneAt = p.Now()
		})
		r.eng.Drain()
		return doneAt
	}
	with := run(true)
	without := run(false)
	if with >= without {
		t.Fatalf("prefetching did not help: with=%d without=%d", with, without)
	}
}

// Randomized multi-core coherence fuzz: reads and writes from several cores
// over a small colliding region must always observe the freshest value.
func TestRandomCoherence(t *testing.T) {
	r := newRig(4)
	r.fill(12)
	rnd := rand.New(rand.NewSource(99))
	shadow := make(map[memdata.Addr][]byte)
	lineOf := func() memdata.Addr { return memdata.Addr(rnd.Intn(64)) * memdata.LineSize }

	for step := 0; step < 800; step++ {
		core := rnd.Intn(4)
		a := lineOf()
		if rnd.Intn(2) == 0 {
			b := byte(rnd.Intn(256))
			off := uint64(rnd.Intn(memdata.LineSize))
			r.write(core, a, off, []byte{b})
			want, ok := shadow[a]
			if !ok {
				want = r.phys.ReadLine(a)
				// The physical line may have changed after earlier evictions;
				// reading through the cache gives the truth.
				want = r.read(core, a)
			}
			want[off] = b
			shadow[a] = want
		} else {
			got := r.read(core, a)
			if want, ok := shadow[a]; ok && !bytes.Equal(got, want) {
				t.Fatalf("step %d: core %d line %#x mismatch", step, core, a)
			}
		}
	}
	if err := r.h.CheckDirectory(); err != nil {
		t.Fatal(err)
	}
}
