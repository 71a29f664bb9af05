package machine

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"mcsquare/internal/copykit"
	"mcsquare/internal/cpu"
	"mcsquare/internal/invariant"
	"mcsquare/internal/memdata"
	"mcsquare/internal/sim"
	"mcsquare/internal/softmc"
)

func TestAllocAlignment(t *testing.T) {
	m := New(DefaultParams())
	a := m.Alloc(100, 64)
	b := m.Alloc(100, 4096)
	if !memdata.IsLineAligned(a) {
		t.Fatalf("a = %#x not line aligned", a)
	}
	if memdata.PageOffset(b) != 0 {
		t.Fatalf("b = %#x not page aligned", b)
	}
	if b < a+100 {
		t.Fatal("allocations overlap")
	}
}

// TestAllocExhaustionPanics: a request that does not fit must panic and
// leave the watermark where it was, including sizes so large that base+size
// wraps past 2^64: a wrapped end must not move the watermark backwards and
// make later buffers overlap earlier ones.
func TestAllocExhaustionPanics(t *testing.T) {
	p := DefaultParams()
	p.MemSize = 1 << 20
	m := New(p)
	first := m.Alloc(100, 64)
	for _, c := range []struct {
		name        string
		size, align uint64
	}{
		{"larger than memory", 2 << 20, 1},
		{"just past the end", 1<<20 - 4096, 1},
		{"base+size wraps", ^uint64(0) - 4096, 1},
		{"largest size", ^uint64(0), 4096},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "machine: out of simulated memory") {
					t.Errorf("%s: panic %q, want out of simulated memory", c.name, msg)
				}
			}()
			m.Alloc(c.size, c.align)
		}()
	}
	if next := m.Alloc(100, 64); next < first+100 {
		t.Fatalf("allocation after failed requests at %#x overlaps the first at %#x", next, first)
	}
}

// TestFillRandomStreamMatchesRandRead: FillRandom writes exactly the
// bytes rand.New(rand.NewSource(seed)).Read gives for the same length,
// and nothing outside [a, a+n), for line- and page-unaligned starts,
// lengths that cross one or more pages, and every tail length from 0 to 15
// after whole pages. With the invariant shadow on, the lines fully inside
// the range become known with those bytes and the partial edge lines stay
// unknown, as they would from one n-byte write.
func TestFillRandomStreamMatchesRandRead(t *testing.T) {
	var lengths []uint64
	for tail := uint64(0); tail < 16; tail++ {
		lengths = append(lengths, tail, memdata.PageSize+tail, 3*memdata.PageSize+tail)
	}
	lengths = append(lengths, memdata.PageSize-1, 2*memdata.PageSize-7, 7*memdata.PageSize/2)
	starts := []uint64{0, 1, 7, 63, 64 + 5, memdata.PageSize - 3, 2*memdata.PageSize - 64}
	for _, shadow := range []bool{false, true} {
		p := DefaultParams()
		p.MemSize = 16 << 20
		if shadow {
			p.Env = NewEnv(Env{Invariants: invariant.Config{Shadow: true}})
		}
		m := New(p)
		for i, n := range lengths {
			for j, off := range starts {
				// A fresh window per case: never written, never observed.
				base := m.AllocPage(8 * memdata.PageSize)
				seed := int64(100*i + j)
				a := base + memdata.Addr(memdata.PageSize+off)
				m.FillRandom(a, n, seed)

				want := make([]byte, n)
				rand.New(rand.NewSource(seed)).Read(want)
				window := m.Phys.Read(base, 8*memdata.PageSize)
				lo, hi := a-base, a-base+memdata.Addr(n)
				if got := window[lo:hi]; !bytes.Equal(got, want) {
					t.Fatalf("shadow %v, start +%d, n %d: bytes differ from rand.Read", shadow, off, n)
				}
				if !allZero(window[:lo]) || !allZero(window[hi:]) {
					t.Fatalf("shadow %v, start +%d, n %d: wrote outside the range", shadow, off, n)
				}
				if shadow {
					checkShadowLines(t, m, a, n)
				}
			}
		}
		if vs := m.Inv.Violations(); len(vs) != 0 {
			t.Fatalf("shadow reported %d violations, first %v", len(vs), vs[0])
		}
	}
}

func allZero(b []byte) bool {
	for _, x := range b {
		if x != 0 {
			return false
		}
	}
	return true
}

// checkShadowLines reads every line touching [a, a+n) back into the
// shadow's read check: the fully covered lines must be checked against
// known bytes, the partial edge lines adopted as first observations.
func checkShadowLines(t *testing.T, m *Machine, a memdata.Addr, n uint64) {
	t.Helper()
	first, end := memdata.LineAlign(a), memdata.LineUp(a+memdata.Addr(n))
	if n == 0 {
		end = first
	}
	full := uint64(0)
	if lo, hi := memdata.LineUp(a), memdata.LineAlign(a+memdata.Addr(n)); hi > lo {
		full = uint64(hi-lo) / memdata.LineSize
	}
	checks0, _, adopted0 := m.Inv.Checks()
	for l := first; l < end; l += memdata.LineSize {
		m.Inv.CheckRead(l, m.Phys.ReadLine(l), 1)
	}
	checks, _, adopted := m.Inv.Checks()
	if checks-checks0 != full || adopted-adopted0 != uint64(end-first)/memdata.LineSize-full {
		t.Fatalf("start %#x, n %d: %d lines checked and %d adopted, want %d fully covered lines checked",
			a, n, checks-checks0, adopted-adopted0, full)
	}
}

// TestNewAllocationPin keeps machine construction cheap in host memory: the
// sparse physical store starts as a 1 KB directory of 2 MB regions, not
// MemSize bytes or a page table, and the cache arrays start as short
// directories of metadata blocks, allocating a block of way metadata at
// the first fill that lands in it and a way's line bytes at its own first
// fill, so building the 256 MB Table I machine allocates about 51 KB. The
// limit leaves about 25% headroom over that: dense way metadata (32 KB for
// each L1, 1 MB for the L2), a dense page directory, a dense store, or
// cache arrays that allocate their line bytes up front fail here. Each
// cache array is a few flat allocations, so the machine takes a few
// hundred objects, not one per cache line.
func TestNewAllocationPin(t *testing.T) {
	const limit = 65_000
	const maxObjects = 1000
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			New(DefaultParams())
		}
	})
	if got := r.AllocedBytesPerOp(); got > limit {
		t.Fatalf("New(DefaultParams()) allocates %d bytes per machine, want at most %d", got, limit)
	}
	if got := r.AllocsPerOp(); got >= maxObjects {
		t.Fatalf("New(DefaultParams()) makes %d allocations per machine, want fewer than %d", got, maxObjects)
	}
	t.Logf("New(DefaultParams()): %d allocations, %d bytes", r.AllocsPerOp(), r.AllocedBytesPerOp())
}

// TestNewGuards pins the last-resort panics on hand-built Params — spec
// users hit the same conditions as structured errors in
// config.MachineSpec.Validate, long before New runs.
func TestNewGuards(t *testing.T) {
	expectPanic := func(name string, p Params) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: New did not panic", name)
			}
		}()
		New(p)
	}
	p := DefaultParams()
	p.Channels = 3
	expectPanic("non-power-of-two channels", p)

	p = DefaultParams()
	p.Cores = 4 // cache geometry still sized for 8
	expectPanic("mismatched cache geometry", p)
}

// TestNewAdoptsCoreCount: zero Cache.Cores inherits the machine's core
// count (the explicit opt-in that replaced the old silent rewrite).
func TestNewAdoptsCoreCount(t *testing.T) {
	p := DefaultParams()
	p.Cores = 2
	p.Cache.Cores = 0
	m := New(p)
	if got := len(m.Cores); got != 2 {
		t.Fatalf("built %d cores, want 2", got)
	}
}

func TestRunMultipleCores(t *testing.T) {
	m := New(DefaultParams())
	order := make([]int, 0, 2)
	m.Run(
		func(c *cpu.Core) { c.Compute(100); order = append(order, 0) },
		func(c *cpu.Core) { c.Compute(50); order = append(order, 1) },
	)
	if len(order) != 2 || order[0] != 1 || order[1] != 0 {
		t.Fatalf("order = %v", order)
	}
}

// TestMemcpyLazyFullStackEquivalence drives memcpy_lazy end to end —
// wrapper, CLWBs, MCLAZY cache sweeps, CTT, bounces, BPQ — against a shadow
// byte model, over random sizes and misalignments.
func TestMemcpyLazyFullStackEquivalence(t *testing.T) {
	m := New(DefaultParams())
	const region = 1 << 18
	base := m.Alloc(region, memdata.PageSize)
	m.FillRandom(base, region, 7)
	shadow := m.Phys.Read(base, region)
	rnd := rand.New(rand.NewSource(7))

	// t.Fatalf must not run on the workload process (its Goexit would leave
	// the coroutine through the engine mid-event); record the failure and
	// report after Run.
	var failure string
	m.Run(func(c *cpu.Core) {
		for step := 0; step < 120 && failure == ""; step++ {
			switch rnd.Intn(5) {
			case 0, 1: // lazy memcpy with arbitrary alignment and size
				size := uint64(1 + rnd.Intn(12000))
				dst := uint64(rnd.Intn(region - int(size)))
				src := uint64(rnd.Intn(region - int(size)))
				dstR := memdata.Range{Start: base + memdata.Addr(dst), Size: size}
				srcR := memdata.Range{Start: base + memdata.Addr(src), Size: size}
				if dstR.Overlaps(srcR) {
					continue
				}
				softmc.MemcpyLazy(c, dstR.Start, srcR.Start, size)
				copy(shadow[dst:dst+size], shadow[src:src+size])
			case 2: // plain store
				n := uint64(1 + rnd.Intn(64))
				off := uint64(rnd.Intn(region - int(n)))
				data := make([]byte, n)
				rnd.Read(data)
				c.Store(base+memdata.Addr(off), data)
				c.Fence()
				copy(shadow[off:off+n], data)
			default: // read & verify
				n := uint64(1 + rnd.Intn(256))
				off := uint64(rnd.Intn(region - int(n)))
				got := c.Load(base+memdata.Addr(off), n)
				if !bytes.Equal(got, shadow[off:off+n]) {
					failure = fmt.Sprintf("step %d: bytes [%d,%d) mismatch", step, off, off+n)
				}
			}
		}
		// Full final verification.
		for off := uint64(0); off < region && failure == ""; off += 4096 {
			got := c.Load(base+memdata.Addr(off), 4096)
			if !bytes.Equal(got, shadow[off:off+4096]) {
				failure = fmt.Sprintf("final: page at %d mismatch", off)
			}
		}
	})
	if failure != "" {
		t.Fatal(failure)
	}
	if err := m.Lazy.CTT().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if m.Lazy.Stats.LazyOps == 0 {
		t.Fatal("no lazy copies were issued")
	}
}

// TestLazyBeatsEagerUncached reproduces the headline of Fig 10: for large
// uncached copies, memcpy_lazy completes far faster than eager memcpy.
func TestLazyBeatsEagerUncached(t *testing.T) {
	const size = 64 << 10
	run := func(lazy bool) sim.Cycle {
		m := New(DefaultParams())
		src := m.AllocPage(size)
		dst := m.AllocPage(size)
		m.FillRandom(src, size, 9)
		var dur sim.Cycle
		m.Run(func(c *cpu.Core) {
			start := c.Now()
			if lazy {
				softmc.MemcpyLazy(c, dst, src, size)
			} else {
				softmc.MemcpyEager(c, dst, src, size)
			}
			dur = c.Now() - start
		})
		return dur
	}
	eager := run(false)
	lz := run(true)
	if lz*2 >= eager {
		t.Fatalf("lazy %d cycles not ≥2x faster than eager %d", lz, eager)
	}
}

// TestSourceWriteAfterLazyCopyFullStack: the paper's central consistency
// property through the whole machine — writes to the source after
// memcpy_lazy must not leak into the destination, even when the writes sit
// dirty in the cache for a while.
func TestSourceWriteAfterLazyCopyFullStack(t *testing.T) {
	m := New(DefaultParams())
	const size = 8 << 10
	src := m.AllocPage(size)
	dst := m.AllocPage(size)
	m.FillRandom(src, size, 11)
	want := m.Phys.Read(src, size)

	m.Run(func(c *cpu.Core) {
		softmc.MemcpyLazy(c, dst, src, size)
		// Overwrite the whole source through the cache.
		junk := bytes.Repeat([]byte{0xFF}, size)
		c.Store(src, junk)
		c.Fence()
		// Push the dirty lines out to memory so the BPQ path runs.
		for a := src; a < src+size; a += memdata.LineSize {
			c.CLWB(a)
		}
		c.Fence()
		got := c.Load(dst, size)
		if !bytes.Equal(got, want) {
			t.Fatal("destination observed post-copy source writes")
		}
		got2 := c.Load(src, 64)
		if got2[0] != 0xFF {
			t.Fatal("source lost its new data")
		}
	})
}

func TestInterposerPolicy(t *testing.T) {
	m := New(DefaultParams())
	src := m.AllocPage(8 << 10)
	dst := m.AllocPage(8 << 10)
	m.FillRandom(src, 8<<10, 13)
	ip := copykit.Lazy{Threshold: 1024}
	m.Run(func(c *cpu.Core) {
		ip.Memcpy(c, dst, src, 512) // below threshold: eager
	})
	if m.ISA.Stats.MCLazies != 0 {
		t.Fatalf("a 512-byte copy under a 1 KB threshold issued %d MCLAZYs", m.ISA.Stats.MCLazies)
	}
	m.Run(func(c *cpu.Core) {
		ip.Memcpy(c, dst+4096, src+4096, 4096) // redirected
	})
	if m.ISA.Stats.MCLazies != 1 || m.Lazy.Stats.LazyOps == 0 {
		t.Fatalf("redirected copy: %d MCLAZYs, %d lazy ops", m.ISA.Stats.MCLazies, m.Lazy.Stats.LazyOps)
	}
	m.Run(func(c *cpu.Core) {
		if !bytes.Equal(c.Load(dst, 512), m.Phys.Read(src, 512)) ||
			!bytes.Equal(c.Load(dst+4096, 4096), m.Phys.Read(src+4096, 4096)) {
			t.Error("interposed copies read back wrong bytes")
		}
	})
}

func TestMCFreeThroughCore(t *testing.T) {
	m := New(DefaultParams())
	src := m.AllocPage(4096)
	dst := m.AllocPage(4096)
	m.FillRandom(src, 4096, 17)
	m.Run(func(c *cpu.Core) {
		softmc.MemcpyLazy(c, dst, src, 4096)
		softmc.Free(c, memdata.Range{Start: dst, Size: 4096})
	})
	if m.Lazy.CTT().Len() != 0 {
		t.Fatalf("CTT has %d entries after MCFREE", m.Lazy.CTT().Len())
	}
}

func TestBaselineMachineHasNoLazyUnit(t *testing.T) {
	p := DefaultParams()
	p.LazyEnabled = false
	m := New(p)
	if m.Lazy != nil || m.ISA != nil {
		t.Fatal("baseline machine has lazy machinery")
	}
	// Plain copies still work.
	src := m.AllocPage(4096)
	dst := m.AllocPage(4096)
	m.FillRandom(src, 4096, 19)
	want := m.Phys.Read(src, 4096)
	m.Run(func(c *cpu.Core) {
		softmc.MemcpyEager(c, dst, src, 4096)
		got := c.Load(dst, 4096)
		if !bytes.Equal(got, want) {
			t.Fatal("eager copy mismatch")
		}
	})
}

// TestMultiCoreSharedLazy: several cores lazily copy disjoint buffers at
// once; all destinations must be correct.
func TestMultiCoreSharedLazy(t *testing.T) {
	m := New(DefaultParams())
	const size = 16 << 10
	type job struct{ src, dst memdata.Addr }
	jobs := make([]job, 4)
	wants := make([][]byte, 4)
	for i := range jobs {
		jobs[i].src = m.AllocPage(size)
		jobs[i].dst = m.AllocPage(size)
		m.FillRandom(jobs[i].src, size, int64(100+i))
		wants[i] = m.Phys.Read(jobs[i].src, size)
	}
	fns := make([]func(c *cpu.Core), 4)
	results := make([]bool, 4)
	for i := range fns {
		i := i
		fns[i] = func(c *cpu.Core) {
			softmc.MemcpyLazy(c, jobs[i].dst, jobs[i].src, size)
			got := c.Load(jobs[i].dst, size)
			results[i] = bytes.Equal(got, wants[i])
		}
	}
	m.Run(fns...)
	for i, ok := range results {
		if !ok {
			t.Fatalf("core %d: destination mismatch", i)
		}
	}
	if err := m.Lazy.CTT().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
