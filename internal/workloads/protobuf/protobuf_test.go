package protobuf

import (
	"runtime"
	"testing"

	"mcsquare/internal/copykit"
	"mcsquare/internal/oskern"
	"mcsquare/internal/zio"
)

func quickCfg(cp copykit.Copier) Config {
	return Config{Ops: 192, Burst: 64, Seed: 11, Copier: cp}
}

func TestBaselineHasCopyOverhead(t *testing.T) {
	m := NewMachine(false, nil)
	res := Run(m, quickCfg(copykit.Eager{}))
	if res.Copies == 0 || res.Cycles == 0 {
		t.Fatal("workload did nothing")
	}
	frac := float64(res.CopyCycles) / float64(res.Cycles)
	// Fig 2: Protobuf spends a large share of cycles in memcpy.
	if frac < 0.15 || frac > 0.95 {
		t.Fatalf("copy overhead fraction = %.2f; implausible", frac)
	}
	// Fig 3: a substantial share of copy accesses miss the cache.
	missRate := float64(res.CopyL1Misses) / float64(res.CopyAccesses)
	if missRate < 0.10 {
		t.Fatalf("copy miss rate = %.2f; corpus should exceed the L2", missRate)
	}
}

func TestMC2Speedup(t *testing.T) {
	base := Run(NewMachine(false, nil), quickCfg(copykit.Eager{}))
	mc2 := Run(NewMachine(true, nil), quickCfg(copykit.Lazy{Threshold: 1024}))
	if mc2.Cycles >= base.Cycles {
		t.Fatalf("(MC)² (%d) not faster than baseline (%d)", mc2.Cycles, base.Cycles)
	}
	speedup := float64(base.Cycles-mc2.Cycles) / float64(base.Cycles)
	t.Logf("runtime reduction: %.1f%% (paper: 43%%)", speedup*100)
	if speedup < 0.10 {
		t.Fatalf("runtime reduction only %.1f%%", speedup*100)
	}
}

func TestZIOGetsNoElision(t *testing.T) {
	m := NewMachine(false, nil)
	z := zio.New(oskern.New(m))
	res := Run(m, quickCfg(z))
	if z.Stats.ElidedPages != 0 {
		t.Fatalf("zIO elided %d pages; all protobuf copies are sub-page and unaligned", z.Stats.ElidedPages)
	}
	if res.Copies == 0 {
		t.Fatal("no copies ran")
	}
}

func TestSizesFollowFig4(t *testing.T) {
	m := NewMachine(false, nil)
	res := Run(m, quickCfg(copykit.Eager{}))
	// Median copy size must be 1 KB (the paper's 56% point straddles it).
	if med := res.Sizes.Percentile(50); med != 1024 {
		t.Fatalf("median copy size = %v, want 1024", med)
	}
	if res.Sizes.Max() > 4096 {
		t.Fatalf("max copy size = %v, want ≤4096", res.Sizes.Max())
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := Run(NewMachine(true, nil), quickCfg(copykit.Lazy{Threshold: 1024}))
	b := Run(NewMachine(true, nil), quickCfg(copykit.Lazy{Threshold: 1024}))
	if a.Cycles != b.Cycles || a.CopyCycles != b.CopyCycles {
		t.Fatalf("non-deterministic: %d/%d vs %d/%d", a.Cycles, a.CopyCycles, b.Cycles, b.CopyCycles)
	}
}

// TestRunAllocationsPerField bounds the heap allocations a copied field
// costs a run: the difference between the allocations of a 192-merge and a
// 64-merge run, over the difference in fields copied. About one a field
// remains (merge records, histogram growth, arena pages); building the
// counter names the per-field accounting reads for every field cost 13.
func TestRunAllocationsPerField(t *testing.T) {
	run := func(ops int) (allocs, fields uint64) {
		m := NewMachine(false, nil)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := Run(m, Config{Ops: ops, Burst: 64, Seed: 11})
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, res.Copies
	}
	a0, f0 := run(64)
	a1, f1 := run(192)
	perField := float64(a1-a0) / float64(f1-f0)
	t.Logf("%d allocations over %d more fields: %.2f a field", a1-a0, f1-f0, perField)
	if perField > 2 {
		t.Fatalf("a copied field costs %.2f heap allocations, want at most 2", perField)
	}
}

// TestLazyRunAllocationsPerField is TestRunAllocationsPerField on (MC)²
// hardware behind the paper's 1 KB interposer: the MCLAZYs and MCFREEs a
// field's copy issues draw their requests from pools, so a copied field
// costs at most 3 heap allocations (about 12 when each MCLAZY allocated
// its own continuations).
func TestLazyRunAllocationsPerField(t *testing.T) {
	run := func(ops int) (allocs, fields uint64) {
		m := NewMachine(true, nil)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := Run(m, Config{Ops: ops, Burst: 64, Seed: 11, Copier: copykit.Lazy{Threshold: 1024}})
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, res.Copies
	}
	a0, f0 := run(64)
	a1, f1 := run(192)
	perField := float64(a1-a0) / float64(f1-f0)
	t.Logf("%d allocations over %d more fields: %.2f a field", a1-a0, f1-f0, perField)
	if perField > 3 {
		t.Fatalf("a lazily copied field costs %.2f heap allocations, want at most 3", perField)
	}
}
