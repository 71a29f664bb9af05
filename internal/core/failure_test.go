package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mcsquare/internal/faultinject"
	"mcsquare/internal/invariant"
	"mcsquare/internal/memdata"
)

// Failure-injection regression tests (DESIGN.md §12): every fault is
// injected through an internal/faultinject schedule — the single injection
// mechanism — given to the rig at construction, as a run environment gives
// one to each machine. Each test drives one fault kind hard (forced CTT evictions,
// BPQ stall windows, WPQ rejection bursts, DRAM read corruption) and
// asserts both the fault accounting and observational equivalence against
// the shadow eager-copy oracle. The point is that injected adversity
// degrades into stalls, retries, and eager fallbacks — never into wrong
// data.

// newFaultRig builds a rig with sched's fault plane installed and, when
// icfg enables anything, the invariant oracles too (readable as r.flt and
// r.inv).
func newFaultRig(t *testing.T, p Params, sched faultinject.Schedule, icfg invariant.Config) *rig {
	t.Helper()
	return newRigWith(t, p, planes{faults: &sched, inv: icfg})
}

// sweepRegion checks every line of [start, end) against the shadow.
func sweepRegion(r *rig, start, end memdata.Addr, what string) {
	for a := start; a < end; a += line {
		r.check(a, what)
	}
}

// TestFaultCTTEvictionStorm: every second accepted MCLAZY forces the
// eviction (eager materialization) of a live CTT entry. Copies must all be
// accepted, forced frees must run, and every byte must still match the
// oracle.
func TestFaultCTTEvictionStorm(t *testing.T) {
	sched := faultinject.Schedule{Seed: 31, CTTEvictEvery: 2}
	r := newFaultRig(t, DefaultParams(), sched, invariant.Config{})
	r.fill(31)
	const n = 24
	r.run(func() {
		for i := uint64(0); i < n; i++ {
			r.lazyCopy(rng(0x10000+i*0x1000, 2*line), memdata.Addr(0x80000+i*0x1000))
		}
		sweepRegion(r, 0x10000, memdata.Addr(0x10000+n*0x1000), "dest sweep")
		sweepRegion(r, 0x80000, memdata.Addr(0x80000+n*0x1000), "source sweep")
	})
	if got := r.flt.Fired(faultinject.KindCTTEvict); got == 0 {
		t.Fatal("schedule with CTTEvictEvery=2 never fired")
	}
	s := r.lazy.Stats
	if s.ForcedEvictions == 0 {
		t.Fatal("fired evictions materialized no entry")
	}
	if s.Frees == 0 || s.FreedBytes == 0 {
		t.Fatalf("forced evictions did not run the free path: %+v", s)
	}
	if s.LazyOps != n {
		t.Fatalf("LazyOps = %d, want %d (no copy may be dropped)", s.LazyOps, n)
	}
	if err := r.lazy.CTT().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if !r.lazy.Idle() {
		t.Fatal("engine not idle after the storm drained")
	}
}

// TestFaultBPQStallWindows: every second BPQ acquisition is stalled for a
// 400-cycle window. Held source writes must still complete their lazy
// copies, and both the as-of-copy destination and the post-write source
// must match the oracle.
func TestFaultBPQStallWindows(t *testing.T) {
	sched := faultinject.Schedule{Seed: 32, BPQStallEvery: 2, BPQStallCycles: 400}
	r := newFaultRig(t, DefaultParams(), sched, invariant.Config{})
	r.fill(32)
	const lines = 16
	r.run(func() {
		dst := rng(0x10000, lines*line)
		r.lazyCopy(dst, 0x80000)
		released := 0
		for i := uint64(0); i < lines; i++ {
			a := memdata.Addr(0x80000 + i*line)
			d := bytes.Repeat([]byte{0xC0 | byte(i)}, line)
			r.shadow.WriteLine(a, d)
			r.mc(a).WriteLine(a, d, 0, func() { released++ })
		}
		for released < lines {
			r.proc.Wait(1000)
		}
		sweepRegion(r, 0x10000, 0x10000+lines*line, "dest as-of-copy")
		sweepRegion(r, 0x80000, 0x80000+lines*line, "source new data")
	})
	if got := r.flt.Fired(faultinject.KindBPQStall); got == 0 {
		t.Fatal("schedule with BPQStallEvery=2 never fired")
	}
	s := r.lazy.Stats
	if s.BPQHolds == 0 || s.BPQCopies == 0 {
		t.Fatalf("BPQ machinery idle under stall windows: %+v", s)
	}
	if err := r.lazy.CTT().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if !r.lazy.Idle() {
		t.Fatal("engine not idle after BPQ drained")
	}
}

// TestFaultWPQRejectionBurst: the plane rejects every bounce writeback
// regardless of WPQ occupancy (WPQRejectEvery=1 — the injected extreme of
// the paper's 75% rule). Bounces keep servicing reads correctly, entries
// stay live, and no writeback ever lands.
func TestFaultWPQRejectionBurst(t *testing.T) {
	sched := faultinject.Schedule{Seed: 33, WPQRejectEvery: 1}
	r := newFaultRig(t, DefaultParams(), sched, invariant.Config{})
	r.fill(33)
	const lines = 8
	r.run(func() {
		dst := rng(0x10000, lines*line)
		r.lazyCopy(dst, 0x80000)
		// Two read passes: the first's writebacks are all rejected, so the
		// second must bounce again — and still be correct.
		for pass := 0; pass < 2; pass++ {
			sweepRegion(r, 0x10000, 0x10000+lines*line, "bounce pass")
		}
	})
	s := r.lazy.Stats
	if got := r.flt.Fired(faultinject.KindWPQReject); got == 0 {
		t.Fatal("schedule with WPQRejectEvery=1 never fired")
	}
	if s.WritebackRejects == 0 {
		t.Fatal("no writebacks rejected despite the burst schedule")
	}
	if s.BounceWritebacks != 0 {
		t.Fatalf("BounceWritebacks = %d, want 0 (every writeback must be refused)", s.BounceWritebacks)
	}
	if s.Bounces < 2*lines {
		t.Fatalf("Bounces = %d, want >= %d (rejected lines must bounce again)", s.Bounces, 2*lines)
	}
	if r.lazy.CTT().Len() == 0 {
		t.Fatal("entries vanished although no writeback ever trimmed them")
	}
	if err := r.lazy.CTT().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFaultWritebackRetrySucceeds: with bounded retry-with-backoff enabled,
// a rejected writeback is retried and (the next offer not firing under
// WPQRejectEvery=2) lands, trimming its entry — graceful degradation
// instead of a permanent bounce.
func TestFaultWritebackRetrySucceeds(t *testing.T) {
	sched := faultinject.Schedule{Seed: 34, WPQRejectEvery: 2}
	p := DefaultParams()
	p.WritebackRetries = 3
	r := newFaultRig(t, p, sched, invariant.Config{})
	r.fill(34)
	const lines = 8
	r.run(func() {
		dst := rng(0x10000, lines*line)
		r.lazyCopy(dst, 0x80000)
		sweepRegion(r, 0x10000, 0x10000+lines*line, "first pass")
		sweepRegion(r, 0x10000, 0x10000+lines*line, "second pass")
	})
	s := r.lazy.Stats
	if r.flt.Fired(faultinject.KindWPQReject) == 0 {
		t.Fatal("schedule with WPQRejectEvery=2 never fired")
	}
	if s.WritebackRetries == 0 {
		t.Fatal("rejected writebacks were never retried despite WritebackRetries=3")
	}
	if s.WritebackRetrySuccesses == 0 {
		t.Fatal("no retried writeback ever landed")
	}
	if s.WritebackRetryGiveups != 0 {
		t.Fatalf("WritebackRetryGiveups = %d, want 0 (alternating rejection must admit every retry)",
			s.WritebackRetryGiveups)
	}
	if err := r.lazy.CTT().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFaultDRAMCorruptionRetries: every second DRAM array read returns a
// single-bit upset. The per-line checksum must detect each one, charge a
// re-read, and deliver the correct data — reads never observe the flip.
func TestFaultDRAMCorruptionRetries(t *testing.T) {
	sched := faultinject.Schedule{Seed: 35, DRAMCorruptEvery: 2}
	r := newFaultRig(t, DefaultParams(), sched, invariant.Config{})
	r.fill(35)
	const lines = 32
	r.run(func() {
		sweepRegion(r, 0x40000, 0x40000+lines*line, "plain DRAM reads")
	})
	fired := r.flt.Fired(faultinject.KindDRAMCorrupt)
	if fired == 0 {
		t.Fatal("schedule with DRAMCorruptEvery=2 never fired")
	}
	var retries uint64
	for _, mc := range r.mcs {
		retries += mc.Stats.ECCRetries
	}
	if retries != fired {
		t.Fatalf("ECCRetries = %d, want %d (every single-bit upset must be detected and retried)",
			retries, fired)
	}
}

// TestFaultEagerFallbackHighWater: the graceful-degradation high-water mark
// (EagerCopyFrac) eagerly materializes tracked entries once CTT occupancy
// crosses it, bounding occupancy without dropping a copy or corrupting a
// byte.
func TestFaultEagerFallbackHighWater(t *testing.T) {
	p := DefaultParams()
	p.CTTCapacity = 16
	p.EagerCopyFrac = 0.5
	r := newFaultRig(t, p, faultinject.Schedule{}, invariant.Config{})
	r.fill(36)
	const n = 24
	r.run(func() {
		for i := uint64(0); i < n; i++ {
			r.lazyCopy(rng(0x10000+i*0x1000, line), memdata.Addr(0x80000+i*0x1000))
		}
		sweepRegion(r, 0x10000, memdata.Addr(0x10000+n*0x1000), "dest sweep")
	})
	s := r.lazy.Stats
	if s.EagerFallbacks == 0 || s.EagerFallbackBytes == 0 {
		t.Fatalf("CTT never crossed the high-water mark: %+v", s)
	}
	if s.LazyOps != n {
		t.Fatalf("LazyOps = %d, want %d", s.LazyOps, n)
	}
	if err := r.lazy.CTT().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if !r.lazy.Idle() {
		t.Fatal("engine not idle after fallbacks drained")
	}
}

// chaosFired runs one corpus program under a full FromSeed chaos schedule
// with every invariant oracle on, failing the test on any divergence or
// oracle violation, and returns the per-kind fired counts plus the engine
// stats for determinism comparison.
func chaosFired(t *testing.T, prog *corpusProgram, seed uint64) ([faultinject.NumKinds]uint64, EngineStats) {
	t.Helper()
	sched := faultinject.FromSeed(seed)
	r, failure := runProgram(t, prog, planes{faults: &sched, inv: invariant.All()})
	if failure != "" {
		t.Fatalf("%s diverged under chaos: %s", prog.name, failure)
	}
	if n := r.inv.TotalViolations(); n > 0 {
		invariant.Set{r.inv}.Report(os.Stderr)
		t.Fatalf("%s: %d invariant violation(s) under chaos", prog.name, n)
	}
	var fired [faultinject.NumKinds]uint64
	for k := faultinject.Kind(0); k < faultinject.NumKinds; k++ {
		fired[k] = r.flt.Fired(k)
	}
	return fired, r.lazy.Stats
}

// TestCorpusReplayChaos replays every persisted corpus program under a
// fixed-seed chaos schedule with all invariant oracles enabled: zero
// violations, zero divergence, and — replayed a second time — bit-identical
// fault counts and engine stats (the determinism contract the runner
// depends on at any worker count).
func TestCorpusReplayChaos(t *testing.T) {
	const chaosSeed = 0xC0FFEE
	files, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.ops"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("empty corpus: testdata/corpus/*.ops missing")
	}
	for _, f := range files {
		f := f
		t.Run(filepath.Base(f), func(t *testing.T) {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := parseProgram(strings.TrimSuffix(filepath.Base(f), ".ops"), data)
			if err != nil {
				t.Fatal(err)
			}
			fired1, stats1 := chaosFired(t, prog, chaosSeed)
			fired2, stats2 := chaosFired(t, prog, chaosSeed)
			if fired1 != fired2 {
				t.Fatalf("fault schedule replay diverged:\n first %v\nsecond %v", fired1, fired2)
			}
			if stats1 != stats2 {
				t.Fatalf("engine stats diverged across identical chaos replays:\n first %+v\nsecond %+v",
					stats1, stats2)
			}
		})
	}
}

// TestChaosEquivalenceFuzz is the chaos-mode sibling of the main
// observational-equivalence fuzzer: random op programs under a derived
// chaos schedule and full oracles. Failures persist to testdata/corpus/
// like the plain fuzzer's, so chaos-found bugs stay found.
func TestChaosEquivalenceFuzz(t *testing.T) {
	seeds := []int64{7101, 7202}
	for _, seed := range seeds {
		p := DefaultParams()
		p.CTTCapacity = 64
		prog := genEquivalenceProgram(fmt.Sprintf("chaos-seed%d", seed), p, seed, 1<<16, 250)
		sched := faultinject.FromSeed(uint64(seed))
		r, failure := runProgram(t, prog, planes{faults: &sched, inv: invariant.All()})
		if failure != "" {
			persistFailure(t, prog)
			t.Fatalf("seed %d diverged under chaos: %s", seed, failure)
		}
		if n := r.inv.TotalViolations(); n > 0 {
			persistFailure(t, prog)
			invariant.Set{r.inv}.Report(os.Stderr)
			t.Fatalf("seed %d: %d invariant violation(s) under chaos", seed, n)
		}
	}
}
