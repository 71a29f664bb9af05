package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"mcsquare/internal/dram"
	"mcsquare/internal/faultinject"
	"mcsquare/internal/invariant"
	"mcsquare/internal/memctrl"
	"mcsquare/internal/memdata"
	"mcsquare/internal/sim"
	"mcsquare/internal/txtrace"
)

// rig is a two-controller test system with a shadow "eager" memory: every
// lazy copy is performed immediately on the shadow, and every read through
// the real stack must match it.
type rig struct {
	t      *testing.T
	eng    *sim.Engine
	phys   *memdata.Physical
	shadow *memdata.Physical
	mcs    []*memctrl.Controller
	lazy   *Engine
	tr     *txtrace.Tracer    // nil unless the rig's planes enable tracing
	flt    *faultinject.Plane // nil unless the rig's planes carry a schedule
	inv    *invariant.Oracles // nil unless the rig's planes enable oracles
	proc   *sim.Proc
	failed string // first failure; reported after the engine drains
}

// routeLine interleaves cachelines across the two controllers.
func routeLine(a memdata.Addr) int { return int(uint64(a)>>memdata.LineShift) & 1 }

const rigMem = 1 << 20

// planes selects the observation planes a rig is built with, as a
// machine.Env does for a machine (core cannot import machine).
type planes struct {
	trace  txtrace.Config
	faults *faultinject.Schedule
	inv    invariant.Config
}

func newRig(t *testing.T, p Params) *rig { return newRigWith(t, p, planes{}) }

func newRigWith(t *testing.T, p Params, pl planes) *rig {
	eng := sim.NewEngine()
	phys := memdata.NewPhysical(rigMem)
	shadow := memdata.NewPhysical(rigMem)
	mcs := []*memctrl.Controller{
		memctrl.New(0, eng, memctrl.DefaultConfig(), dram.NewChannel(dram.DDR4Config()), phys),
		memctrl.New(1, eng, memctrl.DefaultConfig(), dram.NewChannel(dram.DDR4Config()), phys),
	}
	lazy := NewEngine(eng, p, mcs, routeLine)
	// Same wiring as machine.New: the planes give the rig its tracer,
	// fault plane, and invariant oracles; with none enabled these are all
	// nil.
	tr := txtrace.New(pl.trace)
	for _, mc := range mcs {
		mc.SetTracer(tr)
	}
	lazy.SetTracer(tr)
	r := &rig{t: t, eng: eng, phys: phys, shadow: shadow, mcs: mcs, lazy: lazy, tr: tr}
	if pl.faults != nil && pl.faults.Active() {
		r.flt = faultinject.NewPlane(*pl.faults, 0)
		r.flt.SetTracer(tr)
		for _, mc := range mcs {
			mc.SetFaults(r.flt)
		}
		lazy.SetFaults(r.flt)
	}
	if r.inv = invariant.New(pl.inv, eng, tr); r.inv != nil {
		for _, mc := range mcs {
			mc.SetInvariants(r.inv)
		}
		lazy.SetInvariants(r.inv)
	}
	return r
}

// fill seeds both memories with identical pseudorandom content.
func (r *rig) fill(seed int64) {
	rnd := rand.New(rand.NewSource(seed))
	buf := make([]byte, rigMem)
	rnd.Read(buf)
	r.phys.Write(0, buf)
	r.shadow.Write(0, buf)
	r.inv.ObserveInit(0, buf) // mirror backdoor seeding into the oracle shadow
}

// run executes fn as a simulated process and drains the engine. Failures
// recorded by check are reported here: calling t.Fatal on the workload
// process would Goexit through the engine mid-event.
func (r *rig) run(fn func()) {
	r.proc = r.eng.Go("test", func(p *sim.Proc) { fn() })
	r.eng.Drain()
	if r.failed != "" {
		r.t.Fatal(r.failed)
	}
}

func (r *rig) mc(a memdata.Addr) *memctrl.Controller { return r.mcs[routeLine(a)] }

// read performs a hooked line read and blocks the test process. With a
// tracer attached it opens a root span per read, standing in for the CPU
// layer the rig omits.
func (r *rig) read(a memdata.Addr) []byte {
	var out []byte
	done := false
	sp := r.tr.BeginRoot(txtrace.StageCPULoad, 0, uint64(a), uint64(r.eng.Now()))
	r.mc(a).ReadLine(a, sp, func(d []byte) {
		r.tr.End(sp, uint64(r.eng.Now()))
		out = append([]byte(nil), d...)
		done = true
		if !r.proc.Finished() {
			r.proc.Resume()
		}
	})
	for !done {
		r.proc.Suspend()
	}
	return out
}

// write performs a hooked full-line write, blocking until released, and
// mirrors it on the shadow.
func (r *rig) write(a memdata.Addr, data []byte) {
	done := false
	sp := r.tr.BeginRoot(txtrace.StageCPUStore, 0, uint64(a), uint64(r.eng.Now()))
	r.mc(a).WriteLine(a, data, sp, func() {
		r.tr.EndFlags(sp, uint64(r.eng.Now()), txtrace.FlagWrite)
		done = true
		if !r.proc.Finished() {
			r.proc.Resume()
		}
	})
	for !done {
		r.proc.Suspend()
	}
	r.shadow.WriteLine(a, data)
}

// lazyCopy issues MCLAZY and mirrors an eager copy on the shadow.
func (r *rig) lazyCopy(dst memdata.Range, src memdata.Addr) {
	done := false
	sp := r.tr.BeginRoot(txtrace.StageCPUMCLazy, 0, uint64(dst.Start), uint64(r.eng.Now()))
	r.lazy.MCLazy(dst, src, sp, func() {
		r.tr.End(sp, uint64(r.eng.Now()))
		done = true
		if !r.proc.Finished() {
			r.proc.Resume()
		}
	})
	for !done {
		r.proc.Suspend()
	}
	r.shadow.Copy(dst.Start, src, dst.Size)
}

// check reads the line at a through the stack and compares with the shadow.
func (r *rig) check(a memdata.Addr, what string) {
	if r.failed != "" {
		return
	}
	got := r.read(a)
	want := r.shadow.ReadLine(a)
	if !bytes.Equal(got, want) {
		r.failed = fmt.Sprintf("%s: line %#x mismatch\n got %x\nwant %x", what, a, got, want)
	}
}

func TestLazyCopyReadFromDest(t *testing.T) {
	r := newRig(t, DefaultParams())
	r.fill(1)
	r.run(func() {
		dst := rng(0x10000, 8*line)
		r.lazyCopy(dst, 0x40000)
		for i := uint64(0); i < 8; i++ {
			r.check(dst.Start+memdata.Addr(i*line), "aligned dest read")
		}
	})
	if r.lazy.Stats.Bounces == 0 {
		t.Fatal("no bounces recorded")
	}
	if err := r.lazy.CTT().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLazyCopyMisalignedSource(t *testing.T) {
	r := newRig(t, DefaultParams())
	r.fill(2)
	r.run(func() {
		// Source misaligned by 5 bytes: every dest line needs two source lines.
		dst := rng(0x10000, 4*line)
		r.lazyCopy(dst, 0x40005)
		for i := uint64(0); i < 4; i++ {
			r.check(dst.Start+memdata.Addr(i*line), "misaligned dest read")
		}
	})
	// 4 bounced lines, each needing 2 source reads.
	if r.lazy.Stats.BounceSrcReads < 8 {
		t.Fatalf("BounceSrcReads = %d, want >= 8", r.lazy.Stats.BounceSrcReads)
	}
}

func TestBounceWritebackRemovesEntry(t *testing.T) {
	r := newRig(t, DefaultParams())
	r.fill(3)
	r.run(func() {
		dst := rng(0x10000, line)
		r.lazyCopy(dst, 0x40000)
		r.check(dst.Start, "first read")
	})
	// The bounce writeback should have trimmed the entry.
	if r.lazy.CTT().Len() != 0 {
		t.Fatalf("entry not trimmed after bounce writeback: %d live", r.lazy.CTT().Len())
	}
	if r.lazy.Stats.BounceWritebacks != 1 {
		t.Fatalf("BounceWritebacks = %d", r.lazy.Stats.BounceWritebacks)
	}
	// A second read must be a plain memory read with the copied data.
	r2 := newRig(t, DefaultParams())
	_ = r2
}

func TestNoWritebackAblationKeepsEntry(t *testing.T) {
	p := DefaultParams()
	p.WritebackOnBounce = false
	r := newRig(t, p)
	r.fill(4)
	r.run(func() {
		dst := rng(0x10000, line)
		r.lazyCopy(dst, 0x40000)
		r.check(dst.Start, "read 1")
		r.check(dst.Start, "read 2") // still correct, bounces again
	})
	if r.lazy.CTT().Len() != 1 {
		t.Fatalf("entry count = %d, want 1 (no writeback)", r.lazy.CTT().Len())
	}
	if r.lazy.Stats.Bounces != 2 {
		t.Fatalf("Bounces = %d, want 2", r.lazy.Stats.Bounces)
	}
}

func TestWriteToDestStopsTracking(t *testing.T) {
	r := newRig(t, DefaultParams())
	r.fill(5)
	r.run(func() {
		dst := rng(0x10000, 2*line)
		r.lazyCopy(dst, 0x40000)
		fresh := make([]byte, line)
		for i := range fresh {
			fresh[i] = 0xEE
		}
		r.write(dst.Start, fresh)
		r.check(dst.Start, "written dest line")
		r.check(dst.Start+line, "remaining lazy line")
	})
	if err := r.lazy.CTT().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFig9WriteToSource walks the paper's state machine: a write to the
// source triggers the lazy copy (BPQ hold), the destination receives the
// pre-write data, and the source finally holds the new data.
func TestFig9WriteToSource(t *testing.T) {
	r := newRig(t, DefaultParams())
	r.fill(6)
	r.run(func() {
		src := memdata.Addr(0x40000)
		dst := rng(0x10000, 2*line)
		oldSrc := r.shadow.ReadLine(src)
		r.lazyCopy(dst, src)

		newData := make([]byte, line)
		for i := range newData {
			newData[i] = 0x5A
		}
		r.write(src, newData) // state 2 -> 3 -> 4 -> 1

		// Destination must show the data as of the copy, not the new write.
		got := r.read(dst.Start)
		if !bytes.Equal(got, oldSrc) {
			t.Fatal("dest observed post-copy source write")
		}
		r.check(dst.Start, "dest vs shadow")
		r.check(src, "source holds new data")
		r.check(dst.Start+line, "second dest line")
	})
	if r.lazy.Stats.BPQHolds == 0 || r.lazy.Stats.BPQCopies == 0 {
		t.Fatalf("BPQ not exercised: %+v", r.lazy.Stats)
	}
	if r.lazy.CTT().Len() != 0 {
		t.Fatalf("%d entries left; source write should have flushed both dest lines of the entry it covered",
			r.lazy.CTT().Len())
	}
}

// TestFig9MisalignedSourceWrite covers states 5-6: with a misaligned
// source, a destination line depends on two source lines; writes to both
// must each preserve dest consistency.
func TestFig9MisalignedSourceWrite(t *testing.T) {
	r := newRig(t, DefaultParams())
	r.fill(7)
	r.run(func() {
		src := memdata.Addr(0x40020) // mid-line: D depends on S1 and S2
		dst := rng(0x10000, line)
		r.lazyCopy(dst, src)
		wantDest := r.shadow.ReadLine(dst.Start)

		n1 := bytes.Repeat([]byte{0x11}, line)
		n2 := bytes.Repeat([]byte{0x22}, line)
		r.write(0x40000, n1) // Si
		r.write(0x40040, n2) // Sj

		got := r.read(dst.Start)
		if !bytes.Equal(got, wantDest) {
			t.Fatal("dest corrupted by source writes")
		}
		r.check(0x40000, "S1 new data")
		r.check(0x40040, "S2 new data")
	})
}

func TestChainCollapseEndToEnd(t *testing.T) {
	r := newRig(t, DefaultParams())
	r.fill(8)
	r.run(func() {
		a := memdata.Addr(0x40000)
		b := rng(0x10000, 2*line)
		c := rng(0x20000, 2*line)
		r.lazyCopy(b, a)       // B <- A
		r.lazyCopy(c, b.Start) // C <- B, collapses to C <- A
		r.check(c.Start, "C line 0")
		r.check(c.Start+line, "C line 1")
		r.check(b.Start, "B line 0")
	})
	if r.lazy.CTT().Stats.Collapses == 0 {
		t.Fatal("chain not collapsed")
	}
}

func TestReverseChainThroughBPQ(t *testing.T) {
	// C <- B, then B <- A: B is both a tracked source (of C) and a tracked
	// destination (of A). Reads of all three must stay consistent.
	r := newRig(t, DefaultParams())
	r.fill(9)
	r.run(func() {
		a := memdata.Addr(0x40000)
		b := rng(0x10000, 2*line)
		c := rng(0x20000, 2*line)
		r.lazyCopy(c, b.Start) // C <- B
		r.lazyCopy(b, a)       // B <- A
		r.check(c.Start, "C sees old B")
		r.check(c.Start+line, "C line 1")
		r.check(b.Start, "B sees A")
		r.check(b.Start+line, "B line 1")
	})
	if err := r.lazy.CTT().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMCFreeDropsTracking(t *testing.T) {
	r := newRig(t, DefaultParams())
	r.fill(10)
	r.run(func() {
		dst := rng(0x10000, 4*line)
		r.lazyCopy(dst, 0x40000)
		done := false
		r.lazy.MCFree(dst, 0, func() {
			done = true
			if !r.proc.Finished() {
				r.proc.Resume()
			}
		})
		for !done {
			r.proc.Suspend()
		}
	})
	if r.lazy.CTT().Len() != 0 {
		t.Fatalf("MCFree left %d entries", r.lazy.CTT().Len())
	}
	if r.lazy.Stats.MCFrees != 1 {
		t.Fatalf("MCFrees = %d", r.lazy.Stats.MCFrees)
	}
}

func TestCTTFullStallsAndAsyncFrees(t *testing.T) {
	p := DefaultParams()
	p.CTTCapacity = 8
	p.FreeThreshold = 0.5
	r := newRig(t, p)
	r.fill(11)
	r.run(func() {
		// Far-apart copies that cannot merge; more than capacity.
		for i := uint64(0); i < 20; i++ {
			dst := rng(0x10000+i*0x1000, line)
			r.lazyCopy(dst, memdata.Addr(0x40000+i*0x1000))
		}
		// All copies eventually accepted; data still correct.
		for i := uint64(0); i < 20; i++ {
			r.check(memdata.Addr(0x10000+i*0x1000), "copied line")
		}
	})
	if r.lazy.Stats.Frees == 0 {
		t.Fatal("async freeing never ran")
	}
	if r.lazy.Stats.LazyOps != 20 {
		t.Fatalf("LazyOps = %d", r.lazy.Stats.LazyOps)
	}
	if !r.lazy.Idle() {
		t.Fatal("engine not idle after drain")
	}
}

func TestBPQBackpressure(t *testing.T) {
	p := DefaultParams()
	p.BPQCapacity = 1
	r := newRig(t, p)
	r.fill(12)
	r.run(func() {
		// One big copy; then write many source lines back-to-back without
		// waiting (posted writes), forcing BPQ stalls.
		dst := rng(0x10000, 16*line)
		r.lazyCopy(dst, 0x40000)
		released := 0
		for i := uint64(0); i < 16; i++ {
			a := memdata.Addr(0x40000 + i*line)
			d := bytes.Repeat([]byte{byte(i)}, line)
			r.shadow.WriteLine(a, d)
			r.mc(a).WriteLine(a, d, 0, func() { released++ })
		}
		// Wait for all releases.
		for released < 16 {
			r.proc.Wait(1000)
		}
		for i := uint64(0); i < 16; i++ {
			r.check(memdata.Addr(0x10000+i*line), "dest as-of-copy")
			r.check(memdata.Addr(0x40000+i*line), "src new data")
		}
	})
	if r.lazy.Stats.BPQStallsFull == 0 {
		t.Fatal("expected BPQ stalls with capacity 1")
	}
}

func TestMCLazyStallsOnHeldLines(t *testing.T) {
	r := newRig(t, DefaultParams())
	r.fill(13)
	r.run(func() {
		dst := rng(0x10000, line)
		r.lazyCopy(dst, 0x40000)
		// Write the source (gets held briefly) and immediately issue a new
		// prospective copy whose source is the same line.
		d := bytes.Repeat([]byte{9}, line)
		r.shadow.WriteLine(0x40000, d)
		r.mc(0x40000).WriteLine(0x40000, d, 0, func() {})
		dst2 := rng(0x20000, line)
		r.lazyCopy(dst2, 0x40000) // must wait for the BPQ to drain
		r.shadow.Copy(dst2.Start, 0x40000, line)
		r.check(dst2.Start, "copy after source write sees new data")
	})
	if r.lazy.Stats.LazyStallsBPQ == 0 {
		t.Fatal("MCLAZY did not stall on held lines")
	}
}

// genEquivalenceProgram rolls a random op program: lazy copies, line
// writes, reads, and occasional frees over colliding buffers with arbitrary
// source alignment. The program is a concrete artifact — if its replay
// diverges from the oracle, it is persisted verbatim to the regression
// corpus (see corpus_test.go).
func genEquivalenceProgram(name string, p Params, seed int64, region uint64, steps int) *corpusProgram {
	prog := &corpusProgram{name: name, params: p, seed: seed, region: region}
	rnd := rand.New(rand.NewSource(seed))
	randLine := func() memdata.Addr {
		return memdata.Addr(rnd.Intn(int(region)/line)) * line
	}
	for step := 0; step < steps; step++ {
		switch rnd.Intn(10) {
		case 0, 1, 2, 3: // lazy copy
			size := uint64(1+rnd.Intn(8)) * line
			dst := memdata.Range{Start: randLine(), Size: size}
			src := memdata.Addr(rnd.Intn(int(region) - int(size)))
			if dst.Overlaps(memdata.Range{Start: src, Size: size}) {
				continue // memcpy forbids overlap
			}
			prog.ops = append(prog.ops, corpusOp{kind: "copy", a: dst.Start, b: src, size: size})
		case 4, 5: // write a line
			prog.ops = append(prog.ops, corpusOp{kind: "write", a: randLine(), fill: byte(rnd.Intn(256))})
		case 6: // rarely, free a small range
			if rnd.Intn(4) == 0 {
				size := uint64(1+rnd.Intn(4)) * line
				a := randLine()
				if uint64(a)+size <= region {
					prog.ops = append(prog.ops, corpusOp{kind: "free", a: a, size: size})
					continue
				}
			}
			prog.ops = append(prog.ops, corpusOp{kind: "read", a: randLine()})
		default: // read and verify
			prog.ops = append(prog.ops, corpusOp{kind: "read", a: randLine()})
		}
	}
	return prog
}

// TestRandomizedObservationalEquivalence is the package's big hammer: a
// random mix of lazy copies, writes, reads, and frees must be
// byte-identical to eager copies. Failures persist their op sequence to
// testdata/corpus/ for permanent regression replay.
func TestRandomizedObservationalEquivalence(t *testing.T) {
	seeds := []int64{101, 202, 303}
	for _, seed := range seeds {
		p := DefaultParams()
		p.CTTCapacity = 64 // small: exercise freeing under load
		prog := genEquivalenceProgram(fmt.Sprintf("rand-seed%d", seed), p, seed, 1<<17, 400)
		if _, failure := runProgram(t, prog, planes{}); failure != "" {
			persistFailure(t, prog)
			t.Fatalf("seed %d diverged: %s", seed, failure)
		}
	}
}

// TestWritebackRejectionKeepsEntryCorrect: when the WPQ is busy enough that
// the bounce writeback is refused (the paper's 75% rule), the entry stays
// live and later reads still return correct data.
func TestWritebackRejectionKeepsEntryCorrect(t *testing.T) {
	p := DefaultParams()
	p.WPQRejectFrac = 0.0 // reject every writeback: the extreme of the rule
	r := newRig(t, p)
	r.fill(21)
	r.run(func() {
		dst := rng(0x10000, 4*line)
		r.lazyCopy(dst, 0x40000)
		r.check(dst.Start, "read 1")
		r.check(dst.Start, "read 2 (bounces again)")
		r.check(dst.Start+line, "other line")
	})
	if r.lazy.Stats.WritebackRejects == 0 {
		t.Fatal("no writebacks were rejected despite frac=0")
	}
	if r.lazy.Stats.BounceWritebacks != 0 {
		t.Fatalf("BounceWritebacks = %d, want 0", r.lazy.Stats.BounceWritebacks)
	}
	if r.lazy.CTT().Len() == 0 {
		t.Fatal("entries vanished without writebacks")
	}
}

// TestEquivalenceAcrossConfigurations re-runs the randomized equivalence
// fuzz under adversarial parameter corners: tiny CTT, single-slot BPQ, no
// writeback, no merging. Failures persist to testdata/corpus/ like the
// main fuzzer's.
func TestEquivalenceAcrossConfigurations(t *testing.T) {
	configs := []struct {
		name   string
		mutate func(*Params)
	}{
		{"tiny-ctt", func(p *Params) { p.CTTCapacity = 8 }},
		{"one-bpq", func(p *Params) { p.BPQCapacity = 1 }},
		{"no-writeback", func(p *Params) { p.WritebackOnBounce = false }},
		{"no-merge", func(p *Params) { p.DisableMerge = true }},
		{"combined", func(p *Params) { p.CTTCapacity = 8; p.BPQCapacity = 1; p.DisableMerge = true }},
	}
	for ci, cfg := range configs {
		p := DefaultParams()
		cfg.mutate(&p)
		prog := genEquivalenceProgram("cfg-"+cfg.name, p, int64(500+ci), 1<<16, 150)
		if _, failure := runProgram(t, prog, planes{}); failure != "" {
			persistFailure(t, prog)
			t.Fatalf("config %s diverged: %s", cfg.name, failure)
		}
	}
}
