package core

import (
	"fmt"
	"math/rand"
	"testing"

	"mcsquare/internal/dram"
	"mcsquare/internal/faultinject"
	"mcsquare/internal/memctrl"
	"mcsquare/internal/memdata"
	"mcsquare/internal/sim"
)

// genRef is the reference the registry of reconstructions in flight is
// checked against: a write generation per line, bumped for every line a
// CPU write, MCLAZY insert or MCFREE redefines, taken when a
// reconstruction is composed, and compared when it is decided. It is how
// the engine tracked staleness before the registry, and it grows with
// every line a run ever redefines.
type genRef struct {
	e      *Engine
	gen    map[memdata.Addr]uint64
	at     map[*recon]uint64 // gen of the line when each live record registered
	drops  uint64            // the DroppedInternal this reference predicts
	stale  int               // stale decisions
	landed int               // reconstructions that passed their final check
	failed string
}

func newGenRef(e *Engine) *genRef {
	g := &genRef{e: e, gen: make(map[memdata.Addr]uint64), at: make(map[*recon]uint64)}
	e.audit = g
	return g
}

func (g *genRef) redefined(lo, hi memdata.Addr) {
	for l := lo; l < hi; l += memdata.LineSize {
		g.gen[l]++
	}
}

func (g *genRef) registered(r *recon) { g.at[r] = g.gen[r.line] }

func (g *genRef) decided(r *recon, final bool) {
	if g.failed != "" {
		return
	}
	if r.index >= len(g.e.recons) || g.e.recons[r.index] != r {
		g.failed = fmt.Sprintf("cycle %d: decided record for %#x is not at its index %d in the registry",
			g.e.eng.Now(), r.line, r.index)
		return
	}
	want := g.gen[r.line] != g.at[r]
	if r.stale != want {
		g.failed = fmt.Sprintf("cycle %d: reconstruction of %#x decided stale=%v, reference says %v",
			g.e.eng.Now(), r.line, r.stale, want)
		return
	}
	switch {
	case want:
		g.stale++
		g.drops++
	case final:
		g.landed++
		if _, held := g.e.held[r.line]; held {
			g.drops++ // hookedWrite drops it against the newer held write
		}
	}
}

// reconMix rolls one seeded mix of concurrent operations over a small
// region, so that CPU writes, MCLAZY inserts and MCFREEs often land between
// a reconstruction's compose and its write: procs processes each issue ops
// operations, waiting for each and then a few cycles more. Copies run from
// a higher of three tiers of the region to a lower one, so the middle tier
// holds lines that are both destinations and sources (BPQ cascades into
// held lines) but no lines copy from each other in a cycle: concurrent
// writes to such a cycle leave BPQ-held writes waiting on each other.
func reconMix(r *rig, seed int64, procs, ops int) {
	const tier = 1 << 14 // tiers [0, 16K) and [16K, 32K); the top one [32K, 64K)
	rnd := rand.New(rand.NewSource(seed))
	randLine := func() memdata.Addr { return memdata.Addr(rnd.Intn(4*tier/line)) * line }
	var dsts []memdata.Addr // recent copy destinations, where reads bounce
	near := func() memdata.Addr {
		if len(dsts) == 0 || rnd.Intn(3) == 0 {
			return randLine()
		}
		return dsts[rnd.Intn(len(dsts))] + memdata.Addr(rnd.Intn(4))*line
	}
	// in returns a random start for size bytes within [lo, hi).
	in := func(lo, hi int, size uint64) memdata.Addr {
		return memdata.Addr(lo + rnd.Intn(hi-lo-int(size)))
	}
	await := func(p *sim.Proc, issue func(done func())) {
		done := false
		issue(func() {
			done = true
			p.Resume()
		})
		for !done {
			p.Suspend()
		}
	}
	for i := 0; i < procs; i++ {
		r.eng.Go(fmt.Sprintf("mix%d", i), func(p *sim.Proc) {
			for k := 0; k < ops; k++ {
				switch rnd.Intn(10) {
				case 0, 1, 2: // lazy copy, sometimes from a misaligned source
					size := uint64(1+rnd.Intn(8)) * line
					if rnd.Intn(8) == 0 {
						size = 64 * line
					}
					dt := rnd.Intn(2)
					dst := memdata.Range{Start: in(dt*tier, (dt+1)*tier, size) &^ (line - 1), Size: size}
					src := in((dt+1)*tier, 4*tier, size)
					if dt == 0 && rnd.Intn(2) == 0 {
						src = in(tier, 2*tier, size)
					}
					if rnd.Intn(2) == 0 {
						src &^= line - 1
					}
					dsts = append(dsts, dst.Start)
					await(p, func(done func()) { r.lazy.MCLazy(dst, src, 0, done) })
				case 3, 4: // CPU write to a destination or source line
					a := near()
					if rnd.Intn(2) == 0 {
						a = randLine()
					}
					data := fillLine(byte(rnd.Intn(256)))
					await(p, func(done func()) { r.mc(a).WriteLine(a, data, 0, done) })
				case 5: // free a few lines
					fr := memdata.Range{Start: near(), Size: uint64(1+rnd.Intn(6)) * line}
					await(p, func(done func()) { r.lazy.MCFree(fr, 0, done) })
				default: // read: bounces on tracked destinations
					a := near()
					await(p, func(done func()) { r.mc(a).ReadLine(a, 0, func([]byte) { done() }) })
				}
				p.Wait(sim.Cycle(rnd.Intn(40)))
			}
		})
	}
}

// TestReconRegistryMatchesGenerations drives seeded mixes of bounces, BPQ
// cascades, async frees, urgent materializations and rejected, retried
// and abandoned writebacks, with CPU writes, MCLAZY inserts and MCFREEs
// landing between a compose and its write. Every land-or-drop decision of
// the registry must match the per-line generation reference, and so must
// DroppedInternal; once the machine drains, no reconstruction is still
// registered.
func TestReconRegistryMatchesGenerations(t *testing.T) {
	configs := []struct {
		name   string
		mutate func(*Params)
		sched  faultinject.Schedule
	}{
		{"retries", func(p *Params) { p.WritebackRetries = 2; p.WritebackBackoff = 16 },
			faultinject.Schedule{Seed: 1, WPQRejectEvery: 2}},
		{"small-ctt-urgent", func(p *Params) {
			p.CTTCapacity = 16
			p.FreePacing = 8
			p.ParallelFrees = 2
			p.EagerCopyFrac = 0.9
			p.WritebackRetries = 1
			p.WritebackBackoff = 8
		}, faultinject.Schedule{Seed: 2, CTTEvictEvery: 4, WPQRejectEvery: 3}},
		{"one-bpq", func(p *Params) { p.BPQCapacity = 1; p.CTTCapacity = 32; p.FreePacing = 16 },
			faultinject.Schedule{Seed: 3, WPQRejectEvery: 5}},
		{"no-writeback", func(p *Params) { p.WritebackOnBounce = false; p.CTTCapacity = 16 },
			faultinject.Schedule{}},
	}
	var total EngineStats
	var stale, landed int
	for ci, cfg := range configs {
		for seed := int64(1); seed <= 3; seed++ {
			p := DefaultParams()
			cfg.mutate(&p)
			r := newRigWith(t, p, planes{faults: &cfg.sched})
			r.fill(seed)
			ref := newGenRef(r.lazy)
			reconMix(r, int64(100*ci)+seed, 4, 300)
			r.eng.Drain()
			what := fmt.Sprintf("%s seed %d", cfg.name, seed)
			if ref.failed != "" {
				t.Fatalf("%s: %s", what, ref.failed)
			}
			s := r.lazy.Stats
			if s.DroppedInternal != ref.drops {
				t.Fatalf("%s: DroppedInternal = %d, reference predicts %d", what, s.DroppedInternal, ref.drops)
			}
			if n := len(r.lazy.recons); n != 0 {
				t.Fatalf("%s: %d reconstructions still registered after the machine drained", what, n)
			}
			if err := r.lazy.CTT().CheckInvariants(); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			total.Bounces += s.Bounces
			total.BPQCopies += s.BPQCopies
			total.Frees += s.Frees
			total.ForcedEvictions += s.ForcedEvictions
			total.EagerFallbacks += s.EagerFallbacks
			total.WritebackRetries += s.WritebackRetries
			total.WritebackRetryGiveups += s.WritebackRetryGiveups
			total.WritebackRetrySuccesses += s.WritebackRetrySuccesses
			total.DroppedInternal += s.DroppedInternal
			stale += ref.stale
			landed += ref.landed
		}
	}
	t.Logf("decisions: %d stale, %d landed; %+v", stale, landed, total)
	// The mixes must reach every kind of reconstruction and every end.
	for _, c := range []struct {
		what string
		n    uint64
	}{
		{"bounces", total.Bounces}, {"BPQ cascades", total.BPQCopies}, {"async frees", total.Frees},
		{"forced evictions", total.ForcedEvictions}, {"eager fallbacks", total.EagerFallbacks},
		{"writeback retries", total.WritebackRetries}, {"retry give-ups", total.WritebackRetryGiveups},
		{"retry successes", total.WritebackRetrySuccesses}, {"stale decisions", uint64(stale)},
		{"landed reconstructions", uint64(landed)},
		{"drops against held writes", total.DroppedInternal - uint64(stale)},
	} {
		if c.n == 0 {
			t.Errorf("the mixes produced no %s", c.what)
		}
	}
}

// TestReconRegistryEmptyAfterDrain runs many 2 MB MCLAZY inserts and
// MCFREEs, with bounced reads, source writes and async frees between them,
// and pins that the registry holds only what is in flight: it is empty once
// the machine drains, and never held more than a handful of records,
// although the run redefined tens of thousands of lines.
func TestReconRegistryEmptyAfterDrain(t *testing.T) {
	const mem = 16 << 20
	eng := sim.NewEngine()
	phys := memdata.NewPhysical(mem)
	mcs := []*memctrl.Controller{
		memctrl.New(0, eng, memctrl.DefaultConfig(), dram.NewChannel(dram.DDR4Config()), phys),
		memctrl.New(1, eng, memctrl.DefaultConfig(), dram.NewChannel(dram.DDR4Config()), phys),
	}
	p := DefaultParams()
	p.CTTCapacity = 8 // async frees start after a few inserts
	e := NewEngine(eng, p, mcs, routeLine)
	const huge = memdata.HugePageSize
	peak := 0
	eng.Go("huge", func(pr *sim.Proc) {
		await := func(issue func(done func())) {
			done := false
			issue(func() { done = true; pr.Resume() })
			for !done {
				pr.Suspend()
			}
			peak = max(peak, len(e.recons))
		}
		for i := 0; i < 12; i++ {
			dst := memdata.Range{Start: memdata.Addr(i%4) * huge, Size: huge}
			src := memdata.Addr(4+i%3) * huge
			await(func(done func()) { e.MCLazy(dst, src, 0, done) })
			for k := memdata.Addr(0); k < 8; k++ {
				a := dst.Start + k*4096
				await(func(done func()) { mcs[routeLine(a)].ReadLine(a, 0, func([]byte) { done() }) })
				s := src + k*8192
				await(func(done func()) { mcs[routeLine(s)].WriteLine(s, fillLine(byte(k)), 0, done) })
			}
			if i%2 == 1 {
				await(func(done func()) { e.MCFree(dst, 0, done) })
			}
		}
	})
	eng.Drain()
	if n := len(e.recons); n != 0 {
		t.Fatalf("%d reconstructions still registered after the machine drained", n)
	}
	if !e.Idle() {
		t.Fatal("engine not idle after drain")
	}
	if e.Stats.Bounces == 0 || e.Stats.BPQCopies == 0 || e.Stats.Frees == 0 {
		t.Fatalf("the run reached too little: %+v", e.Stats)
	}
	if peak == 0 || peak > 32 {
		t.Fatalf("registry peaked at %d records between operations, want 1..32", peak)
	}
	t.Logf("registry peak %d between operations; %+v", peak, e.Stats)
}
