package cache

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"mcsquare/internal/dram"
	"mcsquare/internal/memctrl"
	"mcsquare/internal/memdata"
	"mcsquare/internal/sim"
	"mcsquare/internal/txtrace"
)

// The full-probe reference: range maintenance as it worked before the L2's
// directory was trusted, probing every core's L1 and the L2 for each line,
// and every in-flight fill for each line it invalidates. On an exact
// directory it must agree with the hierarchy's own methods in every stat,
// count, byte and cycle.

func refTakeDirty(h *Hierarchy, a memdata.Addr, tx txtrace.Tx, done func()) *lineWrite {
	var w *lineWrite
	for _, l1 := range h.l1s {
		if cl, i := l1.lookup(a); cl != nil && cl.dirty {
			w = h.newLineWrite(a, tx, done)
			w.data = *l1.data(i)
			cl.dirty = false
			break
		}
	}
	l2cl, j := h.l2.lookup(a)
	if w == nil && l2cl != nil && l2cl.dirty {
		w = h.newLineWrite(a, tx, done)
		w.data = *h.l2.data(j)
	}
	if w != nil && l2cl != nil {
		*h.l2.data(j) = w.data
		l2cl.dirty = false
		l2cl.owner = 0
	}
	return w
}

func refCLWB(h *Hierarchy, a memdata.Addr, done func()) {
	h.Stats.CLWBs++
	w := refTakeDirty(h, a, 0, done)
	if w == nil {
		h.eng.After(h.cfg.L1Latency+h.cfg.L2Latency, done)
		return
	}
	h.Stats.CLWBDirty++
	h.eng.After(h.cfg.L1Latency+h.cfg.L2Latency, w.sendFn)
}

func refFlushRange(h *Hierarchy, r memdata.Range, done func()) int {
	dirty := 0
	if !r.Empty() {
		for l := memdata.LineAlign(r.Start); l < r.End(); l += memdata.LineSize {
			w := refTakeDirty(h, l, 0, done)
			if w == nil {
				continue
			}
			dirty++
			h.Stats.FlushedLines++
			h.bus.Send(memdata.LineSize, 0, w.writeFn)
		}
	}
	h.eng.After(h.cfg.L2Latency, done)
	return dirty
}

func refCancelInflightFills(h *Hierarchy, a memdata.Addr) {
	for _, ms := range h.mshrs {
		for _, m := range ms {
			if m.a == a && !m.cancelled {
				m.cancelled = true
				h.Stats.CancelledFills++
			}
		}
	}
	for _, f := range h.pfPending {
		if f.a == a && !f.cancelled {
			f.cancelled = true
			h.Stats.CancelledFills++
		}
	}
}

func refDropLine(h *Hierarchy, a memdata.Addr) {
	refCancelInflightFills(h, a)
	for coreID := 0; coreID < h.cfg.Cores; coreID++ {
		h.l1s[coreID].drop(a)
	}
	h.l2.drop(a)
}

func refInvalidateRange(h *Hierarchy, r memdata.Range) int {
	if r.Empty() {
		return 0
	}
	found := 0
	for l := memdata.LineAlign(r.Start); l < r.End(); l += memdata.LineSize {
		refCancelInflightFills(h, l)
		present := h.l2.has(l)
		for coreID := 0; coreID < h.cfg.Cores && !present; coreID++ {
			present = h.l1s[coreID].has(l)
		}
		if present {
			refDropLine(h, l)
			found++
			h.Stats.Invalidations++
		}
	}
	return found
}

func refWriteLineNT(h *Hierarchy, a memdata.Addr, data []byte, done func()) {
	h.Stats.NTStores++
	refDropLine(h, a)
	w := h.newLineWrite(a, 0, done)
	copy(w.data[:], data)
	h.eng.After(h.cfg.L1Latency, w.sendFn)
}

// maintenance is one implementation of the four range-maintenance entry
// points: the hierarchy's own, or the full-probe reference.
type maintenance struct {
	clwb  func(h *Hierarchy, core int, a memdata.Addr, done func())
	flush func(h *Hierarchy, r memdata.Range, done func()) int
	inval func(h *Hierarchy, r memdata.Range) int
	nt    func(h *Hierarchy, core int, a memdata.Addr, data []byte, done func())
}

var (
	viaDirectory = maintenance{
		clwb:  func(h *Hierarchy, core int, a memdata.Addr, done func()) { h.CLWB(core, a, 0, done) },
		flush: func(h *Hierarchy, r memdata.Range, done func()) int { return h.FlushRange(r, 0, done) },
		inval: (*Hierarchy).InvalidateRange,
		nt: func(h *Hierarchy, core int, a memdata.Addr, data []byte, done func()) {
			h.WriteLineNT(core, a, data, 0, done)
		},
	}
	viaFullProbe = maintenance{
		clwb:  func(h *Hierarchy, _ int, a memdata.Addr, done func()) { refCLWB(h, a, done) },
		flush: refFlushRange,
		inval: refInvalidateRange,
		nt:    func(h *Hierarchy, _ int, a memdata.Addr, data []byte, done func()) { refWriteLineNT(h, a, data, done) },
	}
)

// smallConfig is a 4-core hierarchy small enough that a few dozen lines
// evict from both levels: 8-line L1s (4 sets of 2 ways), a 32-line L2 (8
// sets of 4 ways), two MSHRs per core and an aggressive prefetcher.
func smallConfig() Config {
	cfg := DefaultConfig(4)
	cfg.L1Size, cfg.L1Ways = 8*memdata.LineSize, 2
	cfg.L2Size, cfg.L2Ways = 32*memdata.LineSize, 4
	cfg.MSHRsPerCore = 2
	cfg.Prefetch = PrefetchConfig{Enabled: true, Degree: 2, Distance: 1, MaxInflight: 4}
	return cfg
}

// raceProbe counts, on one hierarchy, the cross-core pulls whose line left
// the L2 before the pull's delay ended and the stores whose line was gone
// from the L1 when their RFO completed. It wraps the steps of pre-built
// pool entries, so the hierarchy's own code runs unchanged; entries built
// once the pools run dry go uncounted.
type raceProbe struct {
	pullsRaced, storesRefetched int
}

func (p *raceProbe) attach(h *Hierarchy, n int) {
	for i := 0; i < n; i++ {
		m := &mshr{h: h}
		m.accessFn, m.sendFn, m.recvFn, m.arriveFn = m.access, m.send, m.recv, m.arrive
		m.pulledFn = func() {
			if !h.l2.holds(m.l2Way, m.a) {
				p.pullsRaced++
			}
			m.pulled()
		}
		h.mshrPool.Put(m)

		r := &rfo{h: h}
		r.arriveFn = func(d []byte) {
			if !h.l1s[r.core].has(r.a) {
				p.storesRefetched++
			}
			r.arrive(d)
		}
		h.rfoPool.Put(r)
	}
}

// dirRig is one hierarchy of the differential test with its memory and
// the record of what its operations returned, and when.
type dirRig struct {
	*rig
	ops   maintenance
	log   []string
	probe raceProbe
	err   error // first directory violation seen between cycles
}

func newDirRig(ops maintenance) *dirRig {
	eng := sim.NewEngine()
	phys := memdata.NewPhysical(1 << 20)
	mc := memctrl.New(0, eng, memctrl.DefaultConfig(), dram.NewChannel(dram.DDR4Config()), phys)
	h := New(eng, smallConfig(), func(memdata.Addr) *memctrl.Controller { return mc })
	d := &dirRig{rig: &rig{eng: eng, phys: phys, mc: mc, h: h}, ops: ops}
	d.probe.attach(h, 64)
	eng.OnAdvance(func(from, _ sim.Cycle) {
		if d.err == nil {
			if err := h.CheckDirectory(); err != nil {
				d.err = fmt.Errorf("after cycle %d: %w", from, err)
			}
		}
	})
	return d
}

func (d *dirRig) logf(format string, args ...any) {
	d.log = append(d.log, fmt.Sprintf("@%d ", d.eng.Now())+fmt.Sprintf(format, args...))
}

// dirOp is one randomly drawn operation of the differential test.
type dirOp struct {
	at   sim.Cycle
	kind int
	core int
	a    memdata.Addr
	off  uint64
	data []byte
	r    memdata.Range
}

const (
	opRead   = iota
	opStream // reads of four consecutive lines, which train the prefetcher
	opWrite
	opCLWB
	opFlush
	opInval
	opNT
	numOps
)

// run issues op i on the rig; completions are logged with their cycle.
func (d *dirRig) run(i int, op dirOp) {
	h := d.h
	switch op.kind {
	case opRead:
		h.Read(op.core, op.a, 0, func(data []byte) { d.logf("op %d read %#x = %x", i, op.a, data) })
	case opStream:
		for k := memdata.Addr(0); k < 4; k++ {
			a := op.a + k*memdata.LineSize
			h.Read(op.core, a, 0, func(data []byte) { d.logf("op %d read %#x = %x", i, a, data) })
		}
	case opWrite:
		h.Write(op.core, op.a, op.off, op.data, 0, func() { d.logf("op %d write done", i) })
	case opCLWB:
		d.ops.clwb(h, op.core, op.a, func() { d.logf("op %d clwb done", i) })
	case opFlush:
		n := d.ops.flush(h, op.r, func() { d.logf("op %d flush done", i) })
		d.logf("op %d flush found %d", i, n)
	case opInval:
		d.logf("op %d invalidate found %d", i, d.ops.inval(h, op.r))
	case opNT:
		d.ops.nt(h, op.core, op.a, op.data, func() { d.logf("op %d nt done", i) })
	}
	if d.err == nil {
		if err := h.CheckDirectory(); err != nil {
			d.err = fmt.Errorf("after op %d (kind %d): %w", i, op.kind, err)
		}
	}
}

// TestDirectoryMatchesFullProbe drives two identical 4-core hierarchies
// with small caches through the same random batches of reads, writes,
// CLWBs, FlushRanges, InvalidateRanges and non-temporal stores, issued at
// overlapping cycles so invalidations land during RFOs and during
// cross-core pulls. One maintains ranges through the L2's directory, the
// other through the full-probe reference. CheckDirectory must hold on both
// between every two cycles, and the two must agree on every stat, count,
// returned byte, completion cycle and cached line.
func TestDirectoryMatchesFullProbe(t *testing.T) {
	dir, ref := newDirRig(viaDirectory), newDirRig(viaFullProbe)
	dir.fill(21)
	ref.fill(21)
	const base, lines = memdata.Addr(0x8000), 48
	rnd := rand.New(rand.NewSource(2024))
	line := func() memdata.Addr { return base + memdata.Addr(rnd.Intn(lines))*memdata.LineSize }
	// Range operations are drawn either anywhere in a batch or in the
	// cycles after a miss issued at the batch start reaches the L2 (at
	// L1+L2 latency), which is when a cross-core pull waits out its delay.
	access := sim.Cycle(dir.h.cfg.L1Latency + dir.h.cfg.L2Latency)

	ops := 0
	for batch := 0; batch < 400; batch++ {
		var todo []dirOp
		var early []memdata.Addr // lines read or written at the batch start
		for k := 0; k < 12; k++ {
			op := dirOp{kind: rnd.Intn(numOps), core: rnd.Intn(4), a: line()}
			op.at = sim.Cycle(rnd.Intn(200))
			switch op.kind {
			case opRead:
				if rnd.Intn(2) == 0 {
					op.at = 0
				}
			case opStream:
				op.a = base + memdata.Addr(rnd.Intn(lines-3))*memdata.LineSize
			case opWrite:
				n := 1 + rnd.Intn(8)
				op.off = uint64(rnd.Intn(memdata.LineSize - n + 1))
				op.data = make([]byte, n)
				rnd.Read(op.data)
				if rnd.Intn(2) == 0 {
					op.at = 0
				}
			case opCLWB, opFlush, opInval, opNT:
				if rnd.Intn(2) == 0 {
					op.at = access + 1 + sim.Cycle(rnd.Intn(int(dir.h.cfg.L1Latency)))
					if len(early) > 0 && rnd.Intn(4) > 0 {
						op.a = early[rnd.Intn(len(early))]
					}
				}
				op.r = memdata.Range{
					Start: op.a + memdata.Addr(rnd.Intn(memdata.LineSize)),
					Size:  uint64(rnd.Intn(4*memdata.LineSize) + 1),
				}
				if op.kind == opNT {
					op.data = make([]byte, memdata.LineSize)
					rnd.Read(op.data)
				}
			}
			if op.at == 0 {
				early = append(early, op.a)
			}
			todo = append(todo, op)
		}
		for _, d := range []*dirRig{dir, ref} {
			for i, op := range todo {
				i, op, d := ops+i, op, d
				d.eng.After(op.at, func() { d.run(i, op) })
			}
			d.eng.Drain()
			if d.err != nil {
				t.Fatalf("batch %d: %v", batch, d.err)
			}
		}
		ops += len(todo)
		if dir.h.Stats != ref.h.Stats {
			t.Fatalf("batch %d: stats differ:\ndirectory  %+v\nfull probe %+v", batch, dir.h.Stats, ref.h.Stats)
		}
		if len(dir.log) != len(ref.log) {
			t.Fatalf("batch %d: %d completions through the directory, %d through the full probe", batch, len(dir.log), len(ref.log))
		}
		for i := range dir.log {
			if dir.log[i] != ref.log[i] {
				t.Fatalf("batch %d: completion %d differs:\ndirectory  %s\nfull probe %s", batch, i, dir.log[i], ref.log[i])
			}
		}
		for k := 0; k < lines; k++ {
			a := base + memdata.Addr(k)*memdata.LineSize
			dd, dw := dir.h.Peek(a)
			rd, rw := ref.h.Peek(a)
			if dw != rw || !bytes.Equal(dd, rd) {
				t.Fatalf("batch %d: line %#x cached as %s %x through the directory, %s %x through the full probe", batch, a, dw, dd, rw, rd)
			}
			if !bytes.Equal(dir.phys.ReadLine(a), ref.phys.ReadLine(a)) {
				t.Fatalf("batch %d: line %#x differs in memory", batch, a)
			}
		}
	}

	s := dir.h.Stats
	t.Logf("%d ops; pulls %d (%d raced by the line leaving the L2), stores refetched %d, cancelled fills %d, L2 evictions %d",
		ops, s.CrossCorePulls, dir.probe.pullsRaced, dir.probe.storesRefetched, s.CancelledFills, s.L2Evictions)
	for _, c := range []struct {
		what string
		n    uint64
	}{
		{"cross-core pulls", s.CrossCorePulls},
		{"pulls whose line left the L2", uint64(dir.probe.pullsRaced)},
		{"stores refetched after a cancelled RFO", uint64(dir.probe.storesRefetched)},
		{"cancelled fills", s.CancelledFills},
		{"dirty CLWBs", s.CLWBDirty},
		{"flushed lines", s.FlushedLines},
		{"invalidations", s.Invalidations},
		{"L2 evictions", s.L2Evictions},
		{"MSHR stalls", s.MSHRStalls},
		{"prefetches", s.PrefetchesIssued},
	} {
		if c.n == 0 {
			t.Errorf("the random mix produced no %s", c.what)
		}
	}
}

// TestCancelledRFORefetches invalidates a line while a store's
// read-for-ownership miss is in flight. The fill is cancelled, so the
// store must miss again rather than install a dirty copy the L2 does not
// hold: inclusion holds, and another core reads the stored byte.
func TestCancelledRFORefetches(t *testing.T) {
	r := newRig(2)
	r.fill(8)
	const a = memdata.Addr(0x1000)
	stored := false
	r.h.Write(0, a, 5, []byte{0xAB}, 0, func() { stored = true })
	// The miss reaches the L2 at L1+L2 latency and leaves for memory.
	r.eng.After(r.h.cfg.L1Latency+r.h.cfg.L2Latency+8, func() {
		if n := r.h.InvalidateRange(memdata.Range{Start: a, Size: memdata.LineSize}); n != 0 {
			t.Errorf("InvalidateRange found %d lines while the only copy was in flight", n)
		}
	})
	r.eng.Drain()
	if !stored {
		t.Fatal("the store never retired")
	}
	if r.h.Stats.CancelledFills != 1 {
		t.Fatalf("CancelledFills = %d, want 1", r.h.Stats.CancelledFills)
	}
	if err := r.h.CheckDirectory(); err != nil {
		t.Fatal(err)
	}
	want := r.phys.ReadLine(a)
	want[5] = 0xAB
	if got := r.read(1, a); !bytes.Equal(got, want) {
		t.Fatalf("core 1 read %x, want the store applied: %x", got, want)
	}
}

// TestPullSurvivesLineLeavingL2 starts a cross-core pull and, during its
// delay, takes the line out of the L2 and refills its way with another
// line of the same set: by InvalidateRange, and by LRU evictions. The
// waiting load must get the bytes it pulled, not the other line's, and no
// L1 may install a line the L2 does not hold.
func TestPullSurvivesLineLeavingL2(t *testing.T) {
	const a = memdata.Addr(0x1000)
	for _, tc := range []struct {
		name  string
		leave func(r *rig, sets memdata.Addr)
	}{
		{"invalidated", func(r *rig, sets memdata.Addr) {
			r.h.InvalidateRange(memdata.Range{Start: a, Size: memdata.LineSize})
			other := a + sets*memdata.LineSize
			r.h.fillL2(other, r.phys.ReadLine(other))
		}},
		{"evicted", func(r *rig, sets memdata.Addr) {
			for k := 1; k <= r.h.cfg.L2Ways; k++ {
				other := a + memdata.Addr(k)*sets*memdata.LineSize
				r.h.fillL2(other, r.phys.ReadLine(other))
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(2)
			r.fill(9)
			sets := memdata.Addr(r.h.cfg.L2Size / memdata.LineSize / r.h.cfg.L2Ways)
			r.write(1, a, 0, []byte{0xCD, 0xEF})
			want := append([]byte(nil), r.read(1, a)...)
			var got []byte
			r.h.Read(0, a, 0, func(d []byte) { got = append([]byte(nil), d...) })
			// The pull starts at L1+L2 latency and delivers L1 latency later.
			r.eng.After(r.h.cfg.L1Latency+r.h.cfg.L2Latency+1, func() {
				if r.h.Stats.CrossCorePulls != 1 {
					t.Errorf("no pull under way: %+v", r.h.Stats)
				}
				tc.leave(r, sets)
			})
			r.eng.Drain()
			if !bytes.Equal(got, want) {
				for k := memdata.Addr(1); k <= memdata.Addr(r.h.cfg.L2Ways); k++ {
					if other := a + k*sets*memdata.LineSize; bytes.Equal(got, r.phys.ReadLine(other)) {
						t.Fatalf("read of %#x returned line %#x's bytes", a, other)
					}
				}
				t.Fatalf("read of %#x returned %x, want the pulled %x", a, got, want)
			}
			if err := r.h.CheckDirectory(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCheckDirectoryCatchesDrift corrupts one directory entry at a time on
// a hierarchy whose directory is exact and expects CheckDirectory to name
// each.
func TestCheckDirectoryCatchesDrift(t *testing.T) {
	const a = memdata.Addr(0x2000)
	for _, tc := range []struct {
		name    string
		corrupt func(h *Hierarchy, l2cl *cacheLine)
	}{
		{"owner cleared", func(_ *Hierarchy, l2cl *cacheLine) { l2cl.owner = 0 }},
		{"owner moved", func(_ *Hierarchy, l2cl *cacheLine) { l2cl.setOwner(2) }},
		{"holder's bit cleared", func(_ *Hierarchy, l2cl *cacheLine) { l2cl.shared &^= 1 << 1 }},
		{"bit for an L1 without the line", func(_ *Hierarchy, l2cl *cacheLine) { l2cl.shared |= 1 << 2 }},
		{"bit beyond the cores", func(_ *Hierarchy, l2cl *cacheLine) { l2cl.shared |= 1 << 3 }},
		{"clean copy beside the owner", func(h *Hierarchy, _ *cacheLine) {
			_, j := h.l2.lookup(a)
			h.fillL1(0, a, j, make([]byte, memdata.LineSize))
		}},
		{"second dirty copy", func(h *Hierarchy, _ *cacheLine) {
			_, j := h.l2.lookup(a)
			h.fillL1(0, a, j, make([]byte, memdata.LineSize))
			cl, _ := h.l1s[0].lookup(a)
			cl.dirty = true
		}},
		{"L1 line the L2 lost", func(h *Hierarchy, _ *cacheLine) { h.l2.drop(a) }},
		{"bit in a later L2 block", func(h *Hierarchy, _ *cacheLine) {
			// Set 1152 of 2048, so the line's metadata lies in the fifth
			// block of 256 sets, not the first.
			j, _ := h.fillL2(0x12000, make([]byte, memdata.LineSize))
			h.l2.line(j).shared |= 1 << 2
		}},
		{"L1 records another L2 way", func(h *Hierarchy, _ *cacheLine) {
			cl, _ := h.l1s[1].lookup(a)
			cl.l2Way++
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(3)
			r.write(1, a, 0, []byte{1})
			if err := r.h.CheckDirectory(); err != nil {
				t.Fatalf("before corruption: %v", err)
			}
			l2cl, _ := r.h.l2.lookup(a)
			tc.corrupt(r.h, l2cl)
			if err := r.h.CheckDirectory(); err == nil {
				t.Fatal("CheckDirectory passed a corrupt directory")
			} else {
				t.Log(err)
			}
		})
	}
}

// TestConcurrentMissesSeeStore has cores 0 and 1 read line 0x3000 at
// cycle 0, so both miss to memory, and core 0 store 0x5A to the line from
// its read's callback, before core 1's fill returns. By then the L2 holds
// the line and core 0 owns it dirty: core 1's fill must take the stored
// byte, not memory's old one, and no L1 may keep a clean copy beside core
// 0's dirty one at any cycle.
func TestConcurrentMissesSeeStore(t *testing.T) {
	r := newRig(2)
	r.fill(7)
	const a = memdata.Addr(0x3000)
	old := r.phys.ReadLine(a)
	want := append([]byte(nil), old...)
	want[0] = 0x5A
	var dirErr error
	r.eng.OnAdvance(func(from, _ sim.Cycle) {
		if dirErr == nil {
			if err := r.h.CheckDirectory(); err != nil {
				dirErr = fmt.Errorf("after cycle %d: %w", from, err)
			}
		}
	})
	var got0, got1 []byte
	stored := false
	r.eng.At(0, func() {
		r.h.Read(0, a, 0, func(d []byte) {
			got0 = append([]byte(nil), d...)
			r.h.Write(0, a, 0, []byte{0x5A}, 0, func() { stored = true })
		})
		r.h.Read(1, a, 0, func(d []byte) { got1 = append([]byte(nil), d...) })
	})
	r.eng.Drain()
	if !stored || got0 == nil || got1 == nil {
		t.Fatalf("stored=%v, core 0 read %v, core 1 read %v: an access never completed", stored, got0 != nil, got1 != nil)
	}
	if r.h.Stats.L2Misses != 2 {
		t.Fatalf("L2 misses = %d, want 2 (both reads miss to memory)", r.h.Stats.L2Misses)
	}
	if !bytes.Equal(got0, old) {
		t.Fatalf("core 0 read %x, want memory's %x", got0, old)
	}
	if !bytes.Equal(got1, want) {
		t.Fatalf("core 1 read %x, want core 0's store applied: %x", got1, want)
	}
	if dirErr != nil {
		t.Fatal(dirErr)
	}
	if err := r.h.CheckDirectory(); err != nil {
		t.Fatal(err)
	}
	for core := 0; core < 2; core++ {
		if got := r.read(core, a); !bytes.Equal(got, want) {
			t.Fatalf("core %d reads %x afterwards, want %x", core, got, want)
		}
	}
}
