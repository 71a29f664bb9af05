package core

import (
	"fmt"

	"mcsquare/internal/faultinject"
	"mcsquare/internal/invariant"
	"mcsquare/internal/memctrl"
	"mcsquare/internal/memdata"
	"mcsquare/internal/sim"
	"mcsquare/internal/txtrace"
)

// Params configures the lazy-copy engine. The defaults mirror the paper's
// simulated configuration (Table I and §III).
type Params struct {
	CTTCapacity   int       // entries per CTT (paper: 2,048)
	BPQCapacity   int       // held source writes per MC (paper: 8)
	FreeThreshold float64   // CTT occupancy that triggers async freeing (paper: 0.50)
	ParallelFrees int       // entries freed in parallel per MC (paper sweeps 1–8)
	CTTLatency    sim.Cycle // table lookup, charged on bounces (paper: 0.79 ns ≈ 3 cycles)
	HopLatency    sim.Cycle // one interconnect hop between controllers
	WPQRejectFrac float64   // bounce writeback refused above this WPQ occupancy (paper: 0.75)
	// FreePacing is the gap each async-free worker leaves between line
	// copies, bounding the freeing machinery's bandwidth so it does not
	// interfere with demand traffic (§V-C: "(MC)² limits the outstanding
	// asynchronous copies per memory controller"). Parallelism, not pace,
	// is then the knob that relieves CTT-full stalls (Fig 22).
	FreePacing sim.Cycle

	// WritebackOnBounce controls the §III-B2 optimization of writing a
	// reconstructed destination line back to memory. Disabling it is the
	// "No writeback" ablation of Fig 13.
	WritebackOnBounce bool
	// DisableMerge turns off CTT adjacency merging (ablation): contiguous
	// copies then consume one entry each, pressuring capacity.
	DisableMerge bool

	// EagerCopyFrac is the graceful-degradation high-water mark: when CTT
	// occupancy reaches this fraction of capacity, an accepted MCLAZY is
	// immediately materialized (the entry is inserted for correctness, then
	// eagerly copied and evicted) so the table cannot wedge under pressure.
	// 0 disables the fallback (the default; timing is unchanged).
	EagerCopyFrac float64
	// WritebackRetries bounds how often a rejected bounce writeback is
	// retried with exponential backoff before giving up. 0 (the default)
	// keeps the paper's drop-on-reject behavior.
	WritebackRetries int
	// WritebackBackoff is the initial retry delay, doubled per attempt.
	WritebackBackoff sim.Cycle
}

// DefaultParams returns the paper's configuration.
func DefaultParams() Params {
	return Params{
		CTTCapacity:       2048,
		BPQCapacity:       8,
		FreeThreshold:     0.5,
		ParallelFrees:     1,
		CTTLatency:        3,
		HopLatency:        24,
		WPQRejectFrac:     0.75,
		FreePacing:        160,
		WritebackOnBounce: true,
		WritebackBackoff:  64,
	}
}

// EngineStats counts lazy-copy activity.
type EngineStats struct {
	LazyOps         uint64 // MCLAZY operations accepted
	LazyBytes       uint64 // bytes covered by accepted MCLAZY operations
	LazyStallsFull  uint64 // MCLAZY stalled on a full CTT
	LazyStallsBPQ   uint64 // MCLAZY stalled on BPQ-held lines
	LazyStallCycles uint64 // total cycles MCLAZY operations spent stalled

	Bounces          uint64 // destination reads redirected to sources
	BounceSrcReads   uint64 // source-line reads issued for bounces
	BounceWritebacks uint64 // reconstructed lines written back to memory
	WritebackRejects uint64 // writebacks refused (WPQ over threshold)
	MemFills         uint64 // bounce bytes taken from memory (partially tracked lines)

	BPQHolds      uint64 // source writes held in a BPQ
	BPQMerges     uint64 // CPU writes merged into a held line
	BPQForwards   uint64 // CPU reads serviced from a held line
	BPQStallsFull uint64 // writes that waited for a BPQ slot
	BPQCopies     uint64 // destination lines lazily copied due to source writes

	DroppedInternal uint64 // internal writes dropped against newer held writes

	Frees      uint64 // entries evicted by asynchronous freeing
	FreedBytes uint64
	MCFrees    uint64 // MCFREE operations

	EagerFallbacks     uint64 // MCLAZY ops eagerly materialized (CTT high-water)
	EagerFallbackBytes uint64
	ForcedEvictions    uint64 // CTT entries evicted by injected faults

	WritebackRetries        uint64 // rejected writebacks retried with backoff
	WritebackRetrySuccesses uint64 // retried writebacks that eventually landed
	WritebackRetryGiveups   uint64 // retried writebacks that exhausted attempts

	// Untracked-byte classification: every byte the CTT stops tracking is
	// attributed to exactly one cause at its RemoveDestRange call site.
	// Together with the CTT's ReplacedBytes (bytes displaced by a newer
	// MCLAZY) these partition CTTStats.UntrackedBytes — the conservation
	// law CheckConservation verifies.
	OverwrittenBytes  uint64 // untracked because the CPU overwrote the destination
	MaterializedBytes uint64 // untracked because the engine copied the bytes (bounce writebacks, BPQ cascades, async frees)
	MCFreedBytes      uint64 // untracked by an MCFREE hint
}

// heldWrite is a write to a tracked source line, from its arrival at the
// controller until it leaves the BPQ for memory (states 3–6 of Fig 9).
// data is the engine's own copy of the line, taken at entry; CPU writes
// merge into it while it is held. Held writes come from the engine's pool
// and their steps are method values bound when the write is first
// allocated.
type heldWrite struct {
	e         *Engine
	mc        int
	a         memdata.Addr
	tx        txtrace.Tx
	qsp, hsp  txtrace.Tx // bpq.wait and bpq.hold spans
	release   func()
	slotHeld  bool           // holds a CPU-visible BPQ slot
	deps      []memdata.Addr // destination lines copied from this line
	remaining int            // dependent copies still in flight
	data      [memdata.LineSize]byte

	acquiredFn, finishFn, depDoneFn func()
}

// pendingLazy is one MCLAZY from its arrival until the CTT accepts it.
// Accepted ops go back to the engine's pool.
type pendingLazy struct {
	dst       memdata.Range
	src       memdata.Addr
	done      func()
	since     sim.Cycle
	queued    bool
	fullStall bool       // stalled on a full CTT (vs a BPQ conflict)
	sp        txtrace.Tx // ctt.insert span, open across stalls
}

// Engine is the (MC)² lazy-copy machinery shared by all memory controllers.
// It installs per-controller hooks (HookFor) and serves MCLAZY/MCFREE
// operations arriving from the interconnect. All methods run in engine
// (event) context.
type Engine struct {
	eng   *sim.Engine
	p     Params
	ctt   *CTT
	mcs   []*memctrl.Controller
	route func(memdata.Addr) int
	tr    *txtrace.Tracer

	flt *faultinject.Plane // nil when no fault schedule is active
	inv *invariant.Oracles // nil when invariant oracles are off

	bpqs        []memctrl.Slots
	held        map[memdata.Addr]*heldWrite
	heldWaiters []func() // BPQ finishes waiting on other held lines
	pending     []*pendingLazy
	freeWorkers int
	freeing     map[uint64]bool // entry IDs claimed by a free worker
	// recons registers the reconstructions in flight (bounce writebacks,
	// BPQ cascades, async frees), each from the moment its value is
	// composed until it lands or is dropped. A CPU write, MCLAZY insert or
	// MCFREE reaching a registered line marks it stale, and a stale
	// reconstruction drops itself instead of landing (Fig 9: "bounce
	// requests for D are dropped"). Its size is bounded by what is in
	// flight, not by the lines a run ever touched.
	recons    []*recon
	reconPool sim.Pool[recon]
	audit     reconAudit // nil outside tests

	// Retired requests for reuse, and scratch space for the queries of
	// one call. The machine is single-threaded, so plain slices suffice
	// for the scratch.
	readPool     sim.Pool[readReq]
	composePool  sim.Pool[composeReq]
	heldPool     sim.Pool[heldWrite]
	copyPool     sim.Pool[lineCopy]
	freePool     sim.Pool[freeJob]
	lazyPool     sim.Pool[pendingLazy]
	srcScratch   []*Entry
	wakeScratch  []*pendingLazy
	depSeen      map[memdata.Addr]bool
	freeWorkerFn func() // freeWorker, bound once

	Stats EngineStats
}

// NewEngine creates the lazy-copy engine over the given controllers.
// route maps a physical address to the index of its owning controller.
func NewEngine(eng *sim.Engine, p Params, mcs []*memctrl.Controller, route func(memdata.Addr) int) *Engine {
	e := &Engine{
		eng:     eng,
		p:       p,
		ctt:     newCTT(p.CTTCapacity, p.DisableMerge),
		mcs:     mcs,
		route:   route,
		bpqs:    make([]memctrl.Slots, len(mcs)),
		held:    make(map[memdata.Addr]*heldWrite),
		freeing: make(map[uint64]bool),
		depSeen: make(map[memdata.Addr]bool),
	}
	e.freeWorkerFn = e.freeWorker
	for i := range e.bpqs {
		e.bpqs[i] = memctrl.NewSlots(p.BPQCapacity)
	}
	for i := range mcs {
		mcs[i].SetHook(&mcHook{e: e, mc: i})
	}
	return e
}

// CTT exposes the table (stats, tests).
func (e *Engine) CTT() *CTT { return e.ctt }

// SetTracer attaches the transaction tracer (nil disables).
func (e *Engine) SetTracer(t *txtrace.Tracer) { e.tr = t }

// SetFaults attaches the machine's fault-injection plane (nil disables).
func (e *Engine) SetFaults(p *faultinject.Plane) { e.flt = p }

// SetInvariants attaches the machine's invariant oracles (nil disables).
func (e *Engine) SetInvariants(o *invariant.Oracles) {
	e.inv = o
	if o.QueuesOn() {
		for i := range e.bpqs {
			e.bpqs[i].SetInvariants(o, fmt.Sprintf("bpq%d", i))
		}
	}
}

// Idle reports whether no lazy-copy machinery is in flight.
func (e *Engine) Idle() bool {
	return len(e.held) == 0 && len(e.heldWaiters) == 0 && len(e.pending) == 0 && e.freeWorkers == 0
}

// CheckConservation verifies the CTT/BPQ byte-conservation laws: every
// destination byte ever deferred by an accepted MCLAZY is either still
// tracked or was untracked for exactly one attributed reason — displaced by
// a newer MCLAZY, overwritten by the CPU, materialized by the engine's own
// copies (bounces, BPQ cascades, async frees), or dropped by an MCFREE
// hint. Valid at any point; the attribution partition additionally requires
// no trims from unclassified call sites, which this check enforces.
func (e *Engine) CheckConservation() error {
	cs := e.ctt.Stats
	if cs.DeferredBytes-cs.UntrackedBytes != e.ctt.TrackedBytes() {
		return fmt.Errorf("core: CTT byte conservation violated: deferred %d - untracked %d != tracked %d",
			cs.DeferredBytes, cs.UntrackedBytes, e.ctt.TrackedBytes())
	}
	attributed := cs.ReplacedBytes + e.Stats.OverwrittenBytes + e.Stats.MaterializedBytes + e.Stats.MCFreedBytes
	if attributed != cs.UntrackedBytes {
		return fmt.Errorf("core: untracked bytes unattributed: replaced %d + overwritten %d + materialized %d + mcfreed %d != untracked %d",
			cs.ReplacedBytes, e.Stats.OverwrittenBytes, e.Stats.MaterializedBytes, e.Stats.MCFreedBytes, cs.UntrackedBytes)
	}
	return nil
}

// mcHook adapts the engine to one controller's memctrl.Hook.
type mcHook struct {
	e  *Engine
	mc int
}

func (h *mcHook) FilterRead(a memdata.Addr, tx txtrace.Tx, done func([]byte)) bool {
	return h.e.filterRead(h.mc, a, tx, done)
}

func (h *mcHook) FilterWrite(a memdata.Addr, data []byte, tx txtrace.Tx, release func()) bool {
	return h.e.filterWrite(h.mc, a, data, tx, release)
}

func lineRange(a memdata.Addr) memdata.Range {
	return memdata.Range{Start: memdata.LineAlign(a), Size: memdata.LineSize}
}

// nop is the completion of writes nobody waits for.
func nop() {}

// ---------------------------------------------------------------------------
// Read path (§III-B2: "Read from destination", "Read from source")
// ---------------------------------------------------------------------------

// readReq is a controller read the engine claimed: a forward from a held
// write, or a bounce to the sources. The line is held in the request's own
// buffer, which done borrows. Requests come from the engine's pool and
// their steps are method values bound when the request is first allocated.
type readReq struct {
	e     *Engine
	a     memdata.Addr
	bsp   txtrace.Tx // the bounce span
	rec   *recon     // registered when the bounce composed its line
	bound sim.Cycle  // cycle the delivered value was bound
	done  func(data []byte)
	data  [memdata.LineSize]byte

	deliverFn, startFn, replyFn func()
	composedFn                  func(data []byte)
}

func (e *Engine) newRead(a memdata.Addr, done func([]byte)) *readReq {
	r, fresh := e.readPool.Get()
	if fresh {
		r.e = e
		r.deliverFn = r.deliver
		r.startFn = r.start
		r.composedFn = r.composed
		r.replyFn = r.reply
	}
	r.a, r.done, r.bsp = a, done, 0
	return r
}

// deliver hands the line to the requester and recycles the request.
func (r *readReq) deliver() {
	done := r.done
	r.done = nil
	done(r.data[:])
	r.e.readPool.Put(r)
}

func (e *Engine) filterRead(mc int, a memdata.Addr, tx txtrace.Tx, done func([]byte)) bool {
	if !memdata.IsLineAligned(a) {
		panic(fmt.Sprintf("core: controller read of unaligned address %#x", a))
	}
	// Reads of a BPQ-held source line are serviced from the BPQ (state 3).
	if hw, ok := e.held[a]; ok {
		e.Stats.BPQForwards++
		if tx != 0 {
			now := uint64(e.eng.Now())
			e.tr.Complete(tx, txtrace.StageBPQForward, uint64(a), now, now+uint64(e.p.CTTLatency), 0)
		}
		r := e.newRead(a, done)
		r.data = hw.data
		e.inv.CheckRead(a, r.data[:], e.eng.Now())
		e.eng.After(e.p.CTTLatency, r.deliverFn)
		return true
	}
	if !e.ctt.HasDestOverlap(lineRange(a)) {
		return false // untracked, or read-from-source: proceed normally
	}
	// Read from destination: bounce to the source (Fig 7). The CTT lookup
	// preempts the DRAM access, then the request crosses the interconnect.
	e.Stats.Bounces++
	r := e.newRead(a, done)
	if tx != 0 {
		now := uint64(e.eng.Now())
		e.tr.Complete(tx, txtrace.StageCTTHit, uint64(a), now, now+uint64(e.p.CTTLatency), 0)
		r.bsp = e.tr.Begin(tx, txtrace.StageBounce, uint64(a), now)
	}
	e.eng.After(e.p.CTTLatency+e.p.HopLatency, r.startFn)
	return true
}

// start runs when the bounce reaches the source side.
func (r *readReq) start() {
	e := r.e
	r.rec = e.register(r.a)
	// The composed value is bound here: composeDestLine queries the CTT
	// and snapshots every source at call time.
	r.bound = e.eng.Now()
	e.composeDestLine(r.a, r.bsp, r.composedFn)
}

// composed sends the reconstructed line back to the requester and, when
// the WPQ allows, writes it back.
func (r *readReq) composed(data []byte) {
	e := r.e
	copy(r.data[:], data)
	e.eng.After(e.p.HopLatency, r.replyFn)
	e.maybeWriteback(r.rec, r.bsp, r.data[:])
}

func (r *readReq) reply() {
	e := r.e
	e.tr.End(r.bsp, uint64(e.eng.Now()))
	e.inv.CheckRead(r.a, r.data[:], r.bound)
	r.deliver()
}

// maybeWriteback sends a reconstructed destination line to memory so that
// future reads are serviced normally — unless the destination controller's
// WPQ is too full (the paper's 75% rule, §III-B2). With WritebackRetries
// set, a rejected writeback retries with bounded exponential backoff
// instead of being dropped outright. data is borrowed for the call; rec is
// the reconstruction's registration, which every outcome ends.
func (e *Engine) maybeWriteback(rec *recon, tx txtrace.Tx, data []byte) {
	if !e.p.WritebackOnBounce {
		e.unregister(rec)
		return
	}
	e.tryWriteback(rec, tx, data, 0)
}

func (e *Engine) tryWriteback(rec *recon, tx txtrace.Tx, data []byte, attempt int) {
	a := rec.line
	mc := e.mcs[e.route(a)]
	rejected := mc.WPQOccupancy() >= e.p.WPQRejectFrac
	if !rejected && e.flt.Fire(faultinject.KindWPQReject, uint64(a), uint64(e.eng.Now())) {
		rejected = true
	}
	if rejected {
		e.Stats.WritebackRejects++
		e.tr.Anomaly(txtrace.AnomalyWPQReject, e.route(a), uint64(a), uint64(e.eng.Now()))
		if attempt < e.p.WritebackRetries {
			e.Stats.WritebackRetries++
			data := append([]byte(nil), data...) // the retry outlives the borrow
			e.eng.After(e.p.WritebackBackoff<<attempt, func() {
				e.decided(rec, false)
				if rec.stale {
					e.Stats.DroppedInternal++ // a newer value superseded this one
					e.unregister(rec)
					return
				}
				e.tryWriteback(rec, tx, data, attempt+1)
			})
			return
		}
		e.unregister(rec)
		if e.p.WritebackRetries > 0 {
			e.Stats.WritebackRetryGiveups++
		}
		if tx != 0 {
			now := uint64(e.eng.Now())
			e.tr.Complete(tx, txtrace.StageBounceWriteback, uint64(a), now, now, txtrace.FlagRejected)
		}
		return
	}
	if attempt > 0 {
		e.Stats.WritebackRetrySuccesses++
	}
	e.Stats.BounceWritebacks++
	// The write goes through the full hooked path: it trims the CTT entry
	// and, if this line is itself the source of another prospective copy,
	// triggers the dependent lazy copies first.
	done := nop
	if wsp := e.tr.Begin(tx, txtrace.StageBounceWriteback, uint64(a), uint64(e.eng.Now())); wsp != 0 {
		done = func() { e.tr.EndFlags(wsp, uint64(e.eng.Now()), txtrace.FlagWrite) }
	}
	e.writeReconstructed(rec, tx, data, done)
}

// writeReconstructed lands a lazily reconstructed destination line unless
// a CPU write, MCLAZY insert or MCFREE reached it after the value was
// composed, in which case the reconstruction is stale and dropped. Either
// way it ends rec's registration. data is borrowed for the call.
func (e *Engine) writeReconstructed(rec *recon, tx txtrace.Tx, data []byte, done func()) {
	e.decided(rec, true)
	a, stale := rec.line, rec.stale
	e.unregister(rec)
	if stale {
		e.Stats.DroppedInternal++
		e.eng.After(0, done)
		return
	}
	e.hookedWrite(a, data, tx, done)
}

// recon is the registration of one reconstruction in flight: its
// destination line, whether a newer value reached the line since the
// reconstruction was composed, and its slot in Engine.recons.
type recon struct {
	line  memdata.Addr
	stale bool
	index int
}

// register records a reconstruction of line a composed now.
func (e *Engine) register(a memdata.Addr) *recon {
	r, _ := e.reconPool.Get()
	r.line, r.stale, r.index = a, false, len(e.recons)
	e.recons = append(e.recons, r)
	if e.audit != nil {
		e.audit.registered(r)
	}
	return r
}

// unregister ends r's registration, once it has landed or been dropped.
func (e *Engine) unregister(r *recon) {
	last := e.recons[len(e.recons)-1]
	last.index = r.index
	e.recons[r.index] = last
	e.recons = e.recons[:len(e.recons)-1]
	e.reconPool.Put(r)
}

// markStale marks the reconstructions in flight of the lines in [lo, hi)
// stale: a newer value reached those lines after they were composed.
func (e *Engine) markStale(lo, hi memdata.Addr) {
	for _, r := range e.recons {
		if r.line >= lo && r.line < hi {
			r.stale = true
		}
	}
}

// reconAudit follows the registry beside the engine: the lines each CPU
// write, MCLAZY insert and MCFREE redefines, each registration, and each
// check of r.stale, final when the reconstruction then lands or drops and
// not final when a retried writeback then drops or tries again. Only
// tests set one, to check the registry against a reference that keeps a
// generation per line; the engine tells it of each redefinition apart
// from markStale, so that a missing mark shows as a disagreement.
type reconAudit interface {
	redefined(lo, hi memdata.Addr)
	registered(r *recon)
	decided(r *recon, final bool)
}

func (e *Engine) redefined(lo, hi memdata.Addr) {
	if e.audit != nil {
		e.audit.redefined(lo, hi)
	}
}

func (e *Engine) decided(r *recon, final bool) {
	if e.audit != nil {
		e.audit.decided(r, final)
	}
}

// composeReq reconstructs one destination line (composeDestLine). Its
// segment and source-line lists keep their capacity across requests.
type composeReq struct {
	e         *Engine
	a         memdata.Addr
	covered   uint64 // destination bytes the segments cover
	segs      []composeSeg
	lines     []*srcLine // lines to read, in first-need order; [:nlines] live
	nlines    int
	remaining int
	cb        func(data []byte)
	out       [memdata.LineSize]byte
}

// composeSeg is the part of the line one CTT entry covers.
type composeSeg struct {
	part memdata.Range // destination bytes within the line
	src  memdata.Addr  // source of part.Start
}

// srcLine is one line a compose reads, and its snapshot once read.
type srcLine struct {
	r      *composeReq
	line   memdata.Addr
	ssp    txtrace.Tx
	data   [memdata.LineSize]byte
	recvFn func(data []byte)
}

// need adds l to the lines to read unless it is there already.
func (r *composeReq) need(l memdata.Addr) {
	for _, sl := range r.lines[:r.nlines] {
		if sl.line == l {
			return
		}
	}
	if r.nlines == len(r.lines) {
		sl := &srcLine{r: r}
		sl.recvFn = sl.recv
		r.lines = append(r.lines, sl)
	}
	r.lines[r.nlines].line = l
	r.nlines++
}

// snapshot returns the data read for line l.
func (r *composeReq) snapshot(l memdata.Addr) *[memdata.LineSize]byte {
	for _, sl := range r.lines[:r.nlines] {
		if sl.line == l {
			return &sl.data
		}
	}
	panic(fmt.Sprintf("core: compose of %#x never read line %#x", r.a, l))
}

// composeDestLine reconstructs the 64-byte destination line at a: bytes
// covered by CTT entries are fetched from their sources (snapshot at call
// time), remaining bytes from memory. cb receives the completed line once
// all fetches finish; the line is borrowed, valid only until cb returns.
func (e *Engine) composeDestLine(a memdata.Addr, tx txtrace.Tx, cb func([]byte)) {
	r, fresh := e.composePool.Get()
	if fresh {
		r.e = e
	}
	r.a, r.cb, r.covered = a, cb, 0
	r.segs, r.nlines = r.segs[:0], 0
	lr := lineRange(a)
	i, j := e.ctt.destRun(lr)
	for _, ent := range e.ctt.dst[i:j] {
		part := ent.Dst.Intersect(lr)
		r.segs = append(r.segs, composeSeg{part: part, src: ent.SrcFor(part.Start)})
		r.covered += part.Size
	}

	// Determine every line we must read: the needed source lines, plus the
	// destination line itself when entries don't cover it fully.
	for _, s := range r.segs {
		for l := memdata.LineAlign(s.src); l < s.src+memdata.Addr(s.part.Size); l += memdata.LineSize {
			r.need(l)
		}
	}
	if r.covered < memdata.LineSize {
		e.Stats.MemFills++
		r.need(a)
	}

	r.remaining = r.nlines
	if r.remaining == 0 {
		r.finish()
		return
	}
	for _, sl := range r.lines[:r.nlines] {
		e.Stats.BounceSrcReads++
		sl.ssp = e.tr.Begin(tx, txtrace.StageBounceSrcRead, uint64(sl.line), uint64(e.eng.Now()))
		e.mcs[e.route(sl.line)].RawReadLineSnapshot(sl.line, sl.ssp, sl.recvFn)
	}
}

func (sl *srcLine) recv(d []byte) {
	r := sl.r
	r.e.tr.End(sl.ssp, uint64(r.e.eng.Now()))
	copy(sl.data[:], d)
	r.remaining--
	if r.remaining == 0 {
		r.finish()
	}
}

// finish assembles the line from the snapshots and hands it to cb.
func (r *composeReq) finish() {
	clear(r.out[:])
	if r.covered < memdata.LineSize {
		r.out = *r.snapshot(r.a)
	}
	for _, s := range r.segs {
		dst := r.out[s.part.Start-r.a : s.part.End()-r.a]
		for sb := s.src; len(dst) > 0; {
			k := copy(dst, r.snapshot(memdata.LineAlign(sb))[memdata.LineOffset(sb):])
			dst = dst[k:]
			sb += memdata.Addr(k)
		}
	}
	cb := r.cb
	r.cb = nil
	cb(r.out[:])
	r.e.composePool.Put(r)
}

// ---------------------------------------------------------------------------
// Write path (§III-B2: "Write to destination", "Write to source")
// ---------------------------------------------------------------------------

// newHeld takes a held write from the pool, copying the line in.
func (e *Engine) newHeld(mc int, a memdata.Addr, data []byte, tx txtrace.Tx, release func()) *heldWrite {
	hw, fresh := e.heldPool.Get()
	if fresh {
		hw.e = e
		hw.acquiredFn = hw.acquired
		hw.finishFn = hw.finish
		hw.depDoneFn = hw.depDone
	}
	hw.mc, hw.a, hw.tx, hw.release = mc, a, tx, release
	hw.qsp, hw.hsp, hw.slotHeld = 0, 0, false
	copy(hw.data[:], data)
	return hw
}

func (e *Engine) filterWrite(mc int, a memdata.Addr, data []byte, tx txtrace.Tx, release func()) bool {
	if !memdata.IsLineAligned(a) {
		panic(fmt.Sprintf("core: controller write of unaligned address %#x", a))
	}
	// Every CPU write invalidates in-flight reconstructions of this line.
	e.markStale(a, a+memdata.LineSize)
	e.redefined(a, a+memdata.LineSize)
	// Writes to a held line merge into the BPQ entry (state 3).
	if hw, ok := e.held[a]; ok {
		e.Stats.BPQMerges++
		if tx != 0 {
			now := uint64(e.eng.Now())
			e.tr.Complete(tx, txtrace.StageBPQMerge, uint64(a), now, now+uint64(e.p.CTTLatency), txtrace.FlagWrite)
		}
		copy(hw.data[:], data)
		e.inv.ObserveWrite(a, hw.data[:]) // merged value is forwardable immediately
		e.eng.After(e.p.CTTLatency, release)
		return true
	}
	if !e.ctt.HasSrcOverlap(lineRange(a)) {
		// Write to destination (or untracked): stop tracking the line and
		// let the controller perform the write normally.
		e.Stats.OverwrittenBytes += e.ctt.RemoveDestRange(lineRange(a))
		e.wakePending()
		return false
	}
	// Write to source: hold in the BPQ while the lazy copies execute. The
	// line is copied now; data is only borrowed for this call.
	hw := e.newHeld(mc, a, data, tx, release)
	hw.qsp = e.tr.Begin(tx, txtrace.StageBPQWait, uint64(a), uint64(e.eng.Now()))
	// Injected BPQ stall: the acquisition freezes for the schedule's window
	// before contending for a slot.
	if w := e.flt.FireWindow(faultinject.KindBPQStall, uint64(a), uint64(e.eng.Now())); w != 0 {
		e.eng.After(sim.Cycle(w), hw.acquireSlot)
	} else {
		hw.acquireSlot()
	}
	return true
}

// acquireSlot contends for a slot in the BPQ of hw's controller; acquired
// runs once it holds one.
func (hw *heldWrite) acquireSlot() {
	e := hw.e
	if e.bpqs[hw.mc].Acquire(hw.acquiredFn) {
		e.Stats.BPQStallsFull++
		e.tr.Anomaly(txtrace.AnomalyBPQSaturated, hw.mc, uint64(hw.a), uint64(e.eng.Now()))
	}
}

// acquired runs once a CPU write to a source line holds a BPQ slot.
func (hw *heldWrite) acquired() {
	e := hw.e
	e.tr.End(hw.qsp, uint64(e.eng.Now()))
	hw.slotHeld = true
	e.processSrcWrite(hw)
}

// hookedWrite routes an engine-generated write through the same consistency
// rules as a CPU write (trim destinations, cascade through sources), but
// without consuming a CPU-visible BPQ slot — internal cascades are the
// controller's own machinery. data is borrowed for the call.
func (e *Engine) hookedWrite(a memdata.Addr, data []byte, tx txtrace.Tx, release func()) {
	if _, ok := e.held[a]; ok {
		// A CPU write to this line is already held in a BPQ and is newer
		// than this reconstructed value: drop the internal write (Fig 9
		// state 6: "bounce requests for D are dropped on reaching this
		// state"). The held write's processing removes the tracking.
		e.Stats.DroppedInternal++
		e.eng.After(e.p.CTTLatency, release)
		return
	}
	mc := e.route(a)
	if !e.ctt.HasSrcOverlap(lineRange(a)) {
		// Between untracking the line and the WPQ accepting the write, the
		// line's visible value is ambiguous (a read now would fetch stale
		// memory). Mark the window so the shadow oracle skips it.
		if e.inv.ShadowOn() {
			e.inv.BeginInternalWrite(a)
			inner := release
			release = func() { e.inv.EndInternalWrite(a); inner() }
		}
		e.Stats.MaterializedBytes += e.ctt.RemoveDestRange(lineRange(a))
		e.wakePending()
		e.mcs[mc].RawWriteLine(a, data, tx, release)
		return
	}
	e.processSrcWrite(e.newHeld(mc, a, data, tx, release))
}

// processSrcWrite implements states 3–6 of Fig 9: the write to a tracked
// source line is held; every destination line that prospectively copies
// from it is reconstructed (from memory, not the held data) and written;
// then the held write proceeds to memory.
func (e *Engine) processSrcWrite(hw *heldWrite) {
	e.Stats.BPQHolds++
	a := hw.a
	hw.hsp = e.tr.Begin(hw.tx, txtrace.StageBPQHold, uint64(a), uint64(e.eng.Now()))
	e.held[a] = hw
	e.inv.ObserveWrite(a, hw.data[:]) // held value is forwardable immediately
	// The BPQ is a posted buffer: the writer proceeds once the write is
	// held (reads forward from the BPQ); the memory write lands after the
	// dependent lazy copies complete.
	e.eng.After(e.p.CTTLatency, hw.release)
	hw.release = nil

	// Collect the destination lines depending on this source line, in
	// entry (ID) order.
	lr := lineRange(a)
	hw.deps = hw.deps[:0]
	e.srcScratch = e.ctt.appendSrcOverlapping(e.srcScratch[:0], lr)
	for _, ent := range e.srcScratch {
		ov := ent.SrcRange().Intersect(lr)
		dst := memdata.Range{Start: ent.Dst.Start + (ov.Start - ent.Src), Size: ov.Size}
		for dl := memdata.LineAlign(dst.Start); dl < dst.End(); dl += memdata.LineSize {
			if !e.depSeen[dl] {
				e.depSeen[dl] = true
				hw.deps = append(hw.deps, dl)
			}
		}
	}
	clear(e.depSeen)
	clear(e.srcScratch)

	hw.remaining = len(hw.deps)
	if hw.remaining == 0 {
		hw.finish()
		return
	}
	for _, dl := range hw.deps {
		e.Stats.BPQCopies++
		e.copyLine(hw, dl)
	}
}

func (hw *heldWrite) depDone() {
	hw.remaining--
	if hw.remaining == 0 {
		hw.finish()
	}
}

// finish lets the held write proceed to memory once no entry references
// its line any more.
func (hw *heldWrite) finish() {
	e, a := hw.e, hw.a
	lr := lineRange(a)
	// The paper's rule (Fig 9 state 4): the held write may only proceed
	// once no entry references this source line. A reference can
	// legitimately outlive our copies when the dependent destination
	// line is itself held in another BPQ — its tracking is removed by
	// that write's completion, so wait for it. Anything else is a bug.
	if e.ctt.HasSrcOverlap(lr) {
		for _, ent := range e.ctt.SrcOverlapping(lr) {
			ov := ent.SrcRange().Intersect(lr)
			dst := memdata.Range{Start: ent.Dst.Start + (ov.Start - ent.Src), Size: ov.Size}
			for _, dl := range dst.Lines() {
				if _, held := e.held[dl]; !held {
					panic(fmt.Sprintf("core: source %#x still referenced by entry %d after BPQ processing", a, ent.ID))
				}
			}
		}
		e.heldWaiters = append(e.heldWaiters, hw.finishFn)
		return
	}
	// The held line may itself have been a tracked destination.
	e.Stats.OverwrittenBytes += e.ctt.RemoveDestRange(lr)
	delete(e.held, a)
	e.tr.EndFlags(hw.hsp, uint64(e.eng.Now()), txtrace.FlagWrite)
	// Unheld but not yet WPQ-accepted: reads in this window fetch stale
	// memory, so mark it for the shadow oracle.
	wdone := nop
	if e.inv.ShadowOn() {
		e.inv.BeginInternalWrite(a)
		wdone = func() { e.inv.EndInternalWrite(a) }
	}
	e.mcs[hw.mc].RawWriteLine(a, hw.data[:], hw.hsp, wdone)
	if hw.slotHeld {
		e.bpqs[hw.mc].Release()
	}
	e.runHeldWaiters()
	e.wakePending()
	e.heldPool.Put(hw)
}

// lineCopy reconstructs one destination line that depends on a held
// source write and writes it through the hooked path.
type lineCopy struct {
	e          *Engine
	hw         *heldWrite
	dl         memdata.Addr
	rec        *recon
	composedFn func(data []byte)
}

func (e *Engine) copyLine(hw *heldWrite, dl memdata.Addr) {
	lc, fresh := e.copyPool.Get()
	if fresh {
		lc.e = e
		lc.composedFn = lc.composed
	}
	lc.hw, lc.dl, lc.rec = hw, dl, e.register(dl)
	e.composeDestLine(dl, hw.hsp, lc.composedFn)
}

func (lc *lineCopy) composed(data []byte) {
	e, hw, rec := lc.e, lc.hw, lc.rec
	lc.hw = nil
	e.copyPool.Put(lc)
	// Writing the reconstructed line trims its CTT entries and cascades
	// if the line is a source elsewhere.
	e.writeReconstructed(rec, hw.hsp, data, hw.depDoneFn)
}

// runHeldWaiters retries BPQ finishes that were waiting for other held
// lines to drain.
func (e *Engine) runHeldWaiters() {
	if len(e.heldWaiters) == 0 {
		return
	}
	waiters := e.heldWaiters
	e.heldWaiters = nil
	for _, w := range waiters {
		w()
	}
}

// ---------------------------------------------------------------------------
// MCLAZY / MCFREE (§III-C)
// ---------------------------------------------------------------------------

// MCLazy records the prospective copy (dst ← src); done fires when every
// controller has accepted the CTT update. The operation stalls while the
// CTT is full or while BPQ-held lines overlap either buffer (Fig 9:
// "prospective copies involving S1 or S2 are stalled").
func (e *Engine) MCLazy(dst memdata.Range, src memdata.Addr, tx txtrace.Tx, done func()) {
	if o := e.inv; o.WatchdogOn() {
		id := o.TxBegin(uint64(dst.Start))
		inner := done
		done = func() { o.TxEnd(id); inner() }
	}
	sp := e.tr.Begin(tx, txtrace.StageCTTInsert, uint64(dst.Start), uint64(e.eng.Now()))
	pl, _ := e.lazyPool.Get()
	*pl = pendingLazy{dst: dst, src: src, done: done, since: e.eng.Now(), sp: sp}
	e.tryLazy(pl)
}

func (e *Engine) tryLazy(pl *pendingLazy) {
	if e.lazyConflicts(pl) {
		if !pl.queued {
			e.Stats.LazyStallsBPQ++
			pl.queued = true
			e.pending = append(e.pending, pl)
		}
		pl.fullStall = false
		return
	}
	if !e.ctt.Insert(pl.dst, pl.src) {
		if !pl.queued {
			e.Stats.LazyStallsFull++
			pl.queued = true
			e.pending = append(e.pending, pl)
		}
		pl.fullStall = true
		e.maybeStartFree(true)
		return
	}
	if pl.queued {
		e.Stats.LazyStallCycles += uint64(e.eng.Now() - pl.since)
		for i, q := range e.pending {
			if q == pl {
				e.pending = append(e.pending[:i], e.pending[i+1:]...)
				break
			}
		}
	}
	// The insert redefines every destination line: any in-flight
	// reconstruction composed under an older entry is now stale.
	e.markStale(memdata.LineAlign(pl.dst.Start), pl.dst.End())
	e.redefined(memdata.LineAlign(pl.dst.Start), pl.dst.End())
	e.Stats.LazyOps++
	e.Stats.LazyBytes += pl.dst.Size
	// Shadow oracle: replay the accepted copy eagerly — from this cycle on,
	// reads of dst must return the copied bytes.
	e.inv.ObserveCopy(pl.dst, pl.src)
	e.tr.End(pl.sp, uint64(e.eng.Now()+e.p.CTTLatency))
	// Injected CTT eviction storm: force the smallest entry out of the
	// table through the regular materialization path.
	if e.flt.Fire(faultinject.KindCTTEvict, uint64(pl.dst.Start), uint64(e.eng.Now())) {
		if ent := e.pickFreeEntry(); ent != nil {
			e.Stats.ForcedEvictions++
			e.materializeEntry(ent)
		}
	}
	// Graceful degradation: past the high-water mark the accepted copy is
	// materialized immediately, so sustained pressure degrades to eager
	// copying instead of wedging the table.
	if e.p.EagerCopyFrac > 0 && float64(e.ctt.Len()) >= e.p.EagerCopyFrac*float64(e.p.CTTCapacity) {
		e.Stats.EagerFallbacks++
		e.Stats.EagerFallbackBytes += pl.dst.Size
		for _, ent := range e.ctt.DestCover(pl.dst) {
			e.materializeEntry(ent)
		}
	}
	e.maybeStartFree(false)
	done := pl.done
	*pl = pendingLazy{}
	e.lazyPool.Put(pl)
	e.eng.After(e.p.CTTLatency, done)
}

// lazyConflicts reports whether the prospective copy touches any BPQ-held
// line: its destination, its source, or — crucially — any source it would
// be redirected to by chain collapsing.
func (e *Engine) lazyConflicts(pl *pendingLazy) bool {
	if e.conflictsWithHeld(pl.dst) || e.conflictsWithHeld(memdata.Range{Start: pl.src, Size: pl.dst.Size}) {
		return true
	}
	if len(e.held) == 0 {
		return false
	}
	for _, p := range e.ctt.collapse(pl.dst, pl.src, false) {
		if e.conflictsWithHeld(memdata.Range{Start: p.src, Size: p.dst.Size}) {
			return true
		}
	}
	return false
}

// conflictsWithHeld reports whether any line r touches is BPQ-held. It
// tests the few held lines (at most BPQCapacity per controller) against r
// rather than probing every line of r, which may be a 2 MB copy.
func (e *Engine) conflictsWithHeld(r memdata.Range) bool {
	if r.Empty() {
		return false
	}
	first := memdata.LineAlign(r.Start)
	for l := range e.held {
		if l >= first && l < r.End() {
			return true
		}
	}
	return false
}

// wakePending retries stalled MCLAZY operations after CTT or BPQ changes.
func (e *Engine) wakePending() {
	if len(e.pending) == 0 {
		return
	}
	// Retries may wake pending operations again: a nested call finds the
	// scratch taken and allocates its own.
	queued := append(e.wakeScratch[:0], e.pending...)
	e.wakeScratch = nil
	for _, pl := range queued {
		// An op that a nested retry accepted has left the queue and may be
		// back in the pool, cleared: it must not be retried.
		if pl.queued {
			e.tryLazy(pl)
		}
	}
	clear(queued)
	e.wakeScratch = queued[:0]
}

// MCFree hints that the buffer r is dead: tracking for every fully
// contained destination line is dropped without copying (§III-C).
func (e *Engine) MCFree(r memdata.Range, tx txtrace.Tx, done func()) {
	if o := e.inv; o.WatchdogOn() {
		id := o.TxBegin(uint64(r.Start))
		inner := done
		done = func() { o.TxEnd(id); inner() }
	}
	if tx != 0 {
		now := uint64(e.eng.Now())
		e.tr.Complete(tx, txtrace.StageCTTInsert, uint64(r.Start), now, now+uint64(e.p.CTTLatency), 0)
	}
	start := memdata.LineUp(r.Start)
	end := memdata.LineAlign(r.End())
	if end > start {
		inner := memdata.Range{Start: start, Size: uint64(end - start)}
		// Shadow oracle: MCFREE is the last cycle the buffer's contents are
		// defined — compare the visible value of still-tracked lines against
		// the shadow before dropping their tracking (bounded per free).
		if e.inv.ShadowOn() {
			checked := 0
			for _, l := range inner.Lines() {
				if checked >= maxFreeChecks {
					break
				}
				if !e.ctt.HasDestOverlap(lineRange(l)) {
					continue
				}
				checked++
				e.inv.CheckFreeLine(l, e.peekVisibleLine(l))
			}
		}
		e.Stats.MCFreedBytes += e.ctt.RemoveDestRange(inner)
		// Freed lines are undefined; stale in-flight reconstructions must
		// not land after the free and resurrect old data as fresh writes.
		e.markStale(inner.Start, inner.End())
		e.redefined(inner.Start, inner.End())
		e.inv.ObserveFree(inner)
	}
	e.Stats.MCFrees++
	e.wakePending()
	e.eng.After(e.p.CTTLatency, done)
}

// maxFreeChecks bounds the number of still-tracked lines the shadow oracle
// byte-compares per MCFREE (the peek composes values synchronously).
const maxFreeChecks = 64

// peekVisibleLine computes the value a read of line a issued now would
// bind, with no timing, stats, or side effects: BPQ-held data wins, then a
// synchronous compose over the CTT with WPQ-forward/phys source bytes —
// the same precedence as the event-driven read path.
func (e *Engine) peekVisibleLine(a memdata.Addr) []byte {
	if hw, ok := e.held[a]; ok {
		return append([]byte(nil), hw.data[:]...)
	}
	lr := lineRange(a)
	out := make([]byte, memdata.LineSize)
	copy(out, e.mcs[e.route(a)].PeekLine(a))
	for _, ent := range e.ctt.DestCover(lr) {
		part := ent.Dst.Intersect(lr)
		src := ent.SrcFor(part.Start)
		for i := uint64(0); i < part.Size; i++ {
			sa := src + memdata.Addr(i)
			sl := e.mcs[e.route(sa)].PeekLine(memdata.LineAlign(sa))
			out[part.Start-a+memdata.Addr(i)] = sl[memdata.LineOffset(sa)]
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Asynchronous freeing (§III-A1 "Avoiding CTT overflow", §V-C scalability)
// ---------------------------------------------------------------------------

func (e *Engine) freeTarget() int {
	return int(e.p.FreeThreshold * float64(e.p.CTTCapacity))
}

// maybeStartFree spawns free workers while occupancy is at or above the
// threshold. Each worker evicts the smallest entry by performing its copy,
// then re-checks occupancy. force starts a worker even below threshold
// (used when an MCLAZY stalled on a full table).
func (e *Engine) maybeStartFree(force bool) {
	limit := e.p.ParallelFrees * len(e.mcs)
	// pickFreeEntry guards against a livelock: with every live entry already
	// claimed by a worker (tiny table, high parallelism), starting another
	// worker would have it exit immediately and the loop spin forever.
	for e.freeWorkers < limit && e.pickFreeEntry() != nil && (e.ctt.Len() >= e.freeTarget() || (force && e.freeWorkers == 0 && e.ctt.Len() > 0)) {
		e.freeWorkers++
		e.freeWorker()
		force = false
	}
}

func (e *Engine) hasFullStall() bool {
	for _, pl := range e.pending {
		if pl.fullStall {
			return true
		}
	}
	return false
}

// pickFreeEntry returns the smallest unclaimed entry, or nil. Claiming
// prevents parallel workers from redundantly copying the same entry.
func (e *Engine) pickFreeEntry() *Entry { return e.ctt.smallestUnclaimed(e.freeing) }

func (e *Engine) freeWorker() {
	if e.ctt.Len() < e.freeTarget() && !e.hasFullStall() {
		e.freeWorkers--
		e.inv.CheckRefcount("core.free_workers", e.freeWorkers)
		return
	}
	ent := e.pickFreeEntry()
	if ent == nil {
		e.freeWorkers--
		e.inv.CheckRefcount("core.free_workers", e.freeWorkers)
		return
	}
	e.startFree(ent, false)
}

// materializeEntry eagerly performs one CTT entry's copy and thereby
// evicts it, using the same compose/write/trim machinery as the async free
// workers but pinned to this entry and without pacing — forced evictions
// (injected faults) and the eager-copy fallback are urgent, not
// background, work. Claimed entries are skipped (a worker already owns
// them).
func (e *Engine) materializeEntry(ent *Entry) {
	if ent == nil || e.freeing[ent.ID] {
		return
	}
	e.startFree(ent, true)
}

// freeJob copies one claimed CTT entry out line by line: the current
// entry of an async free worker, or an urgent materialization.
type freeJob struct {
	e       *Engine
	ent     *Entry
	urgent  bool // materialization: no pacing, and the job is its own worker
	dl, end memdata.Addr
	fsp     txtrace.Tx
	rec     *recon

	stepFn, writtenFn func()
	composedFn        func(data []byte)
}

func (e *Engine) startFree(ent *Entry, urgent bool) {
	e.freeing[ent.ID] = true
	if urgent {
		e.freeWorkers++
	}
	e.Stats.Frees++
	e.Stats.FreedBytes += ent.Dst.Size
	j, fresh := e.freePool.Get()
	if fresh {
		j.e = e
		j.stepFn = j.step
		j.composedFn = j.composed
		j.writtenFn = j.written
	}
	j.ent, j.urgent = ent, urgent
	j.fsp = e.tr.BeginRoot(txtrace.StageFree, txtrace.TrackEngine, uint64(ent.Dst.Start), uint64(e.eng.Now()))
	// The entry may shrink or vanish while we work (writes, bounces), so
	// walk the lines of its destination as it was when claimed.
	j.end = ent.Dst.End()
	j.dl = memdata.LineAlign(ent.Dst.Start)
	j.step()
}

// step copies the next still-tracked line, or ends the job.
func (j *freeJob) step() {
	e := j.e
	for j.dl < j.end && e.ctt.LookupDest(j.dl) == nil {
		j.dl += memdata.LineSize
	}
	if j.dl >= j.end {
		delete(e.freeing, j.ent.ID)
		e.tr.End(j.fsp, uint64(e.eng.Now()))
		urgent := j.urgent
		j.ent = nil
		e.freePool.Put(j)
		if urgent {
			e.freeWorkers--
			e.inv.CheckRefcount("core.free_workers", e.freeWorkers)
			e.wakePending()
		} else {
			e.eng.After(0, e.freeWorkerFn)
		}
		return
	}
	// Background freeing yields to demand traffic: back off while the
	// destination controller's write queue is busy.
	if !j.urgent && e.mcs[e.route(j.dl)].WPQOccupancy() >= 0.5 {
		e.eng.After(e.p.FreePacing, j.stepFn)
		return
	}
	j.rec = e.register(j.dl)
	e.composeDestLine(j.dl, j.fsp, j.composedFn)
}

func (j *freeJob) composed(data []byte) {
	j.e.writeReconstructed(j.rec, j.fsp, data, j.writtenFn)
}

func (j *freeJob) written() {
	j.dl += memdata.LineSize
	if j.urgent {
		j.step()
		return
	}
	j.e.eng.After(j.e.p.FreePacing, j.stepFn)
}
