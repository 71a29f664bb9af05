// Package cpu models a CPU core at the memory-operation level: a window of
// in-flight memory operations bounded by the reorder buffer / load-store
// queue, an issue cost per operation, and blocking (dependent) versus
// asynchronous (independent) accesses.
//
// This is the machinery behind the paper's §II-C observation that memcpy
// time is dominated by memory stalls: a copy loop issues independent
// load/store pairs until the window fills, after which progress is limited
// by miss latency divided by memory-level parallelism. Dependent loads
// (pointer chasing) expose the full round-trip latency.
//
// All methods must be called from the core's workload process (a sim.Proc);
// they advance that process's simulated time.
package cpu

import (
	"fmt"

	"mcsquare/internal/cache"
	"mcsquare/internal/isa"
	"mcsquare/internal/memdata"
	"mcsquare/internal/sim"
	"mcsquare/internal/txtrace"
)

// Config bounds the core's memory parallelism.
type Config struct {
	// WindowSize is the maximum number of in-flight memory operations
	// (the ROB/LSQ bound). Misses are further bounded by the cache's MSHRs.
	WindowSize int
	// IssueCost is charged per memory operation (address generation, the
	// copy loop's test/branch, pipeline slots).
	IssueCost sim.Cycle
	// FenceCost is the fixed pipeline + store-buffer drain charge of an
	// MFENCE, paid even when nothing is outstanding.
	FenceCost sim.Cycle
}

// DefaultConfig models a wide out-of-order core.
func DefaultConfig() Config {
	return Config{WindowSize: 48, IssueCost: 1, FenceCost: 40}
}

// Stats counts core activity.
type Stats struct {
	Loads        uint64
	Stores       uint64
	CLWBs        uint64
	NTStores     uint64
	MCLazies     uint64
	MCFrees      uint64
	Fences       uint64
	IssueCycles  uint64 // cycles spent issuing operations
	WindowStall  uint64 // cycles stalled on a full window
	DepStall     uint64 // cycles stalled on dependent loads
	FenceStall   uint64 // cycles draining at fences
	ComputeCycle uint64
}

// Core is one simulated CPU core bound to a workload process.
type Core struct {
	ID   int
	cfg  Config
	hier *cache.Hierarchy
	lazy *isa.Unit // the (MC)² instructions; nil without the hardware
	p    *sim.Proc
	tr   *txtrace.Tracer

	inflight   int
	windowWait bool
	fenceWait  bool

	// The dependent load in progress. Load blocks its process until the
	// line arrives, so a core has at most one.
	loadOut     []byte
	loadSpan    lineSpan
	loadSp      txtrace.Tx
	loadDone    bool
	loadWaiting bool // suspended in Load, not yet resumed by the completion

	// Completions bound once, in New.
	loadedFn, asyncLoadedFn func(data []byte)

	// Retired posted operations and copy elements for reuse.
	opPool   sim.Pool[op]
	elemPool sim.Pool[copyElem]

	// Writeback FIFO tracking: MCLAZY packets are ordered behind all CLWBs
	// issued before them (§III-B1's "the caches' FIFO write buffer ensures
	// that the writebacks reach the MC before the MCLAZY packet").
	wbSeq      uint64
	wbInFlight int // CLWBs issued and not yet accepted
	wbBarriers []wbBarrier

	// pendingStores counts in-flight stores per cacheline; a CLWB to a
	// line waits for them (x86 orders same-address CLWB after the store).
	pendingStores map[memdata.Addr]int
	storeWaiters  map[memdata.Addr][]func()

	Stats Stats
}

// wbBarrier holds an MCLAZY packet back until the CLWBs issued before it
// have been accepted.
type wbBarrier struct {
	upTo    uint64 // the last CLWB sequence number issued before the barrier
	pending int    // CLWBs numbered up to upTo still in flight
	fire    func()
}

// New creates a core. Bind attaches the workload process before use.
func New(id int, cfg Config, hier *cache.Hierarchy, lazy *isa.Unit) *Core {
	c := &Core{
		ID: id, cfg: cfg, hier: hier, lazy: lazy,
		pendingStores: map[memdata.Addr]int{},
		storeWaiters:  map[memdata.Addr][]func(){},
	}
	c.loadedFn = c.loaded
	c.asyncLoadedFn = c.asyncLoaded
	return c
}

// Bind attaches the workload process that will drive this core.
func (c *Core) Bind(p *sim.Proc) { c.p = p }

// SetTracer attaches the transaction tracer (nil disables). Each memory
// operation the core issues becomes one root span per cacheline touched.
func (c *Core) SetTracer(t *txtrace.Tracer) { c.tr = t }

// Proc returns the bound workload process.
func (c *Core) Proc() *sim.Proc { return c.p }

// Now returns the current simulated cycle.
func (c *Core) Now() sim.Cycle { return c.p.Now() }

// Compute advances simulated time by non-memory work.
func (c *Core) Compute(cycles sim.Cycle) {
	c.Stats.ComputeCycle += uint64(cycles)
	c.p.Wait(cycles)
}

// issue charges issue cost and acquires a window slot, stalling while the
// window is full.
func (c *Core) issue() {
	c.Stats.IssueCycles += uint64(c.cfg.IssueCost)
	c.p.Wait(c.cfg.IssueCost)
	for c.inflight >= c.cfg.WindowSize {
		start := c.p.Now()
		c.windowWait = true
		c.p.Suspend()
		c.Stats.WindowStall += uint64(c.p.Now() - start)
	}
	c.inflight++
}

// complete releases a window slot; runs in engine context.
func (c *Core) complete() {
	c.inflight--
	if c.windowWait {
		c.windowWait = false
		c.p.Resume()
		return
	}
	if c.fenceWait && c.inflight == 0 {
		c.fenceWait = false
		c.p.Resume()
	}
}

// lineSpan is the part of one cacheline that a byte range touches.
type lineSpan struct {
	line memdata.Addr
	off  uint64
	n    uint64
}

// firstSpan returns the span of [a, a+n) within a's cacheline (n > 0).
// Walking a range is firstSpan, then advancing a and n by the span's n.
func firstSpan(a memdata.Addr, n uint64) lineSpan {
	off := memdata.LineOffset(a)
	return lineSpan{line: memdata.LineAlign(a), off: off, n: min(n, memdata.LineSize-off)}
}

// lineSpans decomposes [a, a+n) into its per-line spans. The hot paths walk
// a range with firstSpan instead, building no slice.
func lineSpans(a memdata.Addr, n uint64) []lineSpan {
	var out []lineSpan
	for n > 0 {
		s := firstSpan(a, n)
		out = append(out, s)
		a += memdata.Addr(s.n)
		n -= s.n
	}
	return out
}

// Load performs a dependent load of n bytes at a (n ≤ a few words in
// practice) and blocks until the data arrives: the latency lands on the
// critical path, as in pointer chasing.
func (c *Core) Load(a memdata.Addr, n uint64) []byte {
	if n == 0 {
		return nil
	}
	c.loadOut = make([]byte, 0, n)
	for n > 0 {
		s := firstSpan(a, n)
		c.issue()
		c.Stats.Loads++
		c.loadSpan = s
		c.loadSp = c.tr.BeginRoot(txtrace.StageCPULoad, int32(c.ID), uint64(s.line), uint64(c.p.Now()))
		start := c.p.Now()
		c.loadDone = false
		c.hier.Read(c.ID, s.line, c.loadSp, c.loadedFn)
		for !c.loadDone {
			c.loadWaiting = true
			c.p.Suspend()
			c.loadWaiting = false
		}
		c.Stats.DepStall += uint64(c.p.Now() - start)
		a += memdata.Addr(s.n)
		n -= s.n
	}
	out := c.loadOut
	c.loadOut = nil
	return out
}

// loaded completes the dependent load in progress, copying its span out
// of the borrowed line.
func (c *Core) loaded(d []byte) {
	c.tr.End(c.loadSp, uint64(c.p.Now()))
	s := c.loadSpan
	c.loadOut = append(c.loadOut, d[s.off:s.off+s.n]...)
	c.loadDone = true
	c.complete()
	if c.loadWaiting {
		c.loadWaiting = false
		c.p.Resume()
	}
}

// LoadAsync issues an independent load of n bytes: the window slot is held
// until the data returns, but the core does not wait for it. Use for
// streaming reads whose values feed no further address computation.
func (c *Core) LoadAsync(a memdata.Addr, n uint64) {
	for n > 0 {
		s := firstSpan(a, n)
		c.issue()
		c.Stats.Loads++
		sp := c.tr.BeginRoot(txtrace.StageCPULoad, int32(c.ID), uint64(s.line), uint64(c.p.Now()))
		done := c.asyncLoadedFn
		if sp != 0 {
			done = func([]byte) {
				c.tr.End(sp, uint64(c.p.Now()))
				c.complete()
			}
		}
		c.hier.Read(c.ID, s.line, sp, done)
		a += memdata.Addr(s.n)
		n -= s.n
	}
}

func (c *Core) asyncLoaded([]byte) { c.complete() }

// op is one posted store, non-temporal store, CLWB, MCLAZY or MCFREE of
// the core, from issue until its completion. Ops come from a per-core pool
// and their steps are method values bound when the op is first allocated.
type op struct {
	c    *Core
	line memdata.Addr
	sp   txtrace.Tx
	id   uint64        // CLWB sequence number
	r    memdata.Range // MCLAZY's destination or MCFREE's buffer
	src  memdata.Addr  // MCLAZY's source

	storedFn, ntStoredFn, clwbFireFn, clwbDoneFn, mcLazyFn, mcDoneFn func()
}

func (c *Core) newOp(line memdata.Addr) *op {
	o, fresh := c.opPool.Get()
	if fresh {
		o.c = c
		o.storedFn = o.stored
		o.ntStoredFn = o.ntStored
		o.clwbFireFn = o.clwbFire
		o.clwbDoneFn = o.clwbDone
		o.mcLazyFn = o.mcLazy
		o.mcDoneFn = o.mcDone
	}
	o.line = line
	return o
}

// Store writes data at a (posted: the slot is held until the line is owned
// in the L1, but the core proceeds). data is read until then, so the
// caller must leave it unchanged.
func (c *Core) Store(a memdata.Addr, data []byte) {
	for len(data) > 0 {
		s := firstSpan(a, uint64(len(data)))
		c.issue()
		c.Stats.Stores++
		chunk := data[:s.n]
		data = data[s.n:]
		a += memdata.Addr(s.n)
		c.pendingStores[s.line]++
		o := c.newOp(s.line)
		o.sp = c.tr.BeginRoot(txtrace.StageCPUStore, int32(c.ID), uint64(s.line), uint64(c.p.Now()))
		c.hier.Write(c.ID, s.line, s.off, chunk, o.sp, o.storedFn)
	}
}

func (o *op) stored() {
	c := o.c
	c.tr.EndFlags(o.sp, uint64(c.p.Now()), txtrace.FlagWrite)
	line := o.line
	c.opPool.Put(o)
	c.storeRetired(line)
	c.complete()
}

// storeRetired releases CLWBs waiting on same-line stores.
func (c *Core) storeRetired(line memdata.Addr) {
	c.pendingStores[line]--
	if c.pendingStores[line] > 0 {
		return
	}
	delete(c.pendingStores, line)
	if ws := c.storeWaiters[line]; len(ws) > 0 {
		delete(c.storeWaiters, line)
		for _, w := range ws {
			w()
		}
	}
}

// StoreNT performs non-temporal full-line stores covering [a, a+len).
// a must be line-aligned and len(data) a line multiple.
func (c *Core) StoreNT(a memdata.Addr, data []byte) {
	if !memdata.IsLineAligned(a) || uint64(len(data))%memdata.LineSize != 0 {
		panic(fmt.Sprintf("cpu: StoreNT needs line-aligned full lines (a=%#x n=%d)", a, len(data)))
	}
	for i := 0; i < len(data); i += memdata.LineSize {
		c.issue()
		c.Stats.NTStores++
		o := c.newOp(a + memdata.Addr(i))
		o.sp = c.tr.BeginRoot(txtrace.StageCPUNTStore, int32(c.ID), uint64(o.line), uint64(c.p.Now()))
		// WriteLineNT copies the line at the call.
		c.hier.WriteLineNT(c.ID, o.line, data[i:i+memdata.LineSize], o.sp, o.ntStoredFn)
	}
}

func (o *op) ntStored() {
	c := o.c
	c.tr.EndFlags(o.sp, uint64(c.p.Now()), txtrace.FlagWrite)
	c.opPool.Put(o)
	c.complete()
}

// CLWB writes the line containing a back to memory if dirty, keeping it
// cached. Asynchronous: the slot is held until the controller accepts.
func (c *Core) CLWB(a memdata.Addr) {
	c.issue()
	c.Stats.CLWBs++
	c.wbSeq++
	o := c.newOp(memdata.LineAlign(a))
	o.id = c.wbSeq
	c.wbInFlight++
	o.sp = c.tr.BeginRoot(txtrace.StageCPUCLWB, int32(c.ID), uint64(o.line), uint64(c.p.Now()))
	// Order behind in-flight stores to the same line: CLWB must write back
	// the store's data, not probe an empty cache mid-RFO.
	if c.pendingStores[o.line] > 0 {
		c.storeWaiters[o.line] = append(c.storeWaiters[o.line], o.clwbFireFn)
		return
	}
	o.clwbFire()
}

func (o *op) clwbFire() { o.c.hier.CLWB(o.c.ID, o.line, o.sp, o.clwbDoneFn) }

func (o *op) clwbDone() {
	c := o.c
	c.tr.End(o.sp, uint64(c.p.Now()))
	id := o.id
	c.opPool.Put(o)
	c.wbInFlight--
	c.retireWB(id)
	c.complete()
}

// retireWB removes a completed writeback from pending barriers, firing any
// that have fully drained. Every CLWB numbered up to a barrier's upTo was
// in flight when the barrier was set, since it retires only now.
func (c *Core) retireWB(id uint64) {
	live := c.wbBarriers[:0]
	for _, b := range c.wbBarriers {
		if id <= b.upTo {
			b.pending--
		}
		if b.pending == 0 {
			b.fire()
		} else {
			live = append(live, b)
		}
	}
	c.wbBarriers = live
}

// afterPriorWritebacks runs fire once every CLWB issued before this point
// has been accepted by its memory controller (immediately if none are in
// flight).
func (c *Core) afterPriorWritebacks(fire func()) {
	if c.wbInFlight == 0 {
		fire()
		return
	}
	c.wbBarriers = append(c.wbBarriers, wbBarrier{upTo: c.wbSeq, pending: c.wbInFlight, fire: fire})
}

// mcOp is the preamble MCLAZY and MCFREE share: it issues the instruction
// on r and opens its root span.
func (c *Core) mcOp(stage txtrace.Stage, r memdata.Range) *op {
	if c.lazy == nil {
		panic("cpu: core has no lazy-copy unit")
	}
	c.issue()
	o := c.newOp(r.Start)
	o.r = r
	o.sp = c.tr.BeginRoot(stage, int32(c.ID), uint64(r.Start), uint64(c.p.Now()))
	return o
}

// MCLazy executes the MCLAZY instruction. dst must be line-aligned with a
// line-multiple size (the §III-C alignment rules); the memcpy_lazy software
// wrapper in internal/softmc removes these constraints for callers.
func (c *Core) MCLazy(dst memdata.Range, src memdata.Addr) {
	o := c.mcOp(txtrace.StageCPUMCLazy, dst)
	c.Stats.MCLazies++
	o.src = src
	// The packet is FIFO-ordered behind this core's earlier writebacks.
	c.afterPriorWritebacks(o.mcLazyFn)
}

func (o *op) mcLazy() { o.c.lazy.MCLazy(o.r, o.src, o.sp, o.mcDoneFn) }

// MCFree executes the MCFREE instruction for the buffer r.
func (c *Core) MCFree(r memdata.Range) {
	o := c.mcOp(txtrace.StageCPUMCFree, r)
	c.Stats.MCFrees++
	c.lazy.MCFree(r, o.sp, o.mcDoneFn)
}

// mcDone retires an MCLAZY or MCFREE once the unit reports it done.
func (o *op) mcDone() {
	c := o.c
	c.tr.End(o.sp, uint64(c.p.Now()))
	c.opPool.Put(o)
	c.complete()
}

// Fence blocks until every in-flight operation of this core has completed
// (MFENCE: orders prior loads, stores, CLWBs and MCLAZYs).
func (c *Core) Fence() {
	c.Stats.Fences++
	c.p.Wait(c.cfg.FenceCost)
	start := c.p.Now()
	for c.inflight > 0 {
		c.fenceWait = true
		c.p.Suspend()
	}
	c.Stats.FenceStall += uint64(c.p.Now() - start)
}

// copyElem is one destination line of an eager Memcpy: a fused
// load(+load)/store. A destination span draws on at most two source lines;
// each load gathers its bytes into buf when its line arrives, and the
// store issues once both have. Elements come from a per-core pool and are
// recycled when the store retires: the store's RFO reads buf when the
// destination line arrives.
type copyElem struct {
	c         *Core
	dstLine   memdata.Addr
	dstOff    uint64
	dstN      uint64
	src       [2]lineSpan
	lsp       [2]txtrace.Tx
	ssp       txtrace.Tx
	remaining int
	buf       [memdata.LineSize]byte

	loadFn   [2]func(data []byte)
	storedFn func()
}

func (e *copyElem) load0(d []byte) { e.loaded(0, d) }
func (e *copyElem) load1(d []byte) { e.loaded(1, d) }

// loaded gathers source span i from its borrowed line.
func (e *copyElem) loaded(i int, d []byte) {
	c := e.c
	c.tr.End(e.lsp[i], uint64(c.p.Now()))
	s := e.src[i]
	at := uint64(0)
	if i == 1 {
		at = e.src[0].n
	}
	copy(e.buf[at:], d[s.off:s.off+s.n])
	c.complete()
	e.remaining--
	if e.remaining == 0 {
		c.hier.Write(c.ID, e.dstLine, e.dstOff, e.buf[:e.dstN], e.ssp, e.storedFn)
	}
}

func (e *copyElem) stored() {
	c := e.c
	c.tr.EndFlags(e.ssp, uint64(c.p.Now()), txtrace.FlagWrite)
	c.elemPool.Put(e)
	c.complete()
}

// Memcpy performs an eager byte copy of n bytes from src to dst through
// the cache hierarchy, moving real data. Each destination line is a fused
// load(+load)/store element: loads issue asynchronously (memory-level
// parallelism applies) and the store issues when its source bytes arrive.
// Call Fence to wait for completion; the copied bytes are visible to
// subsequent reads immediately thanks to store forwarding in the caches.
func (c *Core) Memcpy(dst, src memdata.Addr, n uint64) {
	for done := uint64(0); done < n; {
		d := firstSpan(dst+memdata.Addr(done), n-done)
		// Source bytes feeding this destination span.
		srcA := src + memdata.Addr(done)
		done += d.n

		e, fresh := c.elemPool.Get()
		if fresh {
			e.c = c
			e.loadFn = [2]func([]byte){e.load0, e.load1}
			e.storedFn = e.stored
		}
		e.dstLine, e.dstOff, e.dstN = d.line, d.off, d.n
		e.src[0] = firstSpan(srcA, d.n)
		e.remaining = 1
		if e.src[0].n < d.n {
			e.src[1] = firstSpan(srcA+memdata.Addr(e.src[0].n), d.n-e.src[0].n)
			e.remaining = 2
		}
		nsrc := e.remaining

		// One window slot per source load plus one for the store.
		c.issue() // store slot, reserved up front to model the LSQ entry
		c.Stats.Stores++
		e.ssp = c.tr.BeginRoot(txtrace.StageCPUStore, int32(c.ID), uint64(d.line), uint64(c.p.Now()))
		for i := 0; i < nsrc; i++ {
			c.issue()
			c.Stats.Loads++
			s := e.src[i]
			e.lsp[i] = c.tr.BeginRoot(txtrace.StageCPULoad, int32(c.ID), uint64(s.line), uint64(c.p.Now()))
			c.hier.Read(c.ID, s.line, e.lsp[i], e.loadFn[i])
		}
	}
}

// Inflight reports the number of operations currently in the window.
func (c *Core) Inflight() int { return c.inflight }
