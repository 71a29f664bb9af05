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

// LazyIssuer is the ISA-level interface for the (MC)² instructions; the
// isa package provides the production implementation.
type LazyIssuer interface {
	// MCLazy performs the MCLAZY instruction for a core: destination
	// cachelines are invalidated, the packet is broadcast, and done fires
	// when every CTT has accepted the entry. tx is the operation's
	// transaction-trace id (0 when untraced).
	MCLazy(core int, dst memdata.Range, src memdata.Addr, tx txtrace.Tx, done func())
	// MCFree hints that the buffer is dead.
	MCFree(core int, r memdata.Range, tx txtrace.Tx, done func())
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
	lazy LazyIssuer
	p    *sim.Proc
	tr   *txtrace.Tracer

	inflight    int
	windowWait  bool
	fenceWait   bool
	resumeToken *bool // non-nil while blocked on a dependent completion

	// Writeback FIFO tracking: MCLAZY packets are ordered behind all CLWBs
	// issued before them (§III-B1's "the caches' FIFO write buffer ensures
	// that the writebacks reach the MC before the MCLAZY packet").
	wbSeq      uint64
	wbInFlight map[uint64]struct{}
	wbBarriers []*wbBarrier

	// pendingStores counts in-flight stores per cacheline; a CLWB to a
	// line waits for them (x86 orders same-address CLWB after the store).
	pendingStores map[memdata.Addr]int
	storeWaiters  map[memdata.Addr][]func()

	Stats Stats
}

type wbBarrier struct {
	waiting map[uint64]struct{}
	fire    func()
}

// New creates a core. Bind attaches the workload process before use.
func New(id int, cfg Config, hier *cache.Hierarchy, lazy LazyIssuer) *Core {
	return &Core{
		ID: id, cfg: cfg, hier: hier, lazy: lazy,
		wbInFlight:    map[uint64]struct{}{},
		pendingStores: map[memdata.Addr]int{},
		storeWaiters:  map[memdata.Addr][]func(){},
	}
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

// lineSpans decomposes [a, a+n) into per-line (lineAddr, offset, length).
type lineSpan struct {
	line memdata.Addr
	off  uint64
	n    uint64
}

func lineSpans(a memdata.Addr, n uint64) []lineSpan {
	var out []lineSpan
	for n > 0 {
		line := memdata.LineAlign(a)
		off := memdata.LineOffset(a)
		take := memdata.LineSize - off
		if take > n {
			take = n
		}
		out = append(out, lineSpan{line: line, off: off, n: take})
		a += memdata.Addr(take)
		n -= take
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
	out := make([]byte, 0, n)
	for _, s := range lineSpans(a, n) {
		c.issue()
		c.Stats.Loads++
		sp := c.tr.BeginRoot(txtrace.StageCPULoad, int32(c.ID), uint64(s.line), uint64(c.p.Now()))
		start := c.p.Now()
		var data []byte
		done := false
		c.hier.Read(c.ID, s.line, sp, func(d []byte) {
			c.tr.End(sp, uint64(c.p.Now()))
			data = d
			done = true
			c.complete()
			if c.resumeToken != nil && !*c.resumeToken {
				*c.resumeToken = true
				c.p.Resume()
			}
		})
		for !done {
			tok := false
			c.resumeToken = &tok
			c.p.Suspend()
			c.resumeToken = nil
		}
		c.Stats.DepStall += uint64(c.p.Now() - start)
		out = append(out, data[s.off:s.off+s.n]...)
	}
	return out
}

// LoadAsync issues an independent load of n bytes: the window slot is held
// until the data returns, but the core does not wait for it. Use for
// streaming reads whose values feed no further address computation.
func (c *Core) LoadAsync(a memdata.Addr, n uint64) {
	for _, s := range lineSpans(a, n) {
		c.issue()
		c.Stats.Loads++
		line := s.line
		sp := c.tr.BeginRoot(txtrace.StageCPULoad, int32(c.ID), uint64(line), uint64(c.p.Now()))
		c.hier.Read(c.ID, line, sp, func([]byte) {
			c.tr.End(sp, uint64(c.p.Now()))
			c.complete()
		})
	}
}

// Store writes data at a (posted: the slot is held until the line is owned
// in the L1, but the core proceeds).
func (c *Core) Store(a memdata.Addr, data []byte) {
	for _, s := range lineSpans(a, uint64(len(data))) {
		c.issue()
		c.Stats.Stores++
		chunk := data[:s.n]
		data = data[s.n:]
		line := s.line
		c.pendingStores[line]++
		sp := c.tr.BeginRoot(txtrace.StageCPUStore, int32(c.ID), uint64(line), uint64(c.p.Now()))
		c.hier.Write(c.ID, line, s.off, chunk, sp, func() {
			c.tr.EndFlags(sp, uint64(c.p.Now()), txtrace.FlagWrite)
			c.storeRetired(line)
			c.complete()
		})
	}
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
		line := a + memdata.Addr(i)
		chunk := append([]byte(nil), data[i:i+memdata.LineSize]...)
		sp := c.tr.BeginRoot(txtrace.StageCPUNTStore, int32(c.ID), uint64(line), uint64(c.p.Now()))
		c.hier.WriteLineNT(c.ID, line, chunk, sp, func() {
			c.tr.EndFlags(sp, uint64(c.p.Now()), txtrace.FlagWrite)
			c.complete()
		})
	}
}

// CLWB writes the line containing a back to memory if dirty, keeping it
// cached. Asynchronous: the slot is held until the controller accepts.
func (c *Core) CLWB(a memdata.Addr) {
	c.issue()
	c.Stats.CLWBs++
	c.wbSeq++
	id := c.wbSeq
	c.wbInFlight[id] = struct{}{}
	line := memdata.LineAlign(a)
	sp := c.tr.BeginRoot(txtrace.StageCPUCLWB, int32(c.ID), uint64(line), uint64(c.p.Now()))
	fire := func() {
		c.hier.CLWB(c.ID, line, sp, func() {
			c.tr.End(sp, uint64(c.p.Now()))
			delete(c.wbInFlight, id)
			c.retireWB(id)
			c.complete()
		})
	}
	// Order behind in-flight stores to the same line: CLWB must write back
	// the store's data, not probe an empty cache mid-RFO.
	if c.pendingStores[line] > 0 {
		c.storeWaiters[line] = append(c.storeWaiters[line], fire)
		return
	}
	fire()
}

// retireWB removes a completed writeback from pending barriers, firing any
// that have fully drained.
func (c *Core) retireWB(id uint64) {
	live := c.wbBarriers[:0]
	for _, b := range c.wbBarriers {
		delete(b.waiting, id)
		if len(b.waiting) == 0 {
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
	if len(c.wbInFlight) == 0 {
		fire()
		return
	}
	waiting := make(map[uint64]struct{}, len(c.wbInFlight))
	for id := range c.wbInFlight {
		waiting[id] = struct{}{}
	}
	c.wbBarriers = append(c.wbBarriers, &wbBarrier{waiting: waiting, fire: fire})
}

// MCLazy executes the MCLAZY instruction. dst must be line-aligned with a
// line-multiple size (the §III-C alignment rules); the memcpy_lazy software
// wrapper in internal/softmc removes these constraints for callers.
func (c *Core) MCLazy(dst memdata.Range, src memdata.Addr) {
	if c.lazy == nil {
		panic("cpu: core has no lazy-copy unit")
	}
	c.issue()
	c.Stats.MCLazies++
	sp := c.tr.BeginRoot(txtrace.StageCPUMCLazy, int32(c.ID), uint64(dst.Start), uint64(c.p.Now()))
	// The packet is FIFO-ordered behind this core's earlier writebacks.
	c.afterPriorWritebacks(func() {
		c.lazy.MCLazy(c.ID, dst, src, sp, func() {
			c.tr.End(sp, uint64(c.p.Now()))
			c.complete()
		})
	})
}

// MCFree executes the MCFREE instruction for the buffer r.
func (c *Core) MCFree(r memdata.Range) {
	if c.lazy == nil {
		panic("cpu: core has no lazy-copy unit")
	}
	c.issue()
	c.Stats.MCFrees++
	sp := c.tr.BeginRoot(txtrace.StageCPUMCFree, int32(c.ID), uint64(r.Start), uint64(c.p.Now()))
	c.lazy.MCFree(c.ID, r, sp, func() {
		c.tr.End(sp, uint64(c.p.Now()))
		c.complete()
	})
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

// Memcpy performs an eager byte copy of n bytes from src to dst through
// the cache hierarchy, moving real data. Each destination line is a fused
// load(+load)/store element: loads issue asynchronously (memory-level
// parallelism applies) and the store issues when its source bytes arrive.
// Call Fence to wait for completion; the copied bytes are visible to
// subsequent reads immediately thanks to store forwarding in the caches.
func (c *Core) Memcpy(dst, src memdata.Addr, n uint64) {
	for _, d := range lineSpans(dst, n) {
		// Source bytes feeding this destination span.
		sOff := src + (d.line + memdata.Addr(d.off) - dst)
		spans := lineSpans(sOff, d.n)

		// One window slot per source load plus one for the store.
		type part struct {
			span lineSpan
			data []byte
		}
		parts := make([]part, len(spans))
		for i, s := range spans {
			parts[i] = part{span: s}
		}
		c.issue() // store slot, reserved up front to model the LSQ entry
		c.Stats.Stores++
		remaining := len(spans)
		dstLine, dstOff, dstN := d.line, d.off, d.n
		ssp := c.tr.BeginRoot(txtrace.StageCPUStore, int32(c.ID), uint64(dstLine), uint64(c.p.Now()))
		fire := func() {
			buf := make([]byte, 0, dstN)
			for _, pt := range parts {
				buf = append(buf, pt.data[pt.span.off:pt.span.off+pt.span.n]...)
			}
			c.hier.Write(c.ID, dstLine, dstOff, buf, ssp, func() {
				c.tr.EndFlags(ssp, uint64(c.p.Now()), txtrace.FlagWrite)
				c.complete()
			})
		}
		for i, s := range spans {
			c.issue()
			c.Stats.Loads++
			idx := i
			lsp := c.tr.BeginRoot(txtrace.StageCPULoad, int32(c.ID), uint64(s.line), uint64(c.p.Now()))
			c.hier.Read(c.ID, s.line, lsp, func(data []byte) {
				c.tr.End(lsp, uint64(c.p.Now()))
				parts[idx].data = data
				c.complete()
				remaining--
				if remaining == 0 {
					fire()
				}
			})
		}
	}
}

// ReadBytes is a convenience dependent read returning n bytes from a.
func (c *Core) ReadBytes(a memdata.Addr, n uint64) []byte { return c.Load(a, n) }

// Inflight reports the number of operations currently in the window.
func (c *Core) Inflight() int { return c.inflight }
