// Package isa implements the two instructions (MC)² adds to the CPU
// (§III-C): MCLAZY, which registers a prospective copy, and MCFREE, which
// hints that a buffer is dead.
//
// MCLAZY's architectural side effects happen here, in order:
//  1. destination cachelines are invalidated from every cache (their
//     contents are about to be redefined by the lazy copy);
//  2. any still-dirty source cachelines are written back (the software
//     wrapper already issued CLWBs; this sweep is the hardware guarantee
//     that MC-observed memory holds the source as-of-copy). The caches'
//     FIFO write path delivers these writebacks before the packet;
//  3. the packet crosses the interconnect and the controllers insert the
//     CTT entry;
//  4. the acceptance acknowledgment crosses back to the core.
package isa

import (
	"mcsquare/internal/cache"
	"mcsquare/internal/core"
	"mcsquare/internal/memdata"
	"mcsquare/internal/sim"
	"mcsquare/internal/txtrace"
)

// Stats counts instruction activity.
type Stats struct {
	MCLazies        uint64
	MCFrees         uint64
	DestInvalidated uint64 // destination lines found cached and dropped
	SrcFlushed      uint64 // source lines still dirty at MCLAZY (wrapper missed them)
	PacketCycles    uint64 // total cycles from issue to CTT acceptance
}

// Unit dispatches the (MC)² instructions for all cores.
type Unit struct {
	eng  *sim.Engine
	hier *cache.Hierarchy
	lazy *core.Engine
	tr   *txtrace.Tracer

	pool sim.Pool[packet]

	Stats Stats
}

// SetTracer attaches the transaction tracer (nil disables).
func (u *Unit) SetTracer(t *txtrace.Tracer) { u.tr = t }

// New creates the instruction unit. Packets travel the hierarchy's
// interconnect, the same link as memory traffic.
func New(eng *sim.Engine, hier *cache.Hierarchy, lazy *core.Engine) *Unit {
	return &Unit{eng: eng, hier: hier, lazy: lazy}
}

// packet is one MCLAZY or MCFREE, from issue until the core is told it is
// done. Packets come from the unit's pool and their steps are method
// values bound when the packet is first allocated.
type packet struct {
	u       *Unit
	dst     memdata.Range // the copy's destination, or the freed buffer
	src     memdata.Addr
	start   sim.Cycle
	sp      txtrace.Tx
	flushes int // FlushRange completions still to come
	done    func()

	flushedFn, deliverLazyFn, acceptedFn, ackedFn, deliverFreeFn, finishFn func()
}

func (u *Unit) newPacket(dst memdata.Range, tx txtrace.Tx, done func()) *packet {
	p, fresh := u.pool.Get()
	if fresh {
		p.u = u
		p.flushedFn = p.flushed
		p.deliverLazyFn = p.deliverLazy
		p.acceptedFn = p.accepted
		p.ackedFn = p.acked
		p.deliverFreeFn = p.deliverFree
		p.finishFn = p.finish
	}
	p.dst, p.done, p.start = dst, done, u.eng.Now()
	p.sp = u.tr.Begin(tx, txtrace.StageISAPacket, uint64(dst.Start), uint64(p.start))
	return p
}

// finish closes the packet's span, recycles it and tells the core.
func (p *packet) finish() {
	u, done := p.u, p.done
	u.tr.End(p.sp, uint64(u.eng.Now()))
	p.done = nil
	u.pool.Put(p)
	done()
}

// MCLazy implements the MCLAZY instruction. dst must be cacheline-aligned
// with a cacheline-multiple size no larger than a huge page; src may have
// any alignment. done fires when the acknowledgment of the CTT's
// acceptance is back at the core.
func (u *Unit) MCLazy(dst memdata.Range, src memdata.Addr, tx txtrace.Tx, done func()) {
	u.Stats.MCLazies++
	p := u.newPacket(dst, tx, done)
	p.src = src
	u.Stats.DestInvalidated += uint64(u.hier.InvalidateRange(dst))
	dirty := u.hier.FlushRange(memdata.Range{Start: src, Size: dst.Size}, p.sp, p.flushedFn)
	u.Stats.SrcFlushed += uint64(dirty)
	p.flushes = dirty + 1
}

// flushed counts one FlushRange completion; the packet leaves once the
// source's writebacks are accepted and the probe is done.
func (p *packet) flushed() {
	p.flushes--
	if p.flushes == 0 {
		p.u.hier.Bus().Broadcast(p.deliverLazyFn)
	}
}

func (p *packet) deliverLazy() { p.u.lazy.MCLazy(p.dst, p.src, p.sp, p.acceptedFn) }

// accepted sends the CTT's acknowledgment back across the interconnect.
func (p *packet) accepted() { p.u.hier.Bus().Send(16, p.sp, p.ackedFn) }

func (p *packet) acked() {
	u := p.u
	u.Stats.PacketCycles += uint64(u.eng.Now() - p.start)
	p.finish()
}

// MCFree implements the MCFREE instruction: CTT entries whose destination
// lies inside r are dropped. Reads of the freed buffer are undefined until
// it is rewritten, so cached copies may be left in place.
func (u *Unit) MCFree(r memdata.Range, tx txtrace.Tx, done func()) {
	u.Stats.MCFrees++
	p := u.newPacket(r, tx, done)
	u.hier.Bus().Broadcast(p.deliverFreeFn)
}

func (p *packet) deliverFree() { p.u.lazy.MCFree(p.dst, p.sp, p.finishFn) }
