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
//  3. the packet crosses the interconnect and every controller inserts the
//     CTT entry.
package isa

import (
	"mcsquare/internal/cache"
	"mcsquare/internal/core"
	"mcsquare/internal/cpu"
	"mcsquare/internal/interconnect"
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

// Unit dispatches the (MC)² instructions for all cores. It satisfies
// cpu.LazyIssuer.
type Unit struct {
	eng    *sim.Engine
	hier   *cache.Hierarchy
	lazy   *core.Engine
	hopLat sim.Cycle
	nMCs   int
	tr     *txtrace.Tracer

	Stats Stats
}

// SetTracer attaches the transaction tracer (nil disables).
func (u *Unit) SetTracer(t *txtrace.Tracer) { u.tr = t }

var _ cpu.LazyIssuer = (*Unit)(nil)

// New creates the instruction unit. hopLat is the cache-to-controller
// interconnect latency charged to each packet; controllers is the number
// of CTTs the packet broadcast reaches.
func New(eng *sim.Engine, hier *cache.Hierarchy, lazy *core.Engine, hopLat sim.Cycle, controllers int) *Unit {
	if controllers <= 0 {
		controllers = 1
	}
	return &Unit{eng: eng, hier: hier, lazy: lazy, hopLat: hopLat, nMCs: controllers}
}

// bus returns the hierarchy's interconnect: MCLAZY packets travel the same
// link as memory traffic.
func (u *Unit) bus() *interconnect.Bus { return u.hier.Bus() }

// MCLazy implements the MCLAZY instruction. dst must be cacheline-aligned
// with a cacheline-multiple size no larger than a huge page; src may have
// any alignment. done fires when the CTT has accepted the entry.
func (u *Unit) MCLazy(coreID int, dst memdata.Range, src memdata.Addr, tx txtrace.Tx, done func()) {
	u.Stats.MCLazies++
	start := u.eng.Now()
	psp := u.tr.Begin(tx, txtrace.StageISAPacket, uint64(dst.Start), uint64(start))

	u.Stats.DestInvalidated += uint64(u.hier.InvalidateRange(dst))
	srcRange := memdata.Range{Start: src, Size: dst.Size}
	dirty := u.hier.FlushRange(srcRange, psp, func() {
		// The packet is broadcast so every controller inserts the entry
		// (Fig 6 step 3); the shared-table model makes that one logical
		// insert, fired on the first endpoint delivery.
		fired := false
		u.bus().Broadcast(u.nMCs, func(int) {
			if fired {
				return
			}
			fired = true
			u.lazy.MCLazy(dst, src, psp, func() {
				// The acceptance acknowledgment crosses back to the core.
				u.bus().Send(16, psp, func() {
					u.Stats.PacketCycles += uint64(u.eng.Now() - start)
					u.tr.End(psp, uint64(u.eng.Now()))
					done()
				})
			})
		})
	})
	u.Stats.SrcFlushed += uint64(dirty)
}

// MCFree implements the MCFREE instruction: CTT entries whose destination
// lies inside r are dropped. Reads of the freed buffer are undefined until
// it is rewritten, so cached copies may be left in place.
func (u *Unit) MCFree(coreID int, r memdata.Range, tx txtrace.Tx, done func()) {
	u.Stats.MCFrees++
	psp := u.tr.Begin(tx, txtrace.StageISAPacket, uint64(r.Start), uint64(u.eng.Now()))
	fired := false
	u.bus().Broadcast(u.nMCs, func(int) {
		if fired {
			return
		}
		fired = true
		u.lazy.MCFree(r, psp, func() {
			u.tr.End(psp, uint64(u.eng.Now()))
			done()
		})
	})
}
