// Package memctrl models a memory controller: the agent that owns one DRAM
// channel and marshals every access to it through read and write pending
// queues (RPQ/WPQ) with finite capacity and back-pressure.
//
// The controller exposes a Hook interception point consulted on every
// controller-observed access. The (MC)² lazy-copy engine (internal/core)
// installs itself there; the controller itself knows nothing about lazy
// copies. Raw variants of read/write bypass the hook so the lazy-copy
// engine can access memory without re-triggering itself.
package memctrl

import (
	"fmt"

	"mcsquare/internal/dram"
	"mcsquare/internal/faultinject"
	"mcsquare/internal/invariant"
	"mcsquare/internal/memdata"
	"mcsquare/internal/sim"
	"mcsquare/internal/txtrace"
)

// Hook intercepts controller-observed accesses. Implementations run in
// engine (event) context and must eventually invoke the provided completion
// callback if they claim an access. tx is the access's transaction-trace
// id (0 when untraced); hooks thread it into any spans they record.
type Hook interface {
	// FilterRead is consulted when a cacheline read arrives at the
	// controller. Returning true claims the read: the hook must call done
	// (with the 64-byte line) itself, and the controller takes no action.
	FilterRead(a memdata.Addr, tx txtrace.Tx, done func(data []byte)) bool

	// FilterWrite is consulted when a cacheline write arrives. Returning
	// true claims the write: the hook must complete it (typically after
	// lazy copies) and call release when the writer may proceed.
	FilterWrite(a memdata.Addr, data []byte, tx txtrace.Tx, release func()) bool
}

// Config sizes a controller's queues and policies.
type Config struct {
	RPQCapacity int // outstanding reads
	WPQCapacity int // buffered writes
	// Write drain watermarks: the controller starts draining writes to DRAM
	// when occupancy reaches DrainHigh and stops at DrainLow; it also
	// drains opportunistically when no reads are pending.
	DrainHigh int
	DrainLow  int
	// AcceptLatency models the controller front-end (decode + queue insert).
	AcceptLatency sim.Cycle
}

// DefaultConfig returns queue sizes typical of a DDR4 controller.
func DefaultConfig() Config {
	return Config{
		RPQCapacity:   32,
		WPQCapacity:   64,
		DrainHigh:     48,
		DrainLow:      16,
		AcceptLatency: 4,
	}
}

type pendingWrite struct {
	addr memdata.Addr
	data []byte
	tx   txtrace.Tx // traced writer, for the dram.write span at drain time
}

// Stats holds controller counters.
type Stats struct {
	Reads          uint64
	Writes         uint64
	ReadStalls     uint64 // reads that waited for an RPQ slot
	WriteStalls    uint64 // writes that waited for a WPQ slot
	Forwards       uint64 // reads serviced from the WPQ
	RejectedWrites uint64 // hook-side writebacks refused (WPQ pressure)
	ECCRetries     uint64 // DRAM reads re-issued after a detected bit upset
}

// Controller owns one DRAM channel. All methods must be called in engine
// (event) context.
type Controller struct {
	ID   int
	eng  *sim.Engine
	cfg  Config
	ch   *dram.Channel
	phys *memdata.Physical
	hook Hook
	tr   *txtrace.Tracer

	flt *faultinject.Plane // nil when no fault schedule is active
	inv *invariant.Oracles // nil when invariant oracles are off
	// Queue names for occupancy violations, precomputed so the checks
	// allocate nothing on the hot path.
	rpqName, wpqName string

	rpqUsed     int
	rpqWaiters  sim.FnQueue
	wpqUsed     int
	wpqWaiters  sim.FnQueue
	writeBuf    []pendingWrite          // accepted, not yet issued to DRAM
	wbHead      int                     // writeBuf dequeue index (backing array reused)
	inFlightWr  map[memdata.Addr][]byte // issued to DRAM, not yet landed
	pendingRead int                     // reads currently queued or in DRAM

	Stats Stats
}

// New creates a controller over the given channel and backing store.
func New(id int, eng *sim.Engine, cfg Config, ch *dram.Channel, phys *memdata.Physical) *Controller {
	return &Controller{
		ID:         id,
		eng:        eng,
		cfg:        cfg,
		ch:         ch,
		phys:       phys,
		inFlightWr: make(map[memdata.Addr][]byte),
	}
}

// SetHook installs the access interception hook (nil to remove).
func (c *Controller) SetHook(h Hook) { c.hook = h }

// SetTracer attaches the transaction tracer (nil disables).
func (c *Controller) SetTracer(t *txtrace.Tracer) { c.tr = t }

// SetFaults attaches the machine's fault-injection plane (nil disables).
func (c *Controller) SetFaults(p *faultinject.Plane) { c.flt = p }

// SetInvariants attaches the machine's invariant oracles (nil disables).
func (c *Controller) SetInvariants(o *invariant.Oracles) {
	c.inv = o
	if o.QueuesOn() {
		c.rpqName = fmt.Sprintf("mc%d.rpq", c.ID)
		c.wpqName = fmt.Sprintf("mc%d.wpq", c.ID)
	}
}

// Channel returns the controller's DRAM channel (for stats).
func (c *Controller) Channel() *dram.Channel { return c.ch }

// WPQOccupancy returns the fraction of WPQ slots in use, in [0,1]. A
// controller configured with no WPQ reports 1.0 (full): occupancy feeds
// hook throttling decisions (writeback rejection, free-worker pacing),
// and the old 0/0 NaN compared false everywhere, silently disabling
// throttling exactly when the queue could absorb nothing.
func (c *Controller) WPQOccupancy() float64 {
	if c.cfg.WPQCapacity <= 0 {
		return 1.0
	}
	return float64(c.wpqUsed) / float64(c.cfg.WPQCapacity)
}

// ReadLine requests the 64-byte line at a (line-aligned). The hook is
// consulted first; otherwise the read is queued and done is called with the
// line data when DRAM returns it.
//
// tx is the transaction-trace id (0 when untraced).
func (c *Controller) ReadLine(a memdata.Addr, tx txtrace.Tx, done func(data []byte)) {
	if o := c.inv; o.WatchdogOn() {
		id := o.TxBegin(uint64(a))
		inner := done
		done = func(d []byte) { o.TxEnd(id); inner(d) }
	}
	if c.hook != nil && c.hook.FilterRead(a, tx, done) {
		return
	}
	// CPU-visible read the hook did not claim: check it against the shadow.
	c.rawReadLine(a, tx, done, c.inv.ShadowOn())
}

// RawReadLine is ReadLine without hook interception.
//
// tx is the transaction-trace id (0 when untraced): traced reads record an
// mc.rpq_wait span (zero-length when a slot was free), a dram.read span
// with the row hit/miss outcome, or an mc.wpq_forward span when serviced
// from the write queue.
func (c *Controller) RawReadLine(a memdata.Addr, tx txtrace.Tx, done func(data []byte)) {
	c.rawReadLine(a, tx, done, false)
}

// rawReadLine is the shared read path. check enables the shadow-memory
// comparison: the returned value is bound at the forwarding check (forward
// hits) or at DRAM issue (array reads), and the oracle is consulted with
// that cycle so later legitimate writes don't count as mismatches.
func (c *Controller) rawReadLine(a memdata.Addr, tx txtrace.Tx, done func(data []byte), check bool) {
	c.Stats.Reads++
	// Forward from pending writes: the freshest value may still be queued.
	if d := c.forward(a); d != nil {
		c.Stats.Forwards++
		if check {
			c.inv.CheckRead(a, d, c.eng.Now())
		}
		if tx != 0 {
			now := uint64(c.eng.Now())
			c.tr.Complete(tx, txtrace.StageWPQForward, uint64(a), now, now+uint64(c.cfg.AcceptLatency), 0)
		}
		c.eng.After(c.cfg.AcceptLatency, func() { done(d) })
		return
	}
	rsp := c.tr.Begin(tx, txtrace.StageRPQWait, uint64(a), uint64(c.eng.Now()))
	c.acquireRPQ(func() {
		c.tr.End(rsp, uint64(c.eng.Now()))
		// Re-check forwarding: a write may have been queued while waiting.
		if d := c.forward(a); d != nil {
			c.Stats.Forwards++
			c.releaseRPQ()
			if check {
				c.inv.CheckRead(a, d, c.eng.Now())
			}
			if tx != 0 {
				now := uint64(c.eng.Now())
				c.tr.Complete(tx, txtrace.StageWPQForward, uint64(a), now, now, 0)
			}
			done(d)
			return
		}
		bound := c.eng.Now()
		c.pendingRead++
		rowHits := c.ch.RowHits
		finish := c.ch.Access(c.eng.Now(), a, false)
		if tx != 0 {
			fl := txtrace.FlagRowMiss
			if c.ch.RowHits > rowHits {
				fl = txtrace.FlagRowHit
			}
			c.tr.Complete(tx, txtrace.StageDRAMRead, uint64(a), uint64(c.eng.Now()), uint64(finish), fl)
		}
		c.eng.At(finish, func() {
			data := c.phys.ReadLine(a)
			c.finishRead(a, tx, data, func(d []byte) {
				c.pendingRead--
				c.releaseRPQ()
				if check {
					c.inv.CheckRead(a, d, bound)
				}
				done(d)
				c.maybeDrain()
			})
		})
	})
}

// finishRead completes a DRAM read burst. When the fault plane schedules a
// transient single-bit upset here, the per-line checksum ECC model detects
// the corruption, charges one full re-read of the line (the RPQ slot stays
// held), and delivers the intact data at the retry's finish time.
func (c *Controller) finishRead(a memdata.Addr, tx txtrace.Tx, data []byte, deliver func(data []byte)) {
	if c.flt.Fire(faultinject.KindDRAMCorrupt, uint64(a), uint64(c.eng.Now())) {
		want := dram.LineChecksum(data)
		bad := dram.CorruptBit(data, c.flt.Rand(uint64(len(data))*8))
		if dram.LineChecksum(bad) != want {
			c.Stats.ECCRetries++
			finish := c.ch.Access(c.eng.Now(), a, false)
			if tx != 0 {
				c.tr.Complete(tx, txtrace.StageDRAMRead, uint64(a), uint64(c.eng.Now()), uint64(finish), txtrace.FlagRowHit)
			}
			c.eng.At(finish, func() { deliver(data) })
			return
		}
	}
	deliver(data)
}

// RawReadLineSnapshot is RawReadLine except that the data is captured at
// call time (from the WPQ or memory) while completion is still charged the
// full queue + DRAM latency. The (MC)² engine uses it for bounce and
// lazy-copy source reads, which the controller orders ahead of any write
// that arrives later — guaranteeing as-of-copy data even under queue
// back-pressure.
//
// tx is the transaction-trace id (0 when untraced) (same spans as
// RawReadLine).
func (c *Controller) RawReadLineSnapshot(a memdata.Addr, tx txtrace.Tx, done func(data []byte)) {
	c.Stats.Reads++
	var data []byte
	if d := c.forward(a); d != nil {
		c.Stats.Forwards++
		data = make([]byte, memdata.LineSize)
		copy(data, d)
		if tx != 0 {
			now := uint64(c.eng.Now())
			c.tr.Complete(tx, txtrace.StageWPQForward, uint64(a), now, now+uint64(c.cfg.AcceptLatency), 0)
		}
		c.eng.After(c.cfg.AcceptLatency, func() { done(data) })
		return
	}
	data = c.phys.ReadLine(a)
	rsp := c.tr.Begin(tx, txtrace.StageRPQWait, uint64(a), uint64(c.eng.Now()))
	c.acquireRPQ(func() {
		c.tr.End(rsp, uint64(c.eng.Now()))
		c.pendingRead++
		rowHits := c.ch.RowHits
		finish := c.ch.Access(c.eng.Now(), a, false)
		if tx != 0 {
			fl := txtrace.FlagRowMiss
			if c.ch.RowHits > rowHits {
				fl = txtrace.FlagRowHit
			}
			c.tr.Complete(tx, txtrace.StageDRAMRead, uint64(a), uint64(c.eng.Now()), uint64(finish), fl)
		}
		c.eng.At(finish, func() {
			c.finishRead(a, tx, data, func(d []byte) {
				c.pendingRead--
				c.releaseRPQ()
				done(d)
				c.maybeDrain()
			})
		})
	})
}

// WriteLine posts a full-line write. The hook is consulted first; otherwise
// the write is buffered in the WPQ and release is called once a slot is
// held (posted-write semantics; DRAM completion happens later).
//
// tx is the transaction-trace id (0 when untraced).
func (c *Controller) WriteLine(a memdata.Addr, data []byte, tx txtrace.Tx, release func()) {
	if o := c.inv; o.WatchdogOn() {
		id := o.TxBegin(uint64(a))
		inner := release
		release = func() { o.TxEnd(id); inner() }
	}
	if c.hook != nil && c.hook.FilterWrite(a, data, tx, release) {
		return
	}
	if len(data) != memdata.LineSize {
		panic("memctrl: WriteLine with partial line")
	}
	cp := make([]byte, memdata.LineSize)
	copy(cp, data)
	c.rawWriteLineOwned(a, cp, tx, release, c.inv.ShadowOn())
}

// WriteLineOwned is WriteLine with ownership transfer: the caller hands
// the line buffer over and must not reuse or mutate it afterwards. The
// write paths that already build a private copy (cache writebacks, NT
// stores, CLWB, reconstructed (MC)² lines) use this to skip the
// controller's defensive copy — one 64-byte allocation per write on the
// hottest store path. Hook implementations observe the data during the
// FilterWrite call and must copy anything they keep (they do).
//
// tx is the transaction-trace id (0 when untraced).
func (c *Controller) WriteLineOwned(a memdata.Addr, data []byte, tx txtrace.Tx, release func()) {
	if o := c.inv; o.WatchdogOn() {
		id := o.TxBegin(uint64(a))
		inner := release
		release = func() { o.TxEnd(id); inner() }
	}
	if c.hook != nil && c.hook.FilterWrite(a, data, tx, release) {
		return
	}
	c.rawWriteLineOwned(a, data, tx, release, c.inv.ShadowOn())
}

// RawWriteLine is WriteLine without hook interception.
//
// tx is the transaction-trace id (0 when untraced).
func (c *Controller) RawWriteLine(a memdata.Addr, data []byte, tx txtrace.Tx, release func()) {
	if len(data) != memdata.LineSize {
		panic("memctrl: WriteLine with partial line")
	}
	cp := make([]byte, memdata.LineSize)
	copy(cp, data)
	c.RawWriteLineOwned(a, cp, tx, release)
}

// RawWriteLineOwned is RawWriteLine with ownership transfer (see
// WriteLineOwned). The buffer may still be read through write-forwarding
// until the write lands, which is safe precisely because nobody mutates
// it after the handoff.
//
// tx is the transaction-trace id (0 when untraced): traced writes record an
// mc.wpq_wait span covering the slot wait plus accept latency, and a
// dram.write span when the drain issues the line.
func (c *Controller) RawWriteLineOwned(a memdata.Addr, data []byte, tx txtrace.Tx, release func()) {
	c.rawWriteLineOwned(a, data, tx, release, false)
}

// rawWriteLineOwned is the shared write path. observe replays CPU-visible
// writes into the shadow at WPQ-accept time — the cycle the write becomes
// forwardable, i.e. the first cycle a read can legally return it.
func (c *Controller) rawWriteLineOwned(a memdata.Addr, data []byte, tx txtrace.Tx, release func(), observe bool) {
	if len(data) != memdata.LineSize {
		panic("memctrl: WriteLine with partial line")
	}
	c.Stats.Writes++
	wsp := c.tr.Begin(tx, txtrace.StageWPQWait, uint64(a), uint64(c.eng.Now()))
	c.acquireWPQ(func() {
		c.tr.EndFlags(wsp, uint64(c.eng.Now())+uint64(c.cfg.AcceptLatency), txtrace.FlagWrite)
		if observe {
			c.inv.ObserveWrite(a, data)
		}
		c.writeBuf = append(c.writeBuf, pendingWrite{addr: a, data: data, tx: tx})
		c.eng.After(c.cfg.AcceptLatency, release)
		c.maybeDrain()
	})
}

// TryRawWriteLine behaves like RawWriteLine but refuses (returns false)
// instead of waiting when WPQ occupancy is at or above the given fraction.
// The (MC)² bounce-writeback optimization uses this with the paper's 75 %
// threshold to avoid contending with demand traffic.
func (c *Controller) TryRawWriteLine(a memdata.Addr, data []byte, frac float64) bool {
	if float64(c.wpqUsed) >= frac*float64(c.cfg.WPQCapacity) {
		c.Stats.RejectedWrites++
		return false
	}
	c.RawWriteLine(a, data, 0, func() {})
	return true
}

// forward returns buffered/in-flight write data for a, or nil.
func (c *Controller) forward(a memdata.Addr) []byte {
	// Scan newest-first so the latest write wins.
	for i := len(c.writeBuf) - 1; i >= c.wbHead; i-- {
		if c.writeBuf[i].addr == a {
			return c.writeBuf[i].data
		}
	}
	if d, ok := c.inFlightWr[a]; ok {
		return d
	}
	return nil
}

// buffered reports the writes accepted but not yet issued to DRAM.
func (c *Controller) buffered() int { return len(c.writeBuf) - c.wbHead }

// popWrite dequeues the oldest buffered write, reusing the backing array
// once drained instead of reslicing capacity away.
func (c *Controller) popWrite() pendingWrite {
	w := c.writeBuf[c.wbHead]
	c.writeBuf[c.wbHead] = pendingWrite{}
	c.wbHead++
	if c.wbHead == len(c.writeBuf) {
		c.writeBuf = c.writeBuf[:0]
		c.wbHead = 0
	}
	return w
}

func (c *Controller) acquireRPQ(fn func()) {
	if c.rpqUsed < c.cfg.RPQCapacity {
		c.rpqUsed++
		c.inv.CheckQueue(c.rpqName, c.rpqUsed, c.cfg.RPQCapacity)
		fn()
		return
	}
	c.Stats.ReadStalls++
	c.rpqWaiters.Push(fn)
}

func (c *Controller) releaseRPQ() {
	if c.rpqWaiters.Len() > 0 {
		c.rpqWaiters.Pop()() // slot transfers directly
		return
	}
	c.rpqUsed--
	c.inv.CheckQueue(c.rpqName, c.rpqUsed, c.cfg.RPQCapacity)
}

func (c *Controller) acquireWPQ(fn func()) {
	if c.wpqUsed < c.cfg.WPQCapacity {
		c.wpqUsed++
		c.inv.CheckQueue(c.wpqName, c.wpqUsed, c.cfg.WPQCapacity)
		fn()
		return
	}
	c.Stats.WriteStalls++
	c.wpqWaiters.Push(fn)
}

func (c *Controller) releaseWPQ() {
	if c.wpqWaiters.Len() > 0 {
		c.wpqWaiters.Pop()()
		return
	}
	c.wpqUsed--
	c.inv.CheckQueue(c.wpqName, c.wpqUsed, c.cfg.WPQCapacity)
}

// maybeDrain issues buffered writes to DRAM according to the drain policy:
// drain aggressively above DrainHigh (down to DrainLow), and
// opportunistically when the read path is idle. Eligible writes issue
// back-to-back — the channel's bank/bus model pipelines them, so write
// drains run at burst bandwidth like a real controller's write bursts.
func (c *Controller) maybeDrain() {
	high := c.buffered() >= c.cfg.DrainHigh
	for c.buffered() > 0 {
		idle := c.pendingRead == 0
		if !high && !idle {
			return
		}
		if high && !idle && c.buffered() <= c.cfg.DrainLow {
			return
		}
		w := c.popWrite()
		c.inFlightWr[w.addr] = w.data
		rowHits := c.ch.RowHits
		finish := c.ch.Access(c.eng.Now(), w.addr, true)
		if w.tx != 0 {
			fl := txtrace.FlagWrite | txtrace.FlagRowMiss
			if c.ch.RowHits > rowHits {
				fl = txtrace.FlagWrite | txtrace.FlagRowHit
			}
			c.tr.Complete(w.tx, txtrace.StageDRAMWrite, uint64(w.addr), uint64(c.eng.Now()), uint64(finish), fl)
		}
		c.eng.At(finish, func() {
			c.phys.WriteLine(w.addr, w.data)
			// Only clear the in-flight entry if a newer write to the same
			// address hasn't replaced it.
			if d, ok := c.inFlightWr[w.addr]; ok && &d[0] == &w.data[0] {
				delete(c.inFlightWr, w.addr)
			}
			c.releaseWPQ()
			c.maybeDrain()
		})
	}
}

// PeekLine returns the value a raw read issued now would eventually
// deliver (WPQ forward or backing store), with no timing, stats, or side
// effects. The invariant oracles use it to compute MCFREE-time visible
// values synchronously. The returned slice must not be mutated.
func (c *Controller) PeekLine(a memdata.Addr) []byte {
	if d := c.forward(a); d != nil {
		return d
	}
	return c.phys.ReadLine(a)
}

// ResetStats zeroes the controller's counters without touching queue or
// timing state, mirroring dram.(*Channel).ResetStats. Registry views keep
// pointing at the same fields, so published metrics reset with them.
func (c *Controller) ResetStats() { c.Stats = Stats{} }

// Quiesce reports whether the controller has no queued or in-flight work.
func (c *Controller) Quiesce() bool {
	return c.rpqUsed == 0 && c.wpqUsed == 0 && c.buffered() == 0 && len(c.inFlightWr) == 0
}
