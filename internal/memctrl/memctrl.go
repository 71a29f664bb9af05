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
//
// Line slices crossing this interface are borrowed: FilterWrite's data is
// valid only during the call, and the slice a hook passes to a read's done
// only until done returns. Whoever keeps bytes copies them.
type Hook interface {
	// FilterRead is consulted when a cacheline read arrives at the
	// controller. Returning true claims the read: the hook must call done
	// (with the 64-byte line) itself, and the controller takes no action.
	// The line passed to done is borrowed: it is valid only until done
	// returns.
	FilterRead(a memdata.Addr, tx txtrace.Tx, done func(data []byte)) bool

	// FilterWrite is consulted when a cacheline write arrives. Returning
	// true claims the write: the hook must complete it (typically after
	// lazy copies) and call release when the writer may proceed. data is
	// borrowed for the duration of the call.
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

// readReq is one line read in flight at the controller, from its arrival
// until done returns. The line lands in the request's own buffer, which
// done borrows. Requests come from a per-controller pool, and their steps
// are method values bound when the request is first allocated, so a read
// allocates nothing once the pool has warmed up.
type readReq struct {
	c        *Controller
	a        memdata.Addr
	tx, rsp  txtrace.Tx
	done     func(data []byte)
	check    bool      // compare with the shadow oracle on delivery
	snapshot bool      // data captured at issue (RawReadLineSnapshot)
	bound    sim.Cycle // cycle the delivered value was bound
	data     [memdata.LineSize]byte

	acquiredFn, finishFn, deliverFn, forwardedFn func()
}

// writeReq is one posted line write, from its acceptance at the front end
// until it lands in the backing store. data is the controller's own copy of
// the line, taken at entry; reads forward from it while the write is
// buffered or in flight. The request returns to the pool only after the
// write has landed and the in-flight identity check has run.
type writeReq struct {
	c       *Controller
	a       memdata.Addr
	tx, wsp txtrace.Tx // tx: traced writer, for the dram.write span at drain time
	release func()
	observe bool // replay into the shadow oracle at WPQ accept
	data    [memdata.LineSize]byte

	acceptFn, landFn func()
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

	rpq, wpq    Slots
	writeBuf    sim.Queue[*writeReq]       // accepted, not yet issued to DRAM
	inFlightWr  map[memdata.Addr]*writeReq // issued to DRAM, not yet landed
	pendingRead int                        // reads currently queued or in DRAM
	readPool    sim.Pool[readReq]          // retired read requests
	writePool   sim.Pool[writeReq]         // retired write requests

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
		rpq:        NewSlots(cfg.RPQCapacity),
		wpq:        NewSlots(cfg.WPQCapacity),
		inFlightWr: make(map[memdata.Addr]*writeReq),
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
		c.rpq.SetInvariants(o, fmt.Sprintf("mc%d.rpq", c.ID))
		c.wpq.SetInvariants(o, fmt.Sprintf("mc%d.wpq", c.ID))
	}
}

// Channel returns the controller's DRAM channel (for stats).
func (c *Controller) Channel() *dram.Channel { return c.ch }

// MemSize returns the size in bytes of the backing store behind the
// controller; line addresses at or past it do not exist.
func (c *Controller) MemSize() uint64 { return c.phys.Size() }

// WPQOccupancy returns the fraction of WPQ slots in use, in [0,1]. A
// controller configured with no WPQ reports 1.0 (full): occupancy feeds
// hook throttling decisions (writeback rejection, free-worker pacing),
// and the old 0/0 NaN compared false everywhere, silently disabling
// throttling exactly when the queue could absorb nothing.
func (c *Controller) WPQOccupancy() float64 {
	if c.cfg.WPQCapacity <= 0 {
		return 1.0
	}
	return float64(c.wpq.Used()) / float64(c.cfg.WPQCapacity)
}

// nop is the completion of writes nobody waits for.
func nop() {}

func (c *Controller) newRead(a memdata.Addr, tx txtrace.Tx, done func([]byte)) *readReq {
	r, fresh := c.readPool.Get()
	if fresh {
		r.c = c
		r.acquiredFn = r.acquired
		r.finishFn = r.finish
		r.deliverFn = r.deliver
		r.forwardedFn = r.forwarded
	}
	r.a, r.tx, r.rsp, r.done = a, tx, 0, done
	r.check, r.snapshot = false, false
	return r
}

func (c *Controller) putRead(r *readReq) {
	r.done = nil
	c.readPool.Put(r)
}

// ReadLine requests the 64-byte line at a (line-aligned). The hook is
// consulted first; otherwise the read is queued and done is called with the
// line data when DRAM returns it. The line is borrowed: it is valid only
// until done returns, so done copies whatever it keeps.
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

// RawReadLine is ReadLine without hook interception. The line passed to
// done is borrowed: it is valid only until done returns.
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
	r := c.newRead(a, tx, done)
	r.check = check
	// Forward from pending writes: the freshest value may still be queued.
	if c.forwardAtIssue(r) {
		return
	}
	r.rsp = c.tr.Begin(tx, txtrace.StageRPQWait, uint64(a), uint64(c.eng.Now()))
	if c.rpq.Acquire(r.acquiredFn) {
		c.Stats.ReadStalls++
	}
}

// forwardAtIssue serves r from a pending write to its line, if there is
// one, delivering after the front-end latency. The value is bound now.
func (c *Controller) forwardAtIssue(r *readReq) bool {
	d := c.forward(r.a)
	if d == nil {
		return false
	}
	c.Stats.Forwards++
	copy(r.data[:], d)
	if r.check {
		c.inv.CheckRead(r.a, r.data[:], c.eng.Now())
	}
	if r.tx != 0 {
		now := uint64(c.eng.Now())
		c.tr.Complete(r.tx, txtrace.StageWPQForward, uint64(r.a), now, now+uint64(c.cfg.AcceptLatency), 0)
	}
	c.eng.After(c.cfg.AcceptLatency, r.forwardedFn)
	return true
}

func (r *readReq) forwarded() {
	r.done(r.data[:])
	r.c.putRead(r)
}

// acquired runs once the read holds an RPQ slot.
func (r *readReq) acquired() {
	c := r.c
	c.tr.End(r.rsp, uint64(c.eng.Now()))
	// Re-check forwarding: a write may have been queued while waiting. A
	// snapshot read captured its data at issue and is ordered before it.
	if !r.snapshot {
		if d := c.forward(r.a); d != nil {
			c.Stats.Forwards++
			copy(r.data[:], d)
			c.rpq.Release()
			if r.check {
				c.inv.CheckRead(r.a, r.data[:], c.eng.Now())
			}
			if r.tx != 0 {
				now := uint64(c.eng.Now())
				c.tr.Complete(r.tx, txtrace.StageWPQForward, uint64(r.a), now, now, 0)
			}
			r.done(r.data[:])
			c.putRead(r)
			return
		}
	}
	r.bound = c.eng.Now()
	c.pendingRead++
	rowHits := c.ch.RowHits
	finish := c.ch.Access(c.eng.Now(), r.a, false)
	if r.tx != 0 {
		fl := txtrace.FlagRowMiss
		if c.ch.RowHits > rowHits {
			fl = txtrace.FlagRowHit
		}
		c.tr.Complete(r.tx, txtrace.StageDRAMRead, uint64(r.a), uint64(c.eng.Now()), uint64(finish), fl)
	}
	c.eng.At(finish, r.finishFn)
}

// finish completes the DRAM read burst. When the fault plane schedules a
// transient single-bit upset here, the per-line checksum ECC model detects
// the corruption, charges one full re-read of the line (the RPQ slot stays
// held), and delivers the intact data at the retry's finish time.
func (r *readReq) finish() {
	c := r.c
	if !r.snapshot {
		c.phys.ReadInto(r.a, r.data[:])
	}
	if c.flt.Fire(faultinject.KindDRAMCorrupt, uint64(r.a), uint64(c.eng.Now())) {
		want := dram.LineChecksum(r.data[:])
		bad := dram.CorruptBit(r.data[:], c.flt.Rand(memdata.LineSize*8))
		if dram.LineChecksum(bad) != want {
			c.Stats.ECCRetries++
			finish := c.ch.Access(c.eng.Now(), r.a, false)
			if r.tx != 0 {
				c.tr.Complete(r.tx, txtrace.StageDRAMRead, uint64(r.a), uint64(c.eng.Now()), uint64(finish), txtrace.FlagRowHit)
			}
			c.eng.At(finish, r.deliverFn)
			return
		}
	}
	r.deliver()
}

// deliver hands the line read from DRAM to the requester and frees the
// request's RPQ slot.
func (r *readReq) deliver() {
	c := r.c
	c.pendingRead--
	c.rpq.Release()
	if r.check {
		c.inv.CheckRead(r.a, r.data[:], r.bound)
	}
	r.done(r.data[:])
	c.maybeDrain()
	c.putRead(r)
}

// RawReadLineSnapshot is RawReadLine except that the data is captured at
// call time (from the WPQ or memory) while completion is still charged the
// full queue + DRAM latency. The (MC)² engine uses it for bounce and
// lazy-copy source reads, which the controller orders ahead of any write
// that arrives later — guaranteeing as-of-copy data even under queue
// back-pressure. The line passed to done is borrowed: it is valid only
// until done returns.
//
// tx is the transaction-trace id (0 when untraced) (same spans as
// RawReadLine).
func (c *Controller) RawReadLineSnapshot(a memdata.Addr, tx txtrace.Tx, done func(data []byte)) {
	c.Stats.Reads++
	r := c.newRead(a, tx, done)
	r.snapshot = true
	if c.forwardAtIssue(r) {
		return
	}
	c.phys.ReadInto(a, r.data[:])
	r.rsp = c.tr.Begin(tx, txtrace.StageRPQWait, uint64(a), uint64(c.eng.Now()))
	if c.rpq.Acquire(r.acquiredFn) {
		c.Stats.ReadStalls++
	}
}

// WriteLine posts a full-line write. The hook is consulted first; otherwise
// the write is buffered in the WPQ and release is called once a slot is
// held (posted-write semantics; DRAM completion happens later). data is
// borrowed for the call: the controller copies the line at entry, so the
// caller may reuse its buffer as soon as WriteLine returns.
//
// tx is the transaction-trace id (0 when untraced).
func (c *Controller) WriteLine(a memdata.Addr, data []byte, tx txtrace.Tx, release func()) {
	// Checked before the hook sees the line: a short line merged into a
	// held write, or held itself, would fail far from its cause.
	if len(data) != memdata.LineSize {
		panic("memctrl: WriteLine with partial line")
	}
	if o := c.inv; o.WatchdogOn() {
		id := o.TxBegin(uint64(a))
		inner := release
		release = func() { o.TxEnd(id); inner() }
	}
	if c.hook != nil && c.hook.FilterWrite(a, data, tx, release) {
		return
	}
	c.rawWriteLine(a, data, tx, release, c.inv.ShadowOn())
}

// RawWriteLine is WriteLine without hook interception. Like WriteLine it
// copies the line at entry.
//
// tx is the transaction-trace id (0 when untraced): traced writes record an
// mc.wpq_wait span covering the slot wait plus accept latency, and a
// dram.write span when the drain issues the line.
func (c *Controller) RawWriteLine(a memdata.Addr, data []byte, tx txtrace.Tx, release func()) {
	if len(data) != memdata.LineSize {
		panic("memctrl: WriteLine with partial line")
	}
	c.rawWriteLine(a, data, tx, release, false)
}

// rawWriteLine is the shared write path. observe replays CPU-visible
// writes into the shadow at WPQ-accept time — the cycle the write becomes
// forwardable, i.e. the first cycle a read can legally return it.
func (c *Controller) rawWriteLine(a memdata.Addr, data []byte, tx txtrace.Tx, release func(), observe bool) {
	c.Stats.Writes++
	w, fresh := c.writePool.Get()
	if fresh {
		w.c = c
		w.acceptFn = w.accept
		w.landFn = w.land
	}
	w.a, w.tx, w.release, w.observe = a, tx, release, observe
	copy(w.data[:], data)
	w.wsp = c.tr.Begin(tx, txtrace.StageWPQWait, uint64(a), uint64(c.eng.Now()))
	if c.wpq.Acquire(w.acceptFn) {
		c.Stats.WriteStalls++
	}
}

// accept runs once the write holds a WPQ slot: from here on reads
// forward from it.
func (w *writeReq) accept() {
	c := w.c
	c.tr.EndFlags(w.wsp, uint64(c.eng.Now())+uint64(c.cfg.AcceptLatency), txtrace.FlagWrite)
	if w.observe {
		c.inv.ObserveWrite(w.a, w.data[:])
	}
	c.writeBuf.Push(w)
	c.eng.After(c.cfg.AcceptLatency, w.release)
	w.release = nil
	c.maybeDrain()
}

// TryRawWriteLine behaves like RawWriteLine but refuses (returns false)
// instead of waiting when WPQ occupancy is at or above the given fraction.
// The (MC)² bounce-writeback optimization uses this with the paper's 75 %
// threshold to avoid contending with demand traffic.
func (c *Controller) TryRawWriteLine(a memdata.Addr, data []byte, frac float64) bool {
	if float64(c.wpq.Used()) >= frac*float64(c.cfg.WPQCapacity) {
		c.Stats.RejectedWrites++
		return false
	}
	c.RawWriteLine(a, data, 0, nop)
	return true
}

// forward returns buffered/in-flight write data for a, or nil. The slice
// is the pending write's own buffer: callers copy what they keep.
func (c *Controller) forward(a memdata.Addr) []byte {
	// Scan newest-first so the latest write wins.
	buf := c.writeBuf.Waiting()
	for i := len(buf) - 1; i >= 0; i-- {
		if buf[i].a == a {
			return buf[i].data[:]
		}
	}
	if w, ok := c.inFlightWr[a]; ok {
		return w.data[:]
	}
	return nil
}

// maybeDrain issues buffered writes to DRAM according to the drain policy:
// drain aggressively above DrainHigh (down to DrainLow), and
// opportunistically when the read path is idle. Eligible writes issue
// back-to-back — the channel's bank/bus model pipelines them, so write
// drains run at burst bandwidth like a real controller's write bursts.
func (c *Controller) maybeDrain() {
	high := c.writeBuf.Len() >= c.cfg.DrainHigh
	for c.writeBuf.Len() > 0 {
		idle := c.pendingRead == 0
		if !high && !idle {
			return
		}
		if high && !idle && c.writeBuf.Len() <= c.cfg.DrainLow {
			return
		}
		w := c.writeBuf.Pop()
		c.inFlightWr[w.a] = w
		rowHits := c.ch.RowHits
		finish := c.ch.Access(c.eng.Now(), w.a, true)
		if w.tx != 0 {
			fl := txtrace.FlagWrite | txtrace.FlagRowMiss
			if c.ch.RowHits > rowHits {
				fl = txtrace.FlagWrite | txtrace.FlagRowHit
			}
			c.tr.Complete(w.tx, txtrace.StageDRAMWrite, uint64(w.a), uint64(c.eng.Now()), uint64(finish), fl)
		}
		c.eng.At(finish, w.landFn)
	}
}

// land stores the drained write in the backing store and retires it.
func (w *writeReq) land() {
	c := w.c
	c.phys.WriteLine(w.a, w.data[:])
	// Only clear the in-flight entry if a newer write to the same address
	// hasn't replaced it.
	if c.inFlightWr[w.a] == w {
		delete(c.inFlightWr, w.a)
	}
	c.writePool.Put(w)
	c.wpq.Release()
	c.maybeDrain()
}

// PeekLine returns the value a raw read issued now would eventually
// deliver (WPQ forward or backing store), with no timing, stats, or side
// effects. The invariant oracles use it to compute MCFREE-time visible
// values synchronously. The returned slice must not be mutated, and a
// forwarded one is valid only until the current event returns.
func (c *Controller) PeekLine(a memdata.Addr) []byte {
	if d := c.forward(a); d != nil {
		return d
	}
	return c.phys.ReadLine(a)
}

// Quiesce reports whether the controller has no queued or in-flight work.
func (c *Controller) Quiesce() bool {
	return c.rpq.Used() == 0 && c.wpq.Used() == 0 && c.writeBuf.Len() == 0 && len(c.inFlightWr) == 0
}
