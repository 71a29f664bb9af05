// Package cache models the simulated machine's cache hierarchy: per-core
// private L1s and a shared, inclusive L2, with MSI-lite coherence (the L2
// tracks which L1s hold each line and which one holds it dirty), per-core
// MSHRs that bound memory-level parallelism, and a stride prefetcher.
//
// Lines carry real data: a read returns the freshest bytes wherever they
// live (dirty L1, dirty L2, the controller's write queue, or DRAM), which
// lets the (MC)² equivalence tests run end-to-end through the full stack.
package cache

import (
	"fmt"

	"mcsquare/internal/interconnect"
	"mcsquare/internal/invariant"
	"mcsquare/internal/memctrl"
	"mcsquare/internal/memdata"
	"mcsquare/internal/sim"
	"mcsquare/internal/txtrace"
)

// Config sizes the hierarchy. Latencies are in CPU cycles.
type Config struct {
	Cores int

	L1Size int // bytes per core
	L1Ways int
	L2Size int // bytes, shared
	L2Ways int

	L1Latency    sim.Cycle
	L2Latency    sim.Cycle
	XConLat      sim.Cycle // cache <-> memory controller interconnect hop
	MSHRsPerCore int       // outstanding demand misses per core

	Prefetch PrefetchConfig
}

// PrefetchConfig tunes the per-core stride prefetcher.
type PrefetchConfig struct {
	Enabled     bool
	Degree      int // prefetches issued per trigger
	Distance    int // how many strides ahead the window starts
	MaxInflight int // global cap on outstanding prefetches
}

// DefaultConfig mirrors the paper's Table I: 64 KB private L1s and a 2 MB
// shared L2, both with stride prefetchers, for up to 8 cores.
func DefaultConfig(cores int) Config {
	return Config{
		Cores:        cores,
		L1Size:       64 << 10,
		L1Ways:       8,
		L2Size:       2 << 20,
		L2Ways:       16,
		L1Latency:    4,
		L2Latency:    40,
		XConLat:      24,
		MSHRsPerCore: 10,
		Prefetch: PrefetchConfig{
			Enabled:     true,
			Degree:      4,
			Distance:    4,
			MaxInflight: 16,
		},
	}
}

type cacheLine struct {
	tag    memdata.Addr // line address
	valid  bool
	dirty  bool
	data   []byte
	lru    uint64
	shared uint32 // L2 only: bitmask of L1s holding the line
	owner  int8   // L2 only: core whose L1 holds it dirty, or -1
}

// array is one set-associative cache array.
type array struct {
	sets    int
	ways    int
	lines   [][]cacheLine
	lruTick uint64
}

func newArray(size, ways int) *array {
	sets := size / memdata.LineSize / ways
	if sets == 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d must be a positive power of two", sets))
	}
	a := &array{sets: sets, ways: ways, lines: make([][]cacheLine, sets)}
	for i := range a.lines {
		a.lines[i] = make([]cacheLine, ways)
		for w := range a.lines[i] {
			a.lines[i][w].owner = -1
			a.lines[i][w].data = make([]byte, memdata.LineSize)
		}
	}
	return a
}

func (a *array) set(line memdata.Addr) []cacheLine {
	return a.lines[(uint64(line)>>memdata.LineShift)%uint64(a.sets)]
}

func (a *array) lookup(line memdata.Addr) *cacheLine {
	for i := range a.set(line) {
		cl := &a.set(line)[i]
		if cl.valid && cl.tag == line {
			return cl
		}
	}
	return nil
}

func (a *array) touch(cl *cacheLine) {
	a.lruTick++
	cl.lru = a.lruTick
}

// victim returns the line to evict for a fill of `line`: an invalid way if
// any, else the least recently used.
func (a *array) victim(line memdata.Addr) *cacheLine {
	set := a.set(line)
	var v *cacheLine
	for i := range set {
		cl := &set[i]
		if !cl.valid {
			return cl
		}
		if v == nil || cl.lru < v.lru {
			v = cl
		}
	}
	return v
}

// Stats counts hierarchy activity.
type Stats struct {
	L1Hits, L1Misses    uint64
	L2Hits, L2Misses    uint64
	L1Evictions         uint64
	L2Evictions         uint64
	L2Writebacks        uint64 // dirty L2 evictions sent to memory
	CrossCorePulls      uint64 // dirty line fetched from another core's L1
	MSHRStalls          uint64 // misses deferred on a full MSHR file
	CLWBs               uint64
	CLWBDirty           uint64 // CLWBs that actually wrote data back
	NTStores            uint64
	Invalidations       uint64 // lines dropped by InvalidateRange
	FlushedLines        uint64 // dirty lines written back by FlushRange
	PrefetchesIssued    uint64
	PrefetchesDuplicate uint64 // suppressed: line already present or in flight
	CancelledFills      uint64 // in-flight fills dropped by an invalidation
}

type mshr struct {
	waiters []func(data []byte)
	// cancelled marks the fill stale: an invalidation (MCLAZY destination
	// sweep, NT store) arrived while the miss was in flight. Waiters still
	// receive the data — their access is ordered before the invalidation —
	// but the line must not be installed in any cache.
	cancelled bool
}

// Hierarchy is the full cache system for all cores.
type Hierarchy struct {
	eng   *sim.Engine
	cfg   Config
	l1s   []*array
	l2    *array
	route func(memdata.Addr) *memctrl.Controller
	bus   *interconnect.Bus // cache <-> controller link
	tr    *txtrace.Tracer
	inv   *invariant.Oracles
	// Per-core MSHR file names for occupancy violations, precomputed so
	// the checks allocate nothing.
	mshrNames []string

	mshrs      []map[memdata.Addr]*mshr // per core, demand misses
	mshrUsed   []int
	mshrQueue  []sim.FnQueue // deferred misses per core
	mshrPool   []*mshr       // retired mshr entries for reuse (waiter slices keep capacity)
	pfInflight int
	pfPending  map[memdata.Addr]*pfFlight // prefetches in flight (dedup + cancel)
	pf         []*stridePF

	Stats Stats
}

// New builds the hierarchy; route maps a line address to its controller.
// The cache-to-controller link is a latency-only bus; use NewWithBus to
// share a bandwidth-constrained interconnect.
func New(eng *sim.Engine, cfg Config, route func(memdata.Addr) *memctrl.Controller) *Hierarchy {
	return NewWithBus(eng, cfg, route,
		interconnect.New(eng, interconnect.Config{HopLatency: cfg.XConLat}))
}

// NewWithBus builds the hierarchy over an explicit interconnect.
func NewWithBus(eng *sim.Engine, cfg Config, route func(memdata.Addr) *memctrl.Controller,
	bus *interconnect.Bus) *Hierarchy {
	h := &Hierarchy{
		eng:       eng,
		cfg:       cfg,
		l2:        newArray(cfg.L2Size, cfg.L2Ways),
		route:     route,
		bus:       bus,
		pfPending: map[memdata.Addr]*pfFlight{},
	}
	for i := 0; i < cfg.Cores; i++ {
		h.l1s = append(h.l1s, newArray(cfg.L1Size, cfg.L1Ways))
		h.mshrs = append(h.mshrs, map[memdata.Addr]*mshr{})
		h.mshrUsed = append(h.mshrUsed, 0)
		h.mshrQueue = append(h.mshrQueue, sim.FnQueue{})
		h.pf = append(h.pf, &stridePF{})
	}
	return h
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// Bus returns the cache-to-controller interconnect (stats, studies).
func (h *Hierarchy) Bus() *interconnect.Bus { return h.bus }

// SetTracer attaches the transaction tracer (nil disables).
func (h *Hierarchy) SetTracer(t *txtrace.Tracer) { h.tr = t }

// SetInvariants attaches the machine's invariant oracles (nil disables).
func (h *Hierarchy) SetInvariants(o *invariant.Oracles) {
	h.inv = o
	if o.QueuesOn() {
		h.mshrNames = make([]string, h.cfg.Cores)
		for i := range h.mshrNames {
			h.mshrNames[i] = fmt.Sprintf("core%d.mshr", i)
		}
	}
}

func checkLine(a memdata.Addr) {
	if !memdata.IsLineAligned(a) {
		panic(fmt.Sprintf("cache: unaligned line address %#x", a))
	}
}

// ---------------------------------------------------------------------------
// Read path
// ---------------------------------------------------------------------------

// Read fetches the full line at a for the given core. done receives a copy
// of the line's current data.
//
// tx is the transaction-trace id (0 when untraced): traced reads record an
// l1.hit span, or an l1.miss span under which the L2/memory legs nest.
func (h *Hierarchy) Read(core int, a memdata.Addr, tx txtrace.Tx, done func(data []byte)) {
	checkLine(a)
	l1 := h.l1s[core]
	if cl := l1.lookup(a); cl != nil {
		h.Stats.L1Hits++
		if tx != 0 {
			now := uint64(h.eng.Now())
			h.tr.Complete(tx, txtrace.StageL1Hit, uint64(a), now, now+uint64(h.cfg.L1Latency), 0)
		}
		l1.touch(cl)
		data := append([]byte(nil), cl.data...)
		h.eng.After(h.cfg.L1Latency, func() { done(data) })
		return
	}
	h.Stats.L1Misses++
	h.trainPrefetcher(core, a)
	sp := h.tr.Begin(tx, txtrace.StageL1Miss, uint64(a), uint64(h.eng.Now()))
	if sp != 0 {
		inner := done
		done = func(data []byte) {
			h.tr.End(sp, uint64(h.eng.Now()))
			inner(data)
		}
	}
	h.missToL2(core, a, sp, done)
}

// getMSHR returns a recycled mshr entry (waiter slice capacity retained)
// or a fresh one; putMSHR returns it once its fill completes. Misses are
// the steady-state churn of every workload, so this keeps the miss path
// free of per-access allocations after warmup.
func (h *Hierarchy) getMSHR(done func(data []byte)) *mshr {
	if n := len(h.mshrPool); n > 0 {
		m := h.mshrPool[n-1]
		h.mshrPool = h.mshrPool[:n-1]
		m.cancelled = false
		m.waiters = append(m.waiters, done)
		return m
	}
	return &mshr{waiters: []func([]byte){done}}
}

func (h *Hierarchy) putMSHR(m *mshr) {
	for i := range m.waiters {
		m.waiters[i] = nil
	}
	m.waiters = m.waiters[:0]
	h.mshrPool = append(h.mshrPool, m)
}

// missToL2 handles an L1 miss, merging concurrent misses to the same line
// in the core's MSHR file and bounding outstanding misses.
func (h *Hierarchy) missToL2(core int, a memdata.Addr, tx txtrace.Tx, done func(data []byte)) {
	if m, ok := h.mshrs[core][a]; ok {
		m.waiters = append(m.waiters, done)
		return
	}
	if h.mshrUsed[core] >= h.cfg.MSHRsPerCore {
		h.Stats.MSHRStalls++
		start := uint64(h.eng.Now())
		h.mshrQueue[core].Push(func() {
			if tx != 0 {
				h.tr.Complete(tx, txtrace.StageMSHRWait, uint64(a), start, uint64(h.eng.Now()), 0)
			}
			h.missToL2(core, a, tx, done)
		})
		return
	}
	h.mshrUsed[core]++
	if h.inv.QueuesOn() {
		h.inv.CheckQueue(h.mshrNames[core], h.mshrUsed[core], h.cfg.MSHRsPerCore)
	}
	m := h.getMSHR(done)
	h.mshrs[core][a] = m

	h.eng.After(h.cfg.L1Latency+h.cfg.L2Latency, func() {
		h.l2Access(core, a, tx, m, func(data []byte) {
			if !m.cancelled {
				h.fillL1(core, a, data, false)
			}
			delete(h.mshrs[core], a)
			h.mshrUsed[core]--
			if h.inv.QueuesOn() {
				h.inv.CheckQueue(h.mshrNames[core], h.mshrUsed[core], h.cfg.MSHRsPerCore)
			}
			for _, w := range m.waiters {
				w(append([]byte(nil), data...))
			}
			if h.mshrQueue[core].Len() > 0 {
				h.mshrQueue[core].Pop()()
			}
			// m is unreferenced from here: the map entry is gone and the
			// waiters have run. Recycle it.
			h.putMSHR(m)
		})
	})
}

// l2Access resolves a line at the L2 level: hit (pulling a dirty copy from
// another L1 if needed) or miss to the memory controller. m carries the
// cancellation flag checked before installing the line.
func (h *Hierarchy) l2Access(core int, a memdata.Addr, tx txtrace.Tx, m *mshr, done func(data []byte)) {
	if cl := h.l2.lookup(a); cl != nil {
		h.Stats.L2Hits++
		h.l2.touch(cl)
		if cl.owner >= 0 && int(cl.owner) != core {
			// Another core's L1 holds the dirty copy: pull it into L2.
			h.Stats.CrossCorePulls++
			h.pullDirty(cl)
			if tx != 0 {
				now := uint64(h.eng.Now())
				h.tr.Complete(tx, txtrace.StageL2Hit, uint64(a), now, now+uint64(h.cfg.L1Latency), 0)
			}
			h.eng.After(h.cfg.L1Latency, func() { done(append([]byte(nil), cl.data...)) })
			return
		}
		if tx != 0 {
			now := uint64(h.eng.Now())
			h.tr.Complete(tx, txtrace.StageL2Hit, uint64(a), now, now, 0)
		}
		done(append([]byte(nil), cl.data...))
		return
	}
	h.Stats.L2Misses++
	sp := h.tr.Begin(tx, txtrace.StageL2Miss, uint64(a), uint64(h.eng.Now()))
	mc := h.route(a)
	h.bus.Send(memdata.LineSize, sp, func() {
		mc.ReadLine(a, sp, func(data []byte) {
			h.bus.Send(memdata.LineSize, sp, func() {
				if !m.cancelled {
					h.fillL2(a, data, false)
				}
				h.tr.End(sp, uint64(h.eng.Now()))
				done(data)
			})
		})
	})
}

// pullDirty copies the owner L1's dirty data into the L2 line and marks the
// L1 copy clean (ownership returns to the L2).
func (h *Hierarchy) pullDirty(l2cl *cacheLine) {
	ownerL1 := h.l1s[l2cl.owner]
	if cl := ownerL1.lookup(l2cl.tag); cl != nil && cl.dirty {
		copy(l2cl.data, cl.data)
		cl.dirty = false
	}
	l2cl.dirty = true
	l2cl.owner = -1
}

// ---------------------------------------------------------------------------
// Fills and evictions
// ---------------------------------------------------------------------------

func (h *Hierarchy) fillL1(core int, a memdata.Addr, data []byte, dirty bool) {
	l1 := h.l1s[core]
	cl := l1.lookup(a)
	if cl == nil {
		cl = l1.victim(a)
		if cl.valid {
			h.evictL1(core, cl)
		}
		cl.tag = a
		cl.valid = true
		cl.dirty = false
	}
	copy(cl.data, data)
	if dirty {
		cl.dirty = true
	}
	l1.touch(cl)
	if l2cl := h.l2.lookup(a); l2cl != nil {
		l2cl.shared |= 1 << uint(core)
		if dirty {
			l2cl.owner = int8(core)
		}
	}
}

func (h *Hierarchy) evictL1(core int, cl *cacheLine) {
	h.Stats.L1Evictions++
	l2cl := h.l2.lookup(cl.tag)
	if cl.dirty {
		if l2cl == nil {
			// Inclusive L2 lost the line (should not happen): write through.
			h.writebackToMemory(cl.tag, cl.data)
		} else {
			copy(l2cl.data, cl.data)
			l2cl.dirty = true
		}
	}
	if l2cl != nil {
		l2cl.shared &^= 1 << uint(core)
		if l2cl.owner == int8(core) {
			l2cl.owner = -1
		}
	}
	cl.valid = false
}

func (h *Hierarchy) fillL2(a memdata.Addr, data []byte, dirty bool) {
	cl := h.l2.lookup(a)
	if cl == nil {
		cl = h.l2.victim(a)
		if cl.valid {
			h.evictL2(cl)
		}
		cl.tag = a
		cl.valid = true
		cl.dirty = false
		cl.shared = 0
		cl.owner = -1
	}
	copy(cl.data, data)
	if dirty {
		cl.dirty = true
	}
	h.l2.touch(cl)
}

// evictL2 enforces inclusion: L1 copies are invalidated (collecting a dirty
// copy first) and dirty data is written back to the controller.
func (h *Hierarchy) evictL2(cl *cacheLine) {
	h.Stats.L2Evictions++
	if cl.owner >= 0 {
		h.pullDirty(cl)
	}
	for coreID := 0; coreID < h.cfg.Cores; coreID++ {
		if cl.shared&(1<<uint(coreID)) != 0 {
			if l1cl := h.l1s[coreID].lookup(cl.tag); l1cl != nil {
				l1cl.valid = false
			}
		}
	}
	if cl.dirty {
		h.Stats.L2Writebacks++
		h.writebackToMemory(cl.tag, cl.data)
	}
	cl.valid = false
}

// writebackToMemory sends a full line to its controller through the hooked
// path (the (MC)² engine observes all cache writebacks).
func (h *Hierarchy) writebackToMemory(a memdata.Addr, data []byte) {
	cp := append([]byte(nil), data...)
	mc := h.route(a)
	h.bus.Send(memdata.LineSize, 0, func() { mc.WriteLineOwned(a, cp, 0, func() {}) })
}

// ---------------------------------------------------------------------------
// Write path
// ---------------------------------------------------------------------------

// Write stores data at byte offset off within the line at a for the given
// core, acquiring the line exclusively first (RFO on a miss). done fires
// when the store retires into the L1.
//
// tx is the transaction-trace id (0 when untraced).
func (h *Hierarchy) Write(core int, a memdata.Addr, off uint64, data []byte, tx txtrace.Tx, done func()) {
	checkLine(a)
	if off+uint64(len(data)) > memdata.LineSize {
		panic("cache: write crosses a line boundary")
	}
	l1 := h.l1s[core]
	if cl := l1.lookup(a); cl != nil {
		h.Stats.L1Hits++
		if tx != 0 {
			now := uint64(h.eng.Now())
			h.tr.Complete(tx, txtrace.StageL1Hit, uint64(a), now, now+uint64(h.cfg.L1Latency), txtrace.FlagWrite)
		}
		h.invalidateOtherSharers(core, a)
		copy(cl.data[off:], data)
		cl.dirty = true
		l1.touch(cl)
		if l2cl := h.l2.lookup(a); l2cl != nil {
			l2cl.owner = int8(core)
		}
		h.eng.After(h.cfg.L1Latency, done)
		return
	}
	// Read-for-ownership: fetch the line, then apply the store.
	h.Stats.L1Misses++
	h.trainPrefetcher(core, a)
	sp := h.tr.Begin(tx, txtrace.StageL1Miss, uint64(a), uint64(h.eng.Now()))
	h.missToL2(core, a, sp, func(lineData []byte) {
		h.invalidateOtherSharers(core, a)
		cl := h.l1s[core].lookup(a)
		if cl == nil {
			// Evicted between fill and store (tiny cache): refill.
			h.fillL1(core, a, lineData, false)
			cl = h.l1s[core].lookup(a)
		}
		copy(cl.data[off:], data)
		cl.dirty = true
		if l2cl := h.l2.lookup(a); l2cl != nil {
			l2cl.owner = int8(core)
		}
		h.tr.EndFlags(sp, uint64(h.eng.Now()), txtrace.FlagWrite)
		done()
	})
}

func (h *Hierarchy) invalidateOtherSharers(core int, a memdata.Addr) {
	l2cl := h.l2.lookup(a)
	if l2cl == nil {
		return
	}
	if l2cl.owner >= 0 && int(l2cl.owner) != core {
		h.pullDirty(l2cl)
	}
	for coreID := 0; coreID < h.cfg.Cores; coreID++ {
		if coreID == core {
			continue
		}
		if l2cl.shared&(1<<uint(coreID)) != 0 {
			if l1cl := h.l1s[coreID].lookup(a); l1cl != nil {
				l1cl.valid = false
			}
			l2cl.shared &^= 1 << uint(coreID)
		}
	}
	l2cl.shared |= 1 << uint(core)
}

// WriteLineNT performs a non-temporal full-line store: caches are bypassed
// (any cached copies are discarded — the line is fully overwritten) and the
// write goes straight to the controller, avoiding the RFO memory read.
//
// tx is the transaction-trace id (0 when untraced).
func (h *Hierarchy) WriteLineNT(core int, a memdata.Addr, data []byte, tx txtrace.Tx, done func()) {
	checkLine(a)
	if len(data) != memdata.LineSize {
		panic("cache: non-temporal store must write a full line")
	}
	h.Stats.NTStores++
	h.dropLine(a)
	cp := append([]byte(nil), data...)
	mc := h.route(a)
	h.eng.After(h.cfg.L1Latency, func() {
		h.bus.Send(memdata.LineSize, tx, func() { mc.WriteLineOwned(a, cp, tx, done) })
	})
}

type pfFlight struct {
	cancelled bool
}

// cancelInflightFills marks every in-flight demand miss and prefetch of the
// line stale so it will not be installed when its data returns.
func (h *Hierarchy) cancelInflightFills(a memdata.Addr) {
	for coreID := 0; coreID < h.cfg.Cores; coreID++ {
		if m, ok := h.mshrs[coreID][a]; ok {
			m.cancelled = true
			h.Stats.CancelledFills++
		}
	}
	if f, ok := h.pfPending[a]; ok && !f.cancelled {
		f.cancelled = true
		h.Stats.CancelledFills++
	}
}

// dropLine removes the line from every cache without writing it back.
func (h *Hierarchy) dropLine(a memdata.Addr) {
	h.cancelInflightFills(a)
	if l2cl := h.l2.lookup(a); l2cl != nil {
		for coreID := 0; coreID < h.cfg.Cores; coreID++ {
			if l1cl := h.l1s[coreID].lookup(a); l1cl != nil {
				l1cl.valid = false
			}
		}
		l2cl.valid = false
	} else {
		for coreID := 0; coreID < h.cfg.Cores; coreID++ {
			if l1cl := h.l1s[coreID].lookup(a); l1cl != nil {
				l1cl.valid = false
			}
		}
	}
}

// ---------------------------------------------------------------------------
// CLWB / invalidate / flush
// ---------------------------------------------------------------------------

// CLWB writes the line back to memory if it is dirty anywhere in the
// hierarchy, keeping a clean copy cached (Intel CLWB semantics). done fires
// when the write has been accepted by the controller (or immediately for
// clean/absent lines).
//
// tx is the transaction-trace id (0 when untraced).
func (h *Hierarchy) CLWB(core int, a memdata.Addr, tx txtrace.Tx, done func()) {
	checkLine(a)
	h.Stats.CLWBs++
	var data []byte
	// Freshest copy: dirty L1 anywhere, else dirty L2.
	for coreID := 0; coreID < h.cfg.Cores; coreID++ {
		if cl := h.l1s[coreID].lookup(a); cl != nil && cl.dirty {
			data = append([]byte(nil), cl.data...)
			cl.dirty = false
			break
		}
	}
	l2cl := h.l2.lookup(a)
	if data == nil && l2cl != nil && l2cl.dirty {
		data = append([]byte(nil), l2cl.data...)
	}
	if data == nil {
		// Clean or absent: still costs the full L1 + L2 probe.
		h.eng.After(h.cfg.L1Latency+h.cfg.L2Latency, done)
		return
	}
	h.Stats.CLWBDirty++
	if l2cl != nil {
		copy(l2cl.data, data)
		l2cl.dirty = false
		l2cl.owner = -1
	}
	mc := h.route(a)
	h.eng.After(h.cfg.L1Latency+h.cfg.L2Latency, func() {
		h.bus.Send(memdata.LineSize, tx, func() { mc.WriteLineOwned(a, data, tx, done) })
	})
}

// InvalidateRange drops every cached line in r without writeback and
// returns how many lines were found. MCLAZY uses this for destination
// buffers: their contents are about to be redefined by the lazy copy.
func (h *Hierarchy) InvalidateRange(r memdata.Range) int {
	found := 0
	for _, l := range r.Lines() {
		// Fills racing this invalidation must not install stale data, even
		// when the line is not cached yet (e.g. a prefetch in flight).
		h.cancelInflightFills(l)
		present := false
		if h.l2.lookup(l) != nil {
			present = true
		}
		for coreID := 0; coreID < h.cfg.Cores && !present; coreID++ {
			if h.l1s[coreID].lookup(l) != nil {
				present = true
			}
		}
		if present {
			h.dropLine(l)
			found++
			h.Stats.Invalidations++
		}
	}
	return found
}

// FlushRange writes back every dirty line of r to memory (keeping clean
// copies), calling done when all writebacks are accepted. It reports how
// many lines were dirty. This is the "ranged writeback" the paper suggests
// as future work (§V-A1); the simulated kernel uses it for huge pages.
//
// tx is the transaction-trace id (0 when untraced).
func (h *Hierarchy) FlushRange(r memdata.Range, tx txtrace.Tx, done func()) int {
	dirty := 0
	remaining := 1
	complete := func() {
		remaining--
		if remaining == 0 {
			done()
		}
	}
	for _, l := range r.Lines() {
		var data []byte
		for coreID := 0; coreID < h.cfg.Cores; coreID++ {
			if cl := h.l1s[coreID].lookup(l); cl != nil && cl.dirty {
				data = append([]byte(nil), cl.data...)
				cl.dirty = false
				break
			}
		}
		l2cl := h.l2.lookup(l)
		if data == nil && l2cl != nil && l2cl.dirty {
			data = append([]byte(nil), l2cl.data...)
		}
		if data == nil {
			continue
		}
		if l2cl != nil {
			copy(l2cl.data, data)
			l2cl.dirty = false
			l2cl.owner = -1
		}
		dirty++
		h.Stats.FlushedLines++
		remaining++
		mc := h.route(l)
		lcopy := l
		h.bus.Send(memdata.LineSize, tx, func() { mc.WriteLineOwned(lcopy, data, tx, complete) })
	}
	h.eng.After(h.cfg.L2Latency, complete)
	return dirty
}

// ---------------------------------------------------------------------------
// Stride prefetcher
// ---------------------------------------------------------------------------

type stridePF struct {
	lastAddr   memdata.Addr
	stride     int64
	confidence int
}

// trainPrefetcher observes a demand miss and issues prefetches into the L2
// once a stable stride is seen.
func (h *Hierarchy) trainPrefetcher(core int, a memdata.Addr) {
	if !h.cfg.Prefetch.Enabled {
		return
	}
	pf := h.pf[core]
	delta := int64(a) - int64(pf.lastAddr)
	if delta == pf.stride && delta != 0 {
		pf.confidence++
	} else {
		pf.stride = delta
		pf.confidence = 0
	}
	pf.lastAddr = a
	if pf.confidence < 2 || pf.stride == 0 {
		return
	}
	for i := 0; i < h.cfg.Prefetch.Degree; i++ {
		target := int64(a) + pf.stride*int64(h.cfg.Prefetch.Distance+i)
		if target < 0 {
			continue
		}
		h.issuePrefetch(memdata.Addr(target))
	}
}

func (h *Hierarchy) issuePrefetch(a memdata.Addr) {
	if h.pfInflight >= h.cfg.Prefetch.MaxInflight {
		return
	}
	if h.l2.lookup(a) != nil || h.pfPending[a] != nil {
		h.Stats.PrefetchesDuplicate++
		return
	}
	h.Stats.PrefetchesIssued++
	f := &pfFlight{}
	h.pfPending[a] = f
	h.pfInflight++
	mc := h.route(a)
	h.bus.Send(memdata.LineSize, 0, func() {
		mc.ReadLine(a, 0, func(data []byte) {
			h.bus.Send(memdata.LineSize, 0, func() {
				delete(h.pfPending, a)
				h.pfInflight--
				if !f.cancelled {
					h.fillL2(a, data, false)
				}
			})
		})
	})
}

// ---------------------------------------------------------------------------
// Test support
// ---------------------------------------------------------------------------

// Peek returns the freshest cached copy of the line at a and where it was
// found ("l1", "l2"), or nil and "" when uncached. Test-only helper; it has
// no timing effect.
func (h *Hierarchy) Peek(a memdata.Addr) ([]byte, string) {
	for coreID := 0; coreID < h.cfg.Cores; coreID++ {
		if cl := h.l1s[coreID].lookup(a); cl != nil && cl.dirty {
			return append([]byte(nil), cl.data...), "l1"
		}
	}
	if cl := h.l2.lookup(a); cl != nil {
		return append([]byte(nil), cl.data...), "l2"
	}
	for coreID := 0; coreID < h.cfg.Cores; coreID++ {
		if cl := h.l1s[coreID].lookup(a); cl != nil {
			return append([]byte(nil), cl.data...), "l1"
		}
	}
	return nil, ""
}

// CheckInclusion verifies that every valid L1 line is present in the L2.
// Test-only invariant check.
func (h *Hierarchy) CheckInclusion() error {
	for coreID := 0; coreID < h.cfg.Cores; coreID++ {
		for _, set := range h.l1s[coreID].lines {
			for i := range set {
				cl := &set[i]
				if cl.valid && h.l2.lookup(cl.tag) == nil {
					return fmt.Errorf("cache: L1[%d] line %#x not in L2", coreID, cl.tag)
				}
			}
		}
	}
	return nil
}
