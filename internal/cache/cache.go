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
	"math/bits"

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

// wayKey is what a set scan reads of one way: its key, tag|1 for a valid
// line (tags are line-aligned, so bit 0 is free) or 0 for an invalid one,
// and the tick of its last touch. lookup, place and touch read nothing
// else, so a set is one contiguous run of 16-byte entries.
type wayKey struct {
	key memdata.Addr
	lru uint64
}

// cacheLine is the rest of one way's metadata: its state, where its bytes
// are and, in an L1, which L2 way holds its line. The bytes live apart, in
// the array's chunks, so the scans above and the directory updates below
// touch only these small records.
//
// In the L2, owner and shared are the directory of the L1 copies, and it
// is exact: shared has a core's bit exactly when that core's L1 holds the
// line, and owner names the one L1 that holds it dirty. Range maintenance
// and coherence find L1 copies through it alone. In an L1, l2Way is the
// L2 way of the line, so a fill or eviction updates the directory without
// an L2 lookup; inclusion keeps it valid while the L1 holds the line.
type cacheLine struct {
	dirty  bool
	owner  uint8  // L2 only: 1 + the core whose L1 holds it dirty, 0 for none
	shared uint32 // L2 only: bitmask of L1s holding the line
	slot   uint32 // 1 + the index of the way's carved bytes, 0 before its first fill
	l2Way  int32  // L1 only: the L2 way holding the line
}

// ownerCore returns the core whose L1 holds the line dirty, or -1.
func (cl *cacheLine) ownerCore() int { return int(cl.owner) - 1 }

// setOwner records core's L1 as the holder of the dirty copy.
func (cl *cacheLine) setOwner(core int) { cl.owner = uint8(core + 1) }

// maxChunkShift sets how many line byte slots an array carves at a time:
// 1<<maxChunkShift lines (32 KiB), or the whole array if it is smaller.
const maxChunkShift = 9

// blockShift sets how many ways a block of metadata holds: 1<<blockShift
// (4,096 ways, 128 KiB), or the whole array if it is smaller. It is a
// constant so that finding a way's block is a shift and a mask.
const (
	blockShift = 12
	blockMask  = 1<<blockShift - 1
)

// wayBlock is the metadata of a run of ways, keys and lines indexed by the
// way's global index masked with blockMask. Both slices are nil until a
// fill lands in the block.
type wayBlock struct {
	keys  []wayKey
	lines []cacheLine
}

// array is one set-associative cache array of sets*ways ways, set s
// occupying ways [s*ways, (s+1)*ways). Each way's metadata is split in two
// slices, keys (what a set scan reads) and lines (state and directory), and
// its 64 bytes are stored apart.
//
// Metadata and bytes are allocated as fills need them. The metadata comes
// in blocks of up to 1<<blockShift ways, each allocated when a fill first
// chooses a way in it (place); lookups and invalidations in an absent block
// miss without allocating. A way keeps its global index i: its metadata is
// at i&blockMask in blocks[i>>blockShift]. If ways does not divide the
// block size, a set can cross a block boundary, so the first fill allocates
// the whole array as one run, each directory entry's slices running from
// the entry's first way to the end, and a scan reads on past the boundary.
//
// A way's bytes get a slot the first time it is filled, kept for good
// across invalidations and refills. Slots come from chunks of
// 1<<chunkShift lines, each allocated when the previous one runs out.
// Blocks and chunks never move, so a *cacheLine stays valid. A way names
// its slot by a 32-bit index, not a pointer, so keys and lines hold no
// pointers for the garbage collector to scan; only the short block
// directory and chunk list do.
type array struct {
	setMask    uint64 // sets-1; the set count is a power of two
	ways       int
	blocks     []wayBlock
	chunks     [][][memdata.LineSize]byte
	chunkShift uint
	carved     int // slots handed out to ways
	lruTick    uint64
}

func newArray(size, ways int) *array {
	sets := size / memdata.LineSize / ways
	if sets == 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d must be a positive power of two", sets))
	}
	n := sets * ways
	return &array{
		setMask:    uint64(sets - 1),
		ways:       ways,
		blocks:     make([]wayBlock, (n+blockMask)>>blockShift),
		chunkShift: min(uint(bits.Len(uint(n))-1), maxChunkShift),
	}
}

// size returns the number of ways, sets*ways.
func (a *array) size() int { return int(a.setMask+1) * a.ways }

// setBase returns the index of the first way of line's set.
func (a *array) setBase(line memdata.Addr) int {
	return int((uint64(line)>>memdata.LineShift)&a.setMask) * a.ways
}

// allocBlock allocates the metadata of block b, or of the whole array when
// a set may cross a block boundary.
func (a *array) allocBlock(b int) {
	lo, hi := b, b+1
	if (1<<blockShift)%a.ways != 0 {
		lo, hi = 0, len(a.blocks)
	}
	first := lo << blockShift
	n := min(hi<<blockShift, a.size()) - first
	keys, lines := make([]wayKey, n), make([]cacheLine, n)
	for k := lo; k < hi; k++ {
		off := k<<blockShift - first
		a.blocks[k] = wayBlock{keys: keys[off:], lines: lines[off:]}
	}
}

// validWays returns the indices of the ways that hold a line, walking only
// the blocks that are present.
func (a *array) validWays() []int {
	var ways []int
	n := a.size()
	for b, blk := range a.blocks {
		if blk.keys == nil {
			continue
		}
		for i := b << blockShift; i < min((b+1)<<blockShift, n); i++ {
			if a.valid(i) {
				ways = append(ways, i)
			}
		}
	}
	return ways
}

// key and line return way i's metadata; its block must be present.
func (a *array) key(i int) *wayKey     { return &a.blocks[i>>blockShift].keys[i&blockMask] }
func (a *array) line(i int) *cacheLine { return &a.blocks[i>>blockShift].lines[i&blockMask] }

// lookup returns the way holding line and its index, or nil and -1.
func (a *array) lookup(line memdata.Addr) (*cacheLine, int) {
	base := a.setBase(line)
	b := &a.blocks[base>>blockShift]
	if b.keys == nil {
		return nil, -1
	}
	off := base & blockMask
	key := line | 1
	for w, k := range b.keys[off : off+a.ways] {
		if k.key == key {
			return &b.lines[off+w], base + w
		}
	}
	return nil, -1
}

// place returns the way holding line and true, or else the way a fill of
// line takes and false: the first invalid way of the set if any, else its
// first least recently used way. It allocates the set's block on a miss,
// since the caller fills the way it returns.
func (a *array) place(line memdata.Addr) (int, bool) {
	base := a.setBase(line)
	b := &a.blocks[base>>blockShift]
	if b.keys == nil {
		a.allocBlock(base >> blockShift)
		return base, false
	}
	off := base & blockMask
	set := b.keys[off : off+a.ways]
	key := line | 1
	free, v := -1, 0
	for w, k := range set {
		switch {
		case k.key == key:
			return base + w, true
		case k.key == 0:
			if free < 0 {
				free = w
			}
		case k.lru < set[v].lru:
			v = w
		}
	}
	if free >= 0 {
		return base + free, false
	}
	return base + v, false
}

// has reports whether line is cached.
func (a *array) has(line memdata.Addr) bool {
	_, i := a.lookup(line)
	return i >= 0
}

// holds reports whether way i holds line.
func (a *array) holds(i int, line memdata.Addr) bool { return a.key(i).key == line|1 }

// tag returns the line address way i holds; the way must be valid.
func (a *array) tag(i int) memdata.Addr { return a.key(i).key &^ 1 }

// valid reports whether way i holds a line.
func (a *array) valid(i int) bool { return a.key(i).key != 0 }

// data returns way i's bytes; the way must have been filled at least once.
func (a *array) data(i int) *[memdata.LineSize]byte {
	s := uint(a.line(i).slot - 1)
	return &a.chunks[s>>a.chunkShift][s&(1<<a.chunkShift-1)]
}

// install makes way i, which place returned, hold line, clean and unshared,
// carving its bytes if the way has never been filled. The data is the
// caller's to fill.
func (a *array) install(i int, line memdata.Addr) {
	if !memdata.IsLineAligned(line) {
		panic(fmt.Sprintf("cache: installing unaligned tag %#x", line))
	}
	a.key(i).key = line | 1
	cl := a.line(i)
	cl.dirty = false
	cl.shared = 0
	cl.owner = 0
	if cl.slot == 0 {
		if a.carved == len(a.chunks)<<a.chunkShift {
			a.chunks = append(a.chunks, make([][memdata.LineSize]byte, 1<<a.chunkShift))
		}
		a.carved++
		cl.slot = uint32(a.carved)
	}
}

// invalidate drops whatever way i holds. The way keeps its bytes.
func (a *array) invalidate(i int) { a.key(i).key = 0 }

// drop invalidates line's way, if it is cached.
func (a *array) drop(line memdata.Addr) {
	if _, i := a.lookup(line); i >= 0 {
		a.invalidate(i)
	}
}

func (a *array) touch(i int) {
	a.lruTick++
	a.key(i).lru = a.lruTick
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

// mshr is one outstanding demand miss of a core: the MSHR entry and the
// in-flight request in one struct. It carries the line from the L2 or the
// controller in its own buffer, which every waiter borrows. Entries come
// from the hierarchy's pool and their steps are method values bound when
// the entry is first allocated, so a miss allocates nothing once the pool
// has warmed up.
type mshr struct {
	h       *Hierarchy
	core    int
	a       memdata.Addr
	tx      txtrace.Tx // the l1.miss span the L2 and memory legs nest under
	sp      txtrace.Tx // the l2.miss span while memory serves the miss
	l2Way   int        // L2 way of the line, for the L1 fill and a pull's end
	waiters []func(data []byte)
	// cancelled marks the fill stale: an invalidation (MCLAZY destination
	// sweep, NT store) arrived while the miss was in flight, or the line a
	// cross-core pull read left the L2. Waiters still receive the data —
	// their access is ordered before the invalidation — but the line must
	// not be installed in any cache.
	cancelled bool
	data      [memdata.LineSize]byte

	accessFn, sendFn, arriveFn, pulledFn func()
	recvFn                               func(data []byte)
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

	// In-flight fills, in no particular order. They are few (at most
	// MSHRsPerCore per core and Prefetch.MaxInflight prefetches), so a
	// scan finds one by address.
	mshrs     [][]*mshr           // per core, demand misses
	mshrQueue []sim.Queue[func()] // deferred misses per core
	pfPending []*pfFlight         // prefetches in flight (dedup + cancel)
	pf        []*stridePF

	// Retired requests for reuse.
	mshrPool  sim.Pool[mshr]
	hitPool   sim.Pool[hitReq]
	stallPool sim.Pool[stalledMiss]
	rfoPool   sim.Pool[rfo]
	pfPool    sim.Pool[pfFlight]
	wrPool    sim.Pool[lineWrite]

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
		pfPending: make([]*pfFlight, 0, max(cfg.Prefetch.MaxInflight, 0)),
	}
	for i := 0; i < cfg.Cores; i++ {
		h.l1s = append(h.l1s, newArray(cfg.L1Size, cfg.L1Ways))
		h.mshrs = append(h.mshrs, make([]*mshr, 0, max(cfg.MSHRsPerCore, 0)))
		h.mshrQueue = append(h.mshrQueue, sim.Queue[func()]{})
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

// nop is the completion of writes nobody waits for.
func nop() {}

// without removes x, which s holds, from s, moving the last entry into its
// place.
func without[T comparable](s []T, x T) []T {
	last := len(s) - 1
	for i, y := range s {
		if y == x {
			s[i] = s[last]
			break
		}
	}
	var zero T
	s[last] = zero
	return s[:last]
}

// ---------------------------------------------------------------------------
// Read path
// ---------------------------------------------------------------------------

// hitReq delivers an L1 hit after the L1 latency. The line is copied at
// the access, the cycle its value is bound.
type hitReq struct {
	h      *Hierarchy
	done   func(data []byte)
	data   [memdata.LineSize]byte
	fireFn func()
}

func (r *hitReq) fire() {
	r.done(r.data[:])
	r.done = nil
	r.h.hitPool.Put(r)
}

// Read fetches the full line at a for the given core. done receives the
// line's current data in a borrowed slice: it is valid only until done
// returns, so done copies whatever it keeps and must not modify it.
//
// tx is the transaction-trace id (0 when untraced): traced reads record an
// l1.hit span, or an l1.miss span under which the L2/memory legs nest.
func (h *Hierarchy) Read(core int, a memdata.Addr, tx txtrace.Tx, done func(data []byte)) {
	checkLine(a)
	l1 := h.l1s[core]
	if _, i := l1.lookup(a); i >= 0 {
		h.Stats.L1Hits++
		if tx != 0 {
			now := uint64(h.eng.Now())
			h.tr.Complete(tx, txtrace.StageL1Hit, uint64(a), now, now+uint64(h.cfg.L1Latency), 0)
		}
		l1.touch(i)
		r, fresh := h.hitPool.Get()
		if fresh {
			r.h = h
			r.fireFn = r.fire
		}
		r.done = done
		r.data = *l1.data(i)
		h.eng.After(h.cfg.L1Latency, r.fireFn)
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
// or a fresh one with its steps bound; putMSHR returns it once its fill
// completes. Misses are the steady-state churn of every workload, so this
// keeps the miss path free of per-access allocations after warmup.
func (h *Hierarchy) getMSHR(core int, a memdata.Addr, tx txtrace.Tx, done func(data []byte)) *mshr {
	m, fresh := h.mshrPool.Get()
	if fresh {
		m.h = h
		m.accessFn = m.access
		m.sendFn = m.send
		m.recvFn = m.recv
		m.arriveFn = m.arrive
		m.pulledFn = m.pulled
	}
	m.core, m.a, m.tx, m.sp = core, a, tx, 0
	m.cancelled = false
	m.waiters = append(m.waiters, done)
	return m
}

func (h *Hierarchy) putMSHR(m *mshr) {
	for i := range m.waiters {
		m.waiters[i] = nil
	}
	m.waiters = m.waiters[:0]
	h.mshrPool.Put(m)
}

// stalledMiss is a miss deferred on a full MSHR file.
type stalledMiss struct {
	h     *Hierarchy
	core  int
	a     memdata.Addr
	tx    txtrace.Tx
	start uint64
	done  func(data []byte)
	runFn func()
}

func (s *stalledMiss) run() {
	h := s.h
	core, a, tx, done := s.core, s.a, s.tx, s.done
	if tx != 0 {
		h.tr.Complete(tx, txtrace.StageMSHRWait, uint64(a), s.start, uint64(h.eng.Now()), 0)
	}
	s.done = nil
	h.stallPool.Put(s)
	h.missToL2(core, a, tx, done)
}

// missToL2 handles an L1 miss, merging concurrent misses to the same line
// in the core's MSHR file and bounding outstanding misses.
func (h *Hierarchy) missToL2(core int, a memdata.Addr, tx txtrace.Tx, done func(data []byte)) {
	for _, m := range h.mshrs[core] {
		if m.a == a {
			m.waiters = append(m.waiters, done)
			return
		}
	}
	if len(h.mshrs[core]) >= h.cfg.MSHRsPerCore {
		h.Stats.MSHRStalls++
		s, fresh := h.stallPool.Get()
		if fresh {
			s.h = h
			s.runFn = s.run
		}
		s.core, s.a, s.tx, s.done = core, a, tx, done
		s.start = uint64(h.eng.Now())
		h.mshrQueue[core].Push(s.runFn)
		return
	}
	m := h.getMSHR(core, a, tx, done)
	h.mshrs[core] = append(h.mshrs[core], m)
	if h.inv.QueuesOn() {
		h.inv.CheckQueue(h.mshrNames[core], len(h.mshrs[core]), h.cfg.MSHRsPerCore)
	}
	h.eng.After(h.cfg.L1Latency+h.cfg.L2Latency, m.accessFn)
}

// access resolves the miss at the L2 level: hit (pulling a dirty copy from
// another L1 if needed) or miss to the memory controller.
func (m *mshr) access() {
	h, a := m.h, m.a
	if cl, i := h.l2.lookup(a); cl != nil {
		h.Stats.L2Hits++
		h.l2.touch(i)
		m.l2Way = i
		if o := cl.ownerCore(); o >= 0 && o != m.core {
			// Another core's L1 holds the dirty copy: pull it into L2.
			h.Stats.CrossCorePulls++
			h.pullDirty(i, a)
			if m.tx != 0 {
				now := uint64(h.eng.Now())
				h.tr.Complete(m.tx, txtrace.StageL2Hit, uint64(a), now, now+uint64(h.cfg.L1Latency), 0)
			}
			// The bytes as pulled, for the waiters in case the line
			// leaves the L2 before the pull's delay ends.
			m.data = *h.l2.data(i)
			h.eng.After(h.cfg.L1Latency, m.pulledFn)
			return
		}
		if m.tx != 0 {
			now := uint64(h.eng.Now())
			h.tr.Complete(m.tx, txtrace.StageL2Hit, uint64(a), now, now, 0)
		}
		m.data = *h.l2.data(i)
		m.fill()
		return
	}
	h.Stats.L2Misses++
	m.sp = h.tr.Begin(m.tx, txtrace.StageL2Miss, uint64(a), uint64(h.eng.Now()))
	h.bus.Send(memdata.LineSize, m.sp, m.sendFn)
}

// pulled delivers the L2 line a cross-core pull refreshed, as it stands
// when the pull's delay ends; if a core took the line back and stored to
// it during the delay, its dirty copy is pulled again. If the line left
// the L2 in the meantime (invalidated, or evicted and its way refilled
// with another line), the waiters get the bytes as pulled and no L1
// installs the line, which the inclusive L2 no longer holds.
func (m *mshr) pulled() {
	h := m.h
	if h.l2.holds(m.l2Way, m.a) {
		if h.l2.line(m.l2Way).owner != 0 {
			h.pullDirty(m.l2Way, m.a)
		}
		m.data = *h.l2.data(m.l2Way)
	} else {
		m.cancelled = true
	}
	m.fill()
}

// send runs when the miss reaches the controller.
func (m *mshr) send() { m.h.route(m.a).ReadLine(m.a, m.sp, m.recvFn) }

// recv copies the controller's line and sends it back over the link.
func (m *mshr) recv(data []byte) {
	copy(m.data[:], data)
	m.h.bus.Send(memdata.LineSize, m.sp, m.arriveFn)
}

// arrive installs the line from memory in the L2 and completes the miss.
// If the L2 gained the line while the miss was out (another core's miss or
// a prefetch), memory's bytes may be stale: the fill takes the L2's,
// pulling another core's dirty copy first, as an L2 hit would.
func (m *mshr) arrive() {
	h := m.h
	if !m.cancelled {
		j, held := h.fillL2(m.a, m.data[:])
		m.l2Way = j
		if held {
			if h.l2.line(j).owner != 0 {
				h.pullDirty(j, m.a)
			}
			m.data = *h.l2.data(j)
		}
	}
	h.tr.End(m.sp, uint64(h.eng.Now()))
	m.fill()
}

// fill installs the line in the L1, retires the MSHR, hands the line to
// every waiter and starts the oldest deferred miss.
func (m *mshr) fill() {
	h, core, a := m.h, m.core, m.a
	if !m.cancelled {
		h.fillL1(core, a, m.l2Way, m.data[:])
	}
	h.mshrs[core] = without(h.mshrs[core], m)
	if h.inv.QueuesOn() {
		h.inv.CheckQueue(h.mshrNames[core], len(h.mshrs[core]), h.cfg.MSHRsPerCore)
	}
	for _, w := range m.waiters {
		w(m.data[:])
	}
	if h.mshrQueue[core].Len() > 0 {
		h.mshrQueue[core].Pop()()
	}
	// m is unreferenced from here: it has left the MSHR file and the
	// waiters have returned. Recycle it.
	h.putMSHR(m)
}

// pullDirty copies the owner L1's dirty data into L2 way j, which holds
// line a, and marks the L1 copy clean (ownership returns to the L2). The
// line must have an owner.
func (h *Hierarchy) pullDirty(j int, a memdata.Addr) {
	l2cl := h.l2.line(j)
	l1 := h.l1s[l2cl.ownerCore()]
	cl, i := l1.lookup(a)
	*h.l2.data(j) = *l1.data(i)
	cl.dirty = false
	l2cl.dirty = true
	l2cl.owner = 0
}

// ---------------------------------------------------------------------------
// Fills and evictions
// ---------------------------------------------------------------------------

// fillL1 installs a clean copy of line a, which L2 way j holds, in the
// core's L1.
func (h *Hierarchy) fillL1(core int, a memdata.Addr, j int, data []byte) {
	l1 := h.l1s[core]
	i, hit := l1.place(a)
	if !hit {
		if l1.valid(i) {
			h.evictL1(core, i)
		}
		l1.install(i, a)
	}
	copy(l1.data(i)[:], data)
	l1.touch(i)
	l1.line(i).l2Way = int32(j)
	h.l2.line(j).shared |= 1 << uint(core)
}

// evictL1 evicts way i of the core's L1, handing a dirty copy to the L2.
func (h *Hierarchy) evictL1(core, i int) {
	h.Stats.L1Evictions++
	l1 := h.l1s[core]
	cl := l1.line(i)
	j := int(cl.l2Way)
	l2cl := h.l2.line(j)
	if cl.dirty {
		*h.l2.data(j) = *l1.data(i)
		l2cl.dirty = true
	}
	l2cl.shared &^= 1 << uint(core)
	if l2cl.ownerCore() == core {
		l2cl.owner = 0
	}
	l1.invalidate(i)
}

// fillL2 installs line a, arriving from memory with data, in the L2 and
// returns its way. A line the L2 already holds keeps its bytes, which may
// be newer than memory's: it is only touched, and held reports it.
func (h *Hierarchy) fillL2(a memdata.Addr, data []byte) (j int, held bool) {
	j, held = h.l2.place(a)
	if held {
		h.l2.touch(j)
		return j, true
	}
	if h.l2.valid(j) {
		h.evictL2(j)
	}
	h.l2.install(j, a)
	copy(h.l2.data(j)[:], data)
	h.l2.touch(j)
	return j, false
}

// evictL2 evicts way i of the L2, enforcing inclusion: L1 copies are
// invalidated (collecting a dirty copy first) and dirty data is written
// back to the controller.
func (h *Hierarchy) evictL2(i int) {
	h.Stats.L2Evictions++
	cl, a := h.l2.line(i), h.l2.tag(i)
	if cl.owner != 0 {
		h.pullDirty(i, a)
	}
	if cl.dirty {
		h.Stats.L2Writebacks++
		h.writebackToMemory(a, h.l2.data(i)[:])
	}
	h.dropL2(i)
}

// dropL2 invalidates way i of the L2 and the L1 copies its directory
// names, without writing anything back.
func (h *Hierarchy) dropL2(i int) {
	a := h.l2.tag(i)
	for sh := h.l2.line(i).shared; sh != 0; sh &= sh - 1 {
		h.l1s[bits.TrailingZeros32(sh)].drop(a)
	}
	h.l2.invalidate(i)
}

// lineWrite is one full-line write on its way from the hierarchy to a
// controller (write-back, CLWB, flush or non-temporal store). It holds its
// own copy of the line, taken when the write leaves the cache; the
// controller copies it again at entry, so the request is recycled as soon
// as the controller call returns.
type lineWrite struct {
	h       *Hierarchy
	a       memdata.Addr
	tx      txtrace.Tx
	done    func()
	data    [memdata.LineSize]byte
	sendFn  func()
	writeFn func()
}

func (h *Hierarchy) newLineWrite(a memdata.Addr, tx txtrace.Tx, done func()) *lineWrite {
	w, fresh := h.wrPool.Get()
	if fresh {
		w.h = h
		w.sendFn = w.send
		w.writeFn = w.write
	}
	w.a, w.tx, w.done = a, tx, done
	return w
}

// send puts the write on the cache-to-controller link.
func (w *lineWrite) send() { w.h.bus.Send(memdata.LineSize, w.tx, w.writeFn) }

// write hands the line to its controller through the hooked path (the
// (MC)² engine observes every write the caches send).
func (w *lineWrite) write() {
	h, done := w.h, w.done
	w.done = nil
	h.route(w.a).WriteLine(w.a, w.data[:], w.tx, done)
	h.wrPool.Put(w)
}

// writebackToMemory sends a full line to its controller through the hooked
// path (the (MC)² engine observes all cache writebacks).
func (h *Hierarchy) writebackToMemory(a memdata.Addr, data []byte) {
	w := h.newLineWrite(a, 0, nop)
	copy(w.data[:], data)
	h.bus.Send(memdata.LineSize, 0, w.writeFn)
}

// ---------------------------------------------------------------------------
// Write path
// ---------------------------------------------------------------------------

// rfo is a store waiting for its read-for-ownership miss. data is the
// caller's slice, read when the line arrives.
type rfo struct {
	h        *Hierarchy
	core     int
	a        memdata.Addr
	off      uint64
	data     []byte
	sp       txtrace.Tx
	done     func()
	arriveFn func(lineData []byte)
}

// arrive applies the store to the line the miss brought in. If the line
// is not in the L1 (an invalidation cancelled the fill, or dropped the line
// before this store's turn), the store misses again: its bytes must land
// on the line as it stands after the invalidation, in a copy the L2 tracks.
func (r *rfo) arrive([]byte) {
	h, core, a := r.h, r.core, r.a
	l1 := h.l1s[core]
	cl, i := l1.lookup(a)
	if cl == nil {
		h.missToL2(core, a, r.sp, r.arriveFn)
		return
	}
	h.takeOwnership(core, int(cl.l2Way), a)
	copy(l1.data(i)[r.off:], r.data)
	cl.dirty = true
	h.tr.EndFlags(r.sp, uint64(h.eng.Now()), txtrace.FlagWrite)
	done := r.done
	r.data, r.done = nil, nil
	h.rfoPool.Put(r)
	done()
}

// Write stores data at byte offset off within the line at a for the given
// core, acquiring the line exclusively first (RFO on a miss). done fires
// when the store retires into the L1. On a miss data is read when the line
// arrives, so the caller must leave it unchanged until done fires.
//
// tx is the transaction-trace id (0 when untraced).
func (h *Hierarchy) Write(core int, a memdata.Addr, off uint64, data []byte, tx txtrace.Tx, done func()) {
	checkLine(a)
	if off+uint64(len(data)) > memdata.LineSize {
		panic("cache: write crosses a line boundary")
	}
	l1 := h.l1s[core]
	if cl, i := l1.lookup(a); cl != nil {
		h.Stats.L1Hits++
		if tx != 0 {
			now := uint64(h.eng.Now())
			h.tr.Complete(tx, txtrace.StageL1Hit, uint64(a), now, now+uint64(h.cfg.L1Latency), txtrace.FlagWrite)
		}
		h.takeOwnership(core, int(cl.l2Way), a)
		copy(l1.data(i)[off:], data)
		cl.dirty = true
		l1.touch(i)
		h.eng.After(h.cfg.L1Latency, done)
		return
	}
	// Read-for-ownership: fetch the line, then apply the store.
	h.Stats.L1Misses++
	h.trainPrefetcher(core, a)
	r, fresh := h.rfoPool.Get()
	if fresh {
		r.h = h
		r.arriveFn = r.arrive
	}
	r.core, r.a, r.off, r.data, r.done = core, a, off, data, done
	r.sp = h.tr.Begin(tx, txtrace.StageL1Miss, uint64(a), uint64(h.eng.Now()))
	h.missToL2(core, a, r.sp, r.arriveFn)
}

// takeOwnership makes the core's L1, which holds line a in L2 way j, its
// only holder and its dirty owner in the L2's directory: another owner's
// dirty copy is pulled into the L2 first and every other L1 copy is
// dropped. The caller then writes the core's copy.
func (h *Hierarchy) takeOwnership(core, j int, a memdata.Addr) {
	l2cl := h.l2.line(j)
	if o := l2cl.ownerCore(); o >= 0 && o != core {
		h.pullDirty(j, a)
	}
	self := uint32(1) << uint(core)
	for sh := l2cl.shared &^ self; sh != 0; sh &= sh - 1 {
		h.l1s[bits.TrailingZeros32(sh)].drop(a)
	}
	l2cl.shared = self
	l2cl.setOwner(core)
}

// WriteLineNT performs a non-temporal full-line store: caches are bypassed
// (any cached copies are discarded — the line is fully overwritten) and the
// write goes straight to the controller, avoiding the RFO memory read. data
// is copied at the call.
//
// tx is the transaction-trace id (0 when untraced).
func (h *Hierarchy) WriteLineNT(core int, a memdata.Addr, data []byte, tx txtrace.Tx, done func()) {
	checkLine(a)
	if len(data) != memdata.LineSize {
		panic("cache: non-temporal store must write a full line")
	}
	h.Stats.NTStores++
	h.dropLine(a)
	w := h.newLineWrite(a, tx, done)
	copy(w.data[:], data)
	h.eng.After(h.cfg.L1Latency, w.sendFn)
}

// pfFlight is one prefetch in flight to the L2.
type pfFlight struct {
	h         *Hierarchy
	a         memdata.Addr
	cancelled bool
	data      [memdata.LineSize]byte

	sendFn, arriveFn func()
	recvFn           func(data []byte)
}

// cancelInflightFills marks every in-flight demand miss and prefetch of a
// line in [first, end) stale so it will not be installed when its data
// returns. A fill is cancelled, and counted, once.
func (h *Hierarchy) cancelInflightFills(first, end memdata.Addr) {
	for _, ms := range h.mshrs {
		for _, m := range ms {
			if m.a >= first && m.a < end && !m.cancelled {
				m.cancelled = true
				h.Stats.CancelledFills++
			}
		}
	}
	for _, f := range h.pfPending {
		if f.a >= first && f.a < end && !f.cancelled {
			f.cancelled = true
			h.Stats.CancelledFills++
		}
	}
}

// dropLine removes the line from every cache without writing it back.
func (h *Hierarchy) dropLine(a memdata.Addr) {
	h.cancelInflightFills(a, a+memdata.LineSize)
	if _, i := h.l2.lookup(a); i >= 0 {
		h.dropL2(i)
	}
}

// ---------------------------------------------------------------------------
// CLWB / invalidate / flush
// ---------------------------------------------------------------------------

// takeDirty copies the freshest dirty copy of the line at a — the owner
// L1's, else a dirty L2's — into a new line write for the caller to send,
// and leaves a clean copy cached. It returns nil when the line is clean or
// absent. The L2's directory names the owner, so no other L1 is probed.
func (h *Hierarchy) takeDirty(a memdata.Addr, tx txtrace.Tx, done func()) *lineWrite {
	l2cl, j := h.l2.lookup(a)
	if l2cl == nil {
		return nil
	}
	if l2cl.owner != 0 {
		h.pullDirty(j, a)
	}
	if !l2cl.dirty {
		return nil
	}
	w := h.newLineWrite(a, tx, done)
	w.data = *h.l2.data(j)
	l2cl.dirty = false
	return w
}

// CLWB writes the line back to memory if it is dirty anywhere in the
// hierarchy, keeping a clean copy cached (Intel CLWB semantics). done fires
// when the write has been accepted by the controller (or immediately for
// clean/absent lines).
//
// tx is the transaction-trace id (0 when untraced).
func (h *Hierarchy) CLWB(core int, a memdata.Addr, tx txtrace.Tx, done func()) {
	checkLine(a)
	h.Stats.CLWBs++
	w := h.takeDirty(a, tx, done)
	if w == nil {
		// Clean or absent: still costs the full L1 + L2 probe.
		h.eng.After(h.cfg.L1Latency+h.cfg.L2Latency, done)
		return
	}
	h.Stats.CLWBDirty++
	h.eng.After(h.cfg.L1Latency+h.cfg.L2Latency, w.sendFn)
}

// InvalidateRange drops every cached line in r without writeback and
// returns how many lines were found. MCLAZY uses this for destination
// buffers: their contents are about to be redefined by the lazy copy.
func (h *Hierarchy) InvalidateRange(r memdata.Range) int {
	if r.Empty() {
		return 0
	}
	first, end := memdata.LineAlign(r.Start), r.End()
	// Fills racing this invalidation must not install stale data, even
	// when the line is not cached yet (e.g. a prefetch in flight).
	h.cancelInflightFills(first, end)
	found := 0
	for l := first; l < end; l += memdata.LineSize {
		// Inclusion: a line no L2 way holds is in no L1 either.
		if _, i := h.l2.lookup(l); i >= 0 {
			h.dropL2(i)
			found++
		}
	}
	h.Stats.Invalidations += uint64(found)
	return found
}

// FlushRange writes back every dirty line of r to memory (keeping clean
// copies) and reports how many lines were dirty. done runs once per dirty
// line, when its write is accepted, and once more after the L2 probe
// latency: the caller counts dirty+1 calls. None runs before FlushRange
// returns. This is the "ranged writeback" the paper suggests as future
// work (§V-A1); MCLAZY uses it to sweep its source.
//
// tx is the transaction-trace id (0 when untraced).
func (h *Hierarchy) FlushRange(r memdata.Range, tx txtrace.Tx, done func()) int {
	dirty := 0
	if !r.Empty() {
		for l := memdata.LineAlign(r.Start); l < r.End(); l += memdata.LineSize {
			w := h.takeDirty(l, tx, done)
			if w == nil {
				continue
			}
			dirty++
			h.Stats.FlushedLines++
			h.bus.Send(memdata.LineSize, tx, w.writeFn)
		}
	}
	h.eng.After(h.cfg.L2Latency, done)
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
// once a stable stride is seen. Targets outside physical memory (below
// zero, or at or past the end of the controller's backing store) are
// skipped.
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
		if target < 0 || uint64(target) >= h.route(memdata.Addr(target)).MemSize() {
			continue
		}
		h.issuePrefetch(memdata.Addr(target))
	}
}

func (h *Hierarchy) issuePrefetch(a memdata.Addr) {
	if len(h.pfPending) >= h.cfg.Prefetch.MaxInflight {
		return
	}
	dup := h.l2.has(a)
	for _, f := range h.pfPending {
		dup = dup || f.a == a
	}
	if dup {
		h.Stats.PrefetchesDuplicate++
		return
	}
	h.Stats.PrefetchesIssued++
	f, fresh := h.pfPool.Get()
	if fresh {
		f.h = h
		f.sendFn = f.send
		f.recvFn = f.recv
		f.arriveFn = f.arrive
	}
	f.a, f.cancelled = a, false
	h.pfPending = append(h.pfPending, f)
	h.bus.Send(memdata.LineSize, 0, f.sendFn)
}

func (f *pfFlight) send() { f.h.route(f.a).ReadLine(f.a, 0, f.recvFn) }

func (f *pfFlight) recv(data []byte) {
	copy(f.data[:], data)
	f.h.bus.Send(memdata.LineSize, 0, f.arriveFn)
}

func (f *pfFlight) arrive() {
	h := f.h
	h.pfPending = without(h.pfPending, f)
	if !f.cancelled {
		h.fillL2(f.a, f.data[:])
	}
	h.pfPool.Put(f)
}

// ---------------------------------------------------------------------------
// Test support
// ---------------------------------------------------------------------------

// Peek returns the freshest cached copy of the line at a and where it was
// found ("l1", "l2"), or nil and "" when uncached. Test-only helper; it has
// no timing effect.
func (h *Hierarchy) Peek(a memdata.Addr) ([]byte, string) {
	for _, l1 := range h.l1s {
		if cl, i := l1.lookup(a); cl != nil && cl.dirty {
			return append([]byte(nil), l1.data(i)[:]...), "l1"
		}
	}
	if _, j := h.l2.lookup(a); j >= 0 {
		return append([]byte(nil), h.l2.data(j)[:]...), "l2"
	}
	for _, l1 := range h.l1s {
		if _, i := l1.lookup(a); i >= 0 {
			return append([]byte(nil), l1.data(i)[:]...), "l1"
		}
	}
	return nil, ""
}

// CheckDirectory verifies inclusion and the L2's directory of L1 copies:
// every valid L1 line is in the L2, in the way the L1 records, with that
// core's shared bit set, a dirty L1 copy is the L2's owner (so at most one
// L1 copy of a line is dirty), and, the other way round, every shared bit
// and owner the L2 records names an L1 that holds the line, dirty for the
// owner, and an owned line has no other sharer (no L1 keeps a clean copy
// beside a dirty one).
// Test-only invariant check.
func (h *Hierarchy) CheckDirectory() error {
	for coreID, l1 := range h.l1s {
		for _, i := range l1.validWays() {
			a := l1.tag(i)
			l2cl, j := h.l2.lookup(a)
			if l2cl == nil {
				return fmt.Errorf("cache: L1[%d] line %#x not in L2", coreID, a)
			}
			if rec := int(l1.line(i).l2Way); rec != j {
				return fmt.Errorf("cache: L1[%d] line %#x records L2 way %d, but the L2 holds it in way %d", coreID, a, rec, j)
			}
			if l2cl.shared&(1<<uint(coreID)) == 0 {
				return fmt.Errorf("cache: L1[%d] holds line %#x but the L2's shared bits %#x omit it", coreID, a, l2cl.shared)
			}
			if l1.line(i).dirty && l2cl.ownerCore() != coreID {
				return fmt.Errorf("cache: L1[%d] holds line %#x dirty but the L2's owner is %d", coreID, a, l2cl.ownerCore())
			}
		}
	}
	for _, i := range h.l2.validWays() {
		a, cl := h.l2.tag(i), h.l2.line(i)
		if cl.shared>>uint(len(h.l1s)) != 0 {
			return fmt.Errorf("cache: L2 line %#x has shared bits %#x beyond %d cores", a, cl.shared, len(h.l1s))
		}
		for sh := cl.shared; sh != 0; sh &= sh - 1 {
			if core := bits.TrailingZeros32(sh); !h.l1s[core].has(a) {
				return fmt.Errorf("cache: L2 line %#x names L1[%d], which does not hold it", a, core)
			}
		}
		if o := cl.ownerCore(); o >= 0 {
			if o >= len(h.l1s) {
				return fmt.Errorf("cache: L2 line %#x has owner %d beyond %d cores", a, o, len(h.l1s))
			}
			if l1cl, _ := h.l1s[o].lookup(a); l1cl == nil || !l1cl.dirty {
				return fmt.Errorf("cache: L2 line %#x names owner L1[%d], which does not hold it dirty", a, o)
			}
			if others := cl.shared &^ (1 << uint(o)); others != 0 {
				return fmt.Errorf("cache: L2 line %#x is owned by L1[%d] but also shared by %#x", a, o, others)
			}
		}
	}
	return nil
}
