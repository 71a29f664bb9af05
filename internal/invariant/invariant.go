// Package invariant provides runtime correctness oracles for the
// simulated memory system, cheap enough to leave on in any build:
//
//   - a shadow-memory data-integrity oracle that replays every CPU-visible
//     write and lazy copy eagerly into a sparse per-line shadow and
//     byte-compares what the memory system returns on reads and on MCFREE;
//   - a transaction liveness watchdog — no in-flight memory transaction may
//     grow older than a configurable cycle budget; on trip it dumps the
//     txtrace flight recorder and fails loudly (panics, which the runner
//     converts into a structured job error);
//   - queue-occupancy invariants — RPQ/WPQ/BPQ/MSHR occupancy never leaves
//     [0, capacity] and refcounts never go negative.
//
// One Oracles instance is built per machine (by machine.New, when the
// machine's run environment enables oracles) and threaded to the memory
// controllers, the (MC)² engine, and the cache hierarchy. Every method is nil-safe so the disabled path costs
// one nil check and zero allocations.
//
// Comparison semantics. The simulator is concurrent in simulated time: a
// read's return value is bound at a well-defined cycle (forward hit: the
// forwarding check; DRAM: the array read; bounce: compose start), and
// writes to the line after that cycle legally miss the returned value. The
// caller therefore passes the binding cycle; a mismatch only counts as a
// violation when the shadow was NOT updated at-or-after the binding cycle
// (otherwise the comparison is racy and skipped, which is counted). Lines
// whose current value the simulator itself leaves ambiguous — an internal
// reconstruction write is in flight between untracking and queue accept —
// are marked transitional by the engine and skipped too. Lines freed by
// MCFREE hold undefined data and are skipped until redefined. Lines never
// observed (e.g. seeded by test backdoor writes) are adopted on first
// read: the first comparison cannot fail, every later one can.
package invariant

import (
	"bytes"
	"fmt"
	"os"
	"sort"

	"mcsquare/internal/memdata"
	"mcsquare/internal/metrics"
	"mcsquare/internal/sim"
	"mcsquare/internal/txtrace"
)

// DefaultWatchdogBudget is the default maximum age, in cycles, of an
// in-flight transaction before the liveness watchdog trips. Real
// transactions in this simulator complete in hundreds of cycles; two
// million is far beyond any legitimate stall pile-up yet trips quickly on
// a genuine livelock.
const DefaultWatchdogBudget = 2_000_000

// Config selects which oracles run.
type Config struct {
	Shadow         bool   // shadow-memory data-integrity oracle
	Watchdog       bool   // transaction liveness watchdog
	Queues         bool   // queue-occupancy / refcount invariants
	WatchdogBudget uint64 // max in-flight Tx age in cycles (0 = DefaultWatchdogBudget)
	DumpPath       string // flight-recorder dump file on watchdog trip ("" = no dump)
}

// All returns a Config with every oracle enabled (the -invariants flag).
func All() Config {
	return Config{Shadow: true, Watchdog: true, Queues: true}
}

// Enabled reports whether any oracle is on.
func (c Config) Enabled() bool { return c.Shadow || c.Watchdog || c.Queues }

// Violation kinds.
const (
	KindIntegrity = "integrity" // shadow-memory byte mismatch
	KindQueue     = "queue"     // occupancy outside [0, capacity] or negative refcount
	KindLiveness  = "liveness"  // watchdog trip
)

// Violation is one recorded oracle failure.
type Violation struct {
	Kind  string `json:"kind"`
	What  string `json:"what"`
	Addr  uint64 `json:"addr"`
	Cycle uint64 `json:"cycle"`
}

func (v Violation) String() string {
	return fmt.Sprintf("[%s] cycle %d addr %#x: %s", v.Kind, v.Cycle, v.Addr, v.What)
}

// maxViolations bounds the per-machine violation list; the counters keep
// counting past it.
const maxViolations = 256

// line-state markers for the sparse shadow.
type lineState uint8

const (
	stUnknown lineState = iota // never observed: adopt on first read
	stKnown                    // shadow holds the authoritative value
	stUndef                    // freed by MCFREE: contents undefined
)

type shadowLine struct {
	state lineState
	data  []byte    // LineSize bytes when state == stKnown
	upd   sim.Cycle // cycle of the last shadow mutation of this line
}

type txInfo struct {
	addr  uint64
	start sim.Cycle
}

// WatchdogTrip is the panic value raised when the liveness watchdog
// fires. The runner classifies it as a deterministic failure.
type WatchdogTrip struct {
	Addr     uint64    // address of the oldest stuck transaction
	Age      sim.Cycle // its age when the watchdog swept
	Budget   sim.Cycle
	Inflight int // total in-flight transactions at trip time
}

func (w *WatchdogTrip) Error() string {
	return fmt.Sprintf("invariant: liveness watchdog tripped: tx on %#x in flight for %d cycles (budget %d, %d tx in flight)",
		w.Addr, w.Age, w.Budget, w.Inflight)
}

// Oracles is one machine's invariant-checking state. All methods run in
// engine (event) context — single-threaded per machine — and are nil-safe.
type Oracles struct {
	cfg Config
	eng *sim.Engine
	tr  *txtrace.Tracer

	// Shadow memory, sparse per line.
	shadow       map[memdata.Addr]*shadowLine
	transitional map[memdata.Addr]int // lines with an in-flight internal write

	checks  uint64 // comparisons performed
	skips   uint64 // comparisons skipped (racy, transitional, undefined)
	adopted uint64 // unknown lines adopted on first read

	// Violations.
	vioIntegrity uint64
	vioQueue     uint64
	vioLiveness  uint64
	vios         []Violation

	// Watchdog.
	wdBudget sim.Cycle
	inflight map[uint64]txInfo
	nextTx   uint64
	wdArmed  bool
	tripped  bool
}

// New builds one machine's oracles, or returns nil (every check a no-op)
// when cfg enables none.
func New(cfg Config, eng *sim.Engine, tr *txtrace.Tracer) *Oracles {
	if !cfg.Enabled() {
		return nil
	}
	o := &Oracles{cfg: cfg, eng: eng, tr: tr}
	if cfg.Shadow {
		o.shadow = make(map[memdata.Addr]*shadowLine)
		o.transitional = make(map[memdata.Addr]int)
	}
	if cfg.Watchdog {
		o.wdBudget = cfg.WatchdogBudget
		if o.wdBudget == 0 {
			o.wdBudget = DefaultWatchdogBudget
		}
		o.inflight = make(map[uint64]txInfo)
	}
	return o
}

// ShadowOn/WatchdogOn/QueuesOn let callers skip closure allocations when
// the corresponding oracle is off.
func (o *Oracles) ShadowOn() bool   { return o != nil && o.cfg.Shadow }
func (o *Oracles) WatchdogOn() bool { return o != nil && o.cfg.Watchdog && !o.tripped }
func (o *Oracles) QueuesOn() bool   { return o != nil && o.cfg.Queues }

func (o *Oracles) violate(kind string, addr uint64, what string) {
	now := uint64(0)
	if o.eng != nil {
		now = uint64(o.eng.Now())
	}
	switch kind {
	case KindIntegrity:
		o.vioIntegrity++
	case KindQueue:
		o.vioQueue++
	case KindLiveness:
		o.vioLiveness++
	}
	if len(o.vios) < maxViolations {
		o.vios = append(o.vios, Violation{Kind: kind, What: what, Addr: addr, Cycle: now})
	}
	ak := txtrace.AnomalyInvariant
	if kind == KindLiveness {
		ak = txtrace.AnomalyWatchdog
	}
	o.tr.Anomaly(ak, 0, addr, now)
}

// ---------------------------------------------------------------------------
// Shadow-memory oracle
// ---------------------------------------------------------------------------

func (o *Oracles) line(a memdata.Addr) *shadowLine {
	sl := o.shadow[a]
	if sl == nil {
		sl = &shadowLine{}
		o.shadow[a] = sl
	}
	return sl
}

// ObserveWrite replays a CPU-visible full-line write into the shadow. Call
// at the cycle the write becomes forwardable (BPQ hold install, BPQ merge,
// WPQ accept) — that is when reads can first return it.
func (o *Oracles) ObserveWrite(a memdata.Addr, data []byte) {
	if o == nil || !o.cfg.Shadow {
		return
	}
	sl := o.line(a)
	if sl.data == nil {
		sl.data = make([]byte, memdata.LineSize)
	}
	copy(sl.data, data)
	sl.state = stKnown
	sl.upd = o.eng.Now()
}

// ObserveInit replays a backdoor (pre-simulation) seeding write, e.g.
// Machine.FillRandom. Only lines fully inside [a, a+len(data)) become
// known; edge partials stay unknown and are adopted on first read.
func (o *Oracles) ObserveInit(a memdata.Addr, data []byte) {
	if o == nil || !o.cfg.Shadow {
		return
	}
	start := memdata.LineUp(a)
	end := memdata.LineAlign(a + memdata.Addr(len(data)))
	for l := start; l < end; l += memdata.LineSize {
		o.ObserveWrite(l, data[l-a:l-a+memdata.LineSize])
	}
}

// ObserveCopy replays an accepted lazy copy (dst ← src, byte-granular)
// eagerly into the shadow, propagating known/undefined state per
// destination line. Call at MCLAZY accept time: from that cycle on, reads
// of dst must return the copied bytes.
func (o *Oracles) ObserveCopy(dst memdata.Range, src memdata.Addr) {
	if o == nil || !o.cfg.Shadow || dst.Size == 0 {
		return
	}
	now := o.eng.Now()
	delta := src - dst.Start // add to a dst address to get its src address
	for _, dl := range dst.Lines() {
		part := dst.Intersect(memdata.Range{Start: dl, Size: memdata.LineSize})
		full := part.Size == memdata.LineSize

		// Classify the source bytes feeding this destination line.
		srcR := memdata.Range{Start: part.Start + delta, Size: part.Size}
		st := stKnown
		for _, slAddr := range srcR.Lines() {
			switch s := o.shadow[slAddr]; {
			case s == nil || s.state == stUnknown:
				if st == stKnown {
					st = stUnknown
				}
			case s.state == stUndef:
				st = stUndef
			}
			if st == stUndef {
				break
			}
		}
		dlsl := o.line(dl)
		// A partial overwrite needs the destination's prior bytes too.
		if !full && st == stKnown && dlsl.state != stKnown {
			st = dlsl.state // unknown or undef: can't compose a known value
		}
		switch st {
		case stKnown:
			if dlsl.data == nil {
				dlsl.data = make([]byte, memdata.LineSize)
			}
			for i := uint64(0); i < part.Size; i++ {
				sa := part.Start + delta + memdata.Addr(i)
				dlsl.data[part.Start-dl+memdata.Addr(i)] = o.shadow[memdata.LineAlign(sa)].data[memdata.LineOffset(sa)]
			}
			dlsl.state = stKnown
		case stUndef:
			dlsl.state = stUndef
			dlsl.data = nil
		default:
			dlsl.state = stUnknown
			dlsl.data = nil
		}
		dlsl.upd = now
	}
}

// ObserveFree marks every line overlapping r as undefined: MCFREE declares
// the buffer dead, so reads return unspecified bytes until rewritten.
func (o *Oracles) ObserveFree(r memdata.Range) {
	if o == nil || !o.cfg.Shadow || r.Size == 0 {
		return
	}
	now := o.eng.Now()
	for _, l := range r.Lines() {
		sl := o.line(l)
		sl.state = stUndef
		sl.data = nil
		sl.upd = now
	}
}

// BeginInternalWrite marks a line transitional: the engine untracked it
// and the materializing write is still waiting for queue acceptance, so
// the line's visible value is ambiguous. CheckRead skips it.
func (o *Oracles) BeginInternalWrite(a memdata.Addr) {
	if o == nil || !o.cfg.Shadow {
		return
	}
	o.transitional[a]++
}

// EndInternalWrite clears the transitional mark once the write is
// accepted (forwardable).
func (o *Oracles) EndInternalWrite(a memdata.Addr) {
	if o == nil || !o.cfg.Shadow {
		return
	}
	if o.transitional[a]--; o.transitional[a] <= 0 {
		delete(o.transitional, a)
	}
	if sl := o.shadow[a]; sl != nil {
		sl.upd = o.eng.Now()
	}
}

// CheckRead byte-compares a line returned by the memory system against the
// shadow. bound is the cycle the returned value was bound (see the package
// comment); a mismatch on a line whose shadow was updated at-or-after
// bound is racy and skipped, not a violation.
func (o *Oracles) CheckRead(a memdata.Addr, data []byte, bound sim.Cycle) {
	if o == nil || !o.cfg.Shadow {
		return
	}
	sl := o.shadow[a]
	if sl == nil || sl.state == stUnknown {
		// First observation: adopt the simulator's value as ground truth.
		o.adopted++
		sl = o.line(a)
		sl.data = append(sl.data[:0], data...)
		sl.state = stKnown
		sl.upd = bound
		return
	}
	if sl.state == stUndef || o.transitional[a] > 0 {
		o.skips++
		return
	}
	o.checks++
	if bytes.Equal(sl.data, data) {
		return
	}
	if sl.upd >= bound {
		o.checks--
		o.skips++
		return
	}
	o.violate(KindIntegrity, uint64(a),
		fmt.Sprintf("read returned %x… want %x… (value bound at cycle %d, shadow updated at %d)",
			firstDiff(data, sl.data), firstDiff(sl.data, data), bound, sl.upd))
}

// CheckFreeLine byte-compares the visible value of one line at MCFREE time
// (the engine computes it synchronously via its peek path).
func (o *Oracles) CheckFreeLine(a memdata.Addr, data []byte) {
	if o == nil || !o.cfg.Shadow {
		return
	}
	sl := o.shadow[a]
	if sl == nil || sl.state != stKnown || o.transitional[a] > 0 {
		o.skips++
		return
	}
	o.checks++
	if !bytes.Equal(sl.data, data) {
		o.violate(KindIntegrity, uint64(a),
			fmt.Sprintf("MCFREE-time value %x… diverges from shadow %x…",
				firstDiff(data, sl.data), firstDiff(sl.data, data)))
	}
}

// firstDiff returns an 8-byte window of a starting at the first byte where
// a and b differ, for violation messages.
func firstDiff(a, b []byte) []byte {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	end := i + 8
	if end > len(a) {
		end = len(a)
	}
	return a[i:end]
}

// ---------------------------------------------------------------------------
// Queue-occupancy invariants
// ---------------------------------------------------------------------------

// CheckQueue asserts 0 ≤ used ≤ capacity for the named queue. Call after
// every occupancy mutation; the cost when enabled is two comparisons.
func (o *Oracles) CheckQueue(name string, used, capacity int) {
	if o == nil || !o.cfg.Queues {
		return
	}
	if used < 0 || used > capacity {
		o.violate(KindQueue, 0, fmt.Sprintf("%s occupancy %d outside [0, %d]", name, used, capacity))
	}
}

// CheckRefcount asserts a named refcount never goes negative.
func (o *Oracles) CheckRefcount(name string, v int) {
	if o == nil || !o.cfg.Queues {
		return
	}
	if v < 0 {
		o.violate(KindQueue, 0, fmt.Sprintf("%s refcount went negative (%d)", name, v))
	}
}

// ---------------------------------------------------------------------------
// Transaction liveness watchdog
// ---------------------------------------------------------------------------

// TxBegin registers an in-flight transaction on addr and returns its id
// (0 when the watchdog is off — TxEnd(0) is a no-op). The first in-flight
// transaction arms a periodic sweep; the sweep disarms itself when the set
// empties, so a drained simulation terminates normally.
func (o *Oracles) TxBegin(addr uint64) uint64 {
	if o == nil || !o.cfg.Watchdog || o.tripped {
		return 0
	}
	o.nextTx++
	id := o.nextTx
	o.inflight[id] = txInfo{addr: addr, start: o.eng.Now()}
	if !o.wdArmed {
		o.wdArmed = true
		o.eng.After(o.sweepPeriod(), o.sweep)
	}
	return id
}

// TxEnd retires an in-flight transaction.
func (o *Oracles) TxEnd(id uint64) {
	if o == nil || id == 0 {
		return
	}
	delete(o.inflight, id)
}

func (o *Oracles) sweepPeriod() sim.Cycle {
	p := o.wdBudget / 4
	if p == 0 {
		p = 1
	}
	return p
}

func (o *Oracles) sweep() {
	if o.tripped {
		return
	}
	if len(o.inflight) == 0 {
		o.wdArmed = false
		return
	}
	now := o.eng.Now()
	var worst txInfo
	for _, ti := range o.inflight {
		if worst.start == 0 || ti.start < worst.start {
			worst = ti
		}
	}
	if age := now - worst.start; age > o.wdBudget {
		o.trip(worst, age)
		return
	}
	o.eng.After(o.sweepPeriod(), o.sweep)
}

// trip records the liveness violation, dumps the flight recorder, and
// panics. The panic unwinds the engine's Drain/Step caller — the runner
// converts it into a structured job error ("fail loudly").
func (o *Oracles) trip(worst txInfo, age sim.Cycle) {
	o.tripped = true
	o.violate(KindLiveness, worst.addr,
		fmt.Sprintf("tx in flight for %d cycles (budget %d, %d in flight)", age, o.wdBudget, len(o.inflight)))
	if o.cfg.DumpPath != "" && o.tr != nil {
		if f, err := os.Create(o.cfg.DumpPath); err == nil {
			o.tr.Dump(f)
			f.Close()
		}
	}
	panic(&WatchdogTrip{Addr: worst.addr, Age: age, Budget: o.wdBudget, Inflight: len(o.inflight)})
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

// TotalViolations returns the number of violations recorded (including
// any past the bounded list).
func (o *Oracles) TotalViolations() uint64 {
	if o == nil {
		return 0
	}
	return o.vioIntegrity + o.vioQueue + o.vioLiveness
}

// Violations returns the recorded violations (bounded at maxViolations).
func (o *Oracles) Violations() []Violation {
	if o == nil {
		return nil
	}
	return append([]Violation(nil), o.vios...)
}

// Checks returns (performed, skipped, adopted) comparison counts.
func (o *Oracles) Checks() (checks, skips, adopted uint64) {
	if o == nil {
		return 0, 0, 0
	}
	return o.checks, o.skips, o.adopted
}

// PublishMetrics registers invariant.* counters (machine.New passes
// Scope("invariant")). Registration happens only when oracles exist, so a
// plain machine's metric name set is unchanged.
func (o *Oracles) PublishMetrics(s metrics.Scope) {
	if o == nil {
		return
	}
	s.Counter("checks", &o.checks)
	s.Counter("checks_skipped", &o.skips)
	s.Counter("adopted", &o.adopted)
	s.Counter("violations.integrity", &o.vioIntegrity)
	s.Counter("violations.queue", &o.vioQueue)
	s.Counter("violations.liveness", &o.vioLiveness)
	s.CounterFunc("watchdog.inflight", func() uint64 {
		if o.inflight == nil {
			return 0
		}
		return uint64(len(o.inflight))
	})
}

// sortViolations orders violations deterministically (cycle, addr, what)
// for aggregated reporting.
func sortViolations(vs []Violation) {
	sort.Slice(vs, func(i, j int) bool {
		if vs[i].Cycle != vs[j].Cycle {
			return vs[i].Cycle < vs[j].Cycle
		}
		if vs[i].Addr != vs[j].Addr {
			return vs[i].Addr < vs[j].Addr
		}
		return vs[i].What < vs[j].What
	})
}
