// Package txtrace is the simulator's transaction tracer: a structured,
// low-overhead record of individual memory operations as they move through
// the hierarchy — CPU issue, L1/L2 lookup, interconnect hop, controller
// queues (RPQ/WPQ), the (MC)² CTT lookup and BPQ bounce machinery, and the
// DRAM bank/row access — organized as span trees keyed by a transaction ID
// (Tx) threaded through the existing callback plumbing.
//
// Design constraints, in priority order:
//
//  1. Zero cost when disabled. A disabled tracer is a nil *Tracer; every
//     method is nil-safe and the untraced fast path (tx == 0) is a single
//     predictable branch. No closures are allocated for untraced spans —
//     call sites only wrap a completion callback after checking the span
//     id is nonzero, and prefer Complete() (no closure at all) wherever
//     the end time is known synchronously.
//
//  2. Bounded memory. Spans land in a fixed-size ring buffer — a flight
//     recorder, not a log: under sustained load old spans are overwritten
//     and the recorder always holds the most recent window. Per-stage
//     latency histograms are fed at span end regardless of ring residency,
//     so aggregate distributions survive wrap-around.
//
//  3. Determinism. Sampling is counter-based (every Nth root transaction),
//     not random, and span ids are assigned in event order, so two runs of
//     the same deterministic simulation produce byte-identical traces.
//
// The tracer exports two ways: Chrome/Perfetto trace-event JSON (Export)
// for timeline inspection, and per-stage latency histograms plus p50/p95/
// p99 gauges published into a metrics.Registry scope (PublishMetrics) so
// mcfigures -stats and runner snapshots pick them up automatically.
//
// Anomaly triggers: the (MC)² engine reports BPQ saturation and WPQ-reject
// throttling events through Anomaly(); each is recorded as an instant span,
// counted, kept in a bounded list, and forwarded to an optional hook — the
// hook typically dumps the flight recorder, turning a failure-injection
// detection into a diagnosable timeline.
package txtrace

import "mcsquare/internal/stats"

// Tx identifies one traced span. Zero means "untraced": every producer
// checks for it with one branch and skips all recording work.
type Tx = uint64

// Stage labels what a span measures. Stage names double as metric name
// components ("txtrace.<stage>...") and Chrome trace event names.
type Stage uint8

const (
	// CPU-issued root operations, one span per cacheline touched.
	StageCPULoad Stage = iota
	StageCPUStore
	StageCPUNTStore
	StageCPUCLWB
	StageCPUMCLazy
	StageCPUMCFree

	// Cache hierarchy.
	StageL1Hit
	StageL1Miss
	StageMSHRWait
	StageL2Hit
	StageL2Miss

	// Interconnect.
	StageXConHop

	// Memory controller queues and DRAM.
	StageRPQWait
	StageWPQWait
	StageWPQForward
	StageDRAMRead
	StageDRAMWrite

	// (MC)² machinery.
	StageISAPacket       // MCLAZY/MCFREE packet: flush + broadcast + ack
	StageCTTInsert       // engine-side MCLAZY service, including stalls
	StageCTTHit          // destination read matched a CTT entry
	StageBounce          // full bounce: redirect, compose, return
	StageBounceSrcRead   // one source-line fetch of a bounce
	StageBounceWriteback // reconstructed line written back to memory
	StageBPQForward      // read serviced from a BPQ-held line
	StageBPQMerge        // CPU write merged into a held line
	StageBPQWait         // source write waiting for a BPQ slot
	StageBPQHold         // source write held while dependents copy
	StageFree            // async free worker copying one line

	// Anomaly instants (see Anomaly).
	StageAnomalyBPQ
	StageAnomalyWPQ
	StageFaultInject        // a fault-injection plane fired (internal/faultinject)
	StageInvariantViolation // a runtime invariant oracle tripped (internal/invariant)

	numStages
)

var stageNames = [numStages]string{
	"cpu.load", "cpu.store", "cpu.nt_store", "cpu.clwb", "cpu.mclazy", "cpu.mcfree",
	"l1.hit", "l1.miss", "l1.mshr_wait", "l2.hit", "l2.miss",
	"xcon.hop",
	"mc.rpq_wait", "mc.wpq_wait", "mc.wpq_forward", "dram.read", "dram.write",
	"isa.packet", "ctt.insert", "ctt.hit",
	"mc2.bounce", "mc2.bounce_src_read", "mc2.bounce_writeback",
	"mc2.bpq_forward", "mc2.bpq_merge", "mc2.bpq_wait", "mc2.bpq_hold",
	"mc2.free",
	"anomaly.bpq_saturated", "anomaly.wpq_reject",
	"fault.inject", "invariant.violation",
}

func (s Stage) String() string {
	if s < numStages {
		return stageNames[s]
	}
	return "stage(?)"
}

// StageNames returns every stage name (for validation tooling).
func StageNames() []string {
	return append([]string(nil), stageNames[:]...)
}

// Flags annotate a span.
type Flags uint8

const (
	FlagDone     Flags = 1 << iota // End/Complete ran; Start..End is valid
	FlagWrite                      // the operation is a write
	FlagRowHit                     // DRAM access hit the open row
	FlagRowMiss                    // DRAM access missed the open row
	FlagRejected                   // writeback refused (WPQ over threshold)
)

// Track values for spans not owned by a CPU core. Core-owned spans use the
// core id (>= 0) as their track.
const (
	TrackEngine int32 = -1 // (MC)² background machinery (frees, anomalies)
	TrackOrphan int32 = -2 // parent span already evicted from the ring
)

// Span is one recorded interval. Times are simulated cycles.
type Span struct {
	ID     Tx
	Parent Tx // 0 for roots
	Root   Tx // transaction id: the root span of this tree
	Start  uint64
	End    uint64
	Addr   uint64
	Track  int32
	Stage  Stage
	Flags  Flags
}

// Config sizes and gates a Tracer.
type Config struct {
	// Enabled gates tracing; when false, New returns nil (the zero-cost
	// disabled tracer).
	Enabled bool
	// SampleEvery records every Nth root transaction (deterministic,
	// counter-based). Values <= 1 record all of them.
	SampleEvery int
	// BufferSpans is the flight-recorder capacity, rounded up to a power
	// of two. <= 0 uses the default of 65536 spans (~3.5 MB).
	BufferSpans int
}

const defaultBufferSpans = 1 << 16

// AnomalyKind discriminates the trigger events the (MC)² engine reports.
type AnomalyKind uint8

const (
	AnomalyBPQSaturated  AnomalyKind = iota // source write waited for a BPQ slot
	AnomalyWPQReject                        // bounce writeback refused (WPQ > threshold)
	AnomalyFaultInjected                    // a fault-injection plane fired (MC field carries the fault kind)
	AnomalyInvariant                        // a runtime invariant oracle recorded a violation
	AnomalyWatchdog                         // the transaction liveness watchdog tripped
	numAnomalyKinds
)

func (k AnomalyKind) String() string {
	switch k {
	case AnomalyBPQSaturated:
		return "bpq_saturated"
	case AnomalyWPQReject:
		return "wpq_reject"
	case AnomalyFaultInjected:
		return "fault_injected"
	case AnomalyInvariant:
		return "invariant_violation"
	case AnomalyWatchdog:
		return "watchdog_trip"
	}
	return "anomaly(?)"
}

var anomalyStage = [numAnomalyKinds]Stage{
	StageAnomalyBPQ, StageAnomalyWPQ,
	StageFaultInject, StageInvariantViolation, StageInvariantViolation,
}

// Anomaly is one trigger event.
type Anomaly struct {
	Kind  AnomalyKind
	MC    int // controller index reporting the event
	Addr  uint64
	Cycle uint64
}

// Tracer is one machine's flight recorder. All methods are safe on a nil
// receiver (the disabled tracer) and run in engine (event) context — the
// simulator guarantees single-threaded access, so there is no locking.
type Tracer struct {
	sampleEvery uint64
	rootsSeen   uint64 // roots offered to BeginRoot (sampled or not)
	nextID      Tx     // next span id; ids start at 1
	ring        []Span
	mask        uint64
	spansLost   uint64 // End calls whose span was already overwritten

	hists      [numStages]stats.Histogram
	anomCounts [numAnomalyKinds]uint64
	anomalyFn  func(Anomaly)
}

// New builds a tracer, or returns nil (the disabled tracer) when
// cfg.Enabled is false.
func New(cfg Config) *Tracer {
	if !cfg.Enabled {
		return nil
	}
	n := cfg.BufferSpans
	if n <= 0 {
		n = defaultBufferSpans
	}
	size := 1
	for size < n {
		size <<= 1
	}
	every := uint64(1)
	if cfg.SampleEvery > 1 {
		every = uint64(cfg.SampleEvery)
	}
	return &Tracer{
		sampleEvery: every,
		nextID:      1,
		ring:        make([]Span, size),
		mask:        uint64(size - 1),
	}
}

// Enabled reports whether the tracer records anything.
func (t *Tracer) Enabled() bool { return t != nil }

// BeginRoot starts a new transaction (a root span) on the given track if
// the deterministic sampler selects it; otherwise it returns 0 and the
// whole tree is skipped at zero cost.
func (t *Tracer) BeginRoot(stage Stage, track int32, addr uint64, now uint64) Tx {
	if t == nil {
		return 0
	}
	t.rootsSeen++
	if (t.rootsSeen-1)%t.sampleEvery != 0 {
		return 0
	}
	id := t.nextID
	t.nextID++
	t.ring[id&t.mask] = Span{
		ID: id, Root: id, Start: now, Addr: addr, Track: track, Stage: stage,
	}
	return id
}

// Begin starts a child span under parent. Untraced parents (0) propagate:
// the child is untraced too.
func (t *Tracer) Begin(parent Tx, stage Stage, addr uint64, now uint64) Tx {
	if parent == 0 || t == nil {
		return 0
	}
	id := t.nextID
	t.nextID++
	root, track := parent, TrackOrphan
	if ps := &t.ring[parent&t.mask]; ps.ID == parent {
		root, track = ps.Root, ps.Track
	}
	t.ring[id&t.mask] = Span{
		ID: id, Parent: parent, Root: root, Start: now, Addr: addr, Track: track, Stage: stage,
	}
	return id
}

// End closes a span: the stage histogram records its latency and, if the
// span still lives in the ring, its record is completed.
func (t *Tracer) End(id Tx, now uint64) { t.EndFlags(id, now, 0) }

// EndFlags is End with extra annotation flags.
func (t *Tracer) EndFlags(id Tx, now uint64, flags Flags) {
	if id == 0 || t == nil {
		return
	}
	sp := &t.ring[id&t.mask]
	if sp.ID != id {
		// Overwritten before completion: the latency is unknowable, count
		// the loss instead of feeding a bogus histogram sample.
		t.spansLost++
		return
	}
	sp.End = now
	sp.Flags |= FlagDone | flags
	t.hists[sp.Stage].Add(float64(now - sp.Start))
}

// Complete records a child span whose duration is already known — the
// common case for latencies computed synchronously (bus hops, DRAM access
// completion times, L1 hit latency). It allocates nothing and needs no
// closure at the call site.
func (t *Tracer) Complete(parent Tx, stage Stage, addr uint64, start, end uint64, flags Flags) {
	if parent == 0 || t == nil {
		return
	}
	id := t.nextID
	t.nextID++
	root, track := parent, TrackOrphan
	if ps := &t.ring[parent&t.mask]; ps.ID == parent {
		root, track = ps.Root, ps.Track
	}
	t.ring[id&t.mask] = Span{
		ID: id, Parent: parent, Root: root, Start: start, End: end,
		Addr: addr, Track: track, Stage: stage, Flags: FlagDone | flags,
	}
	t.hists[stage].Add(float64(end - start))
}

// Anomaly records a trigger event: an instant span on the engine track
// (recorded even when sampling skips regular transactions — anomalies are
// the needles the recorder exists for), a counter, and the optional hook. The hook runs synchronously in engine context and
// must not mutate simulation state; dumping the recorder is its job.
func (t *Tracer) Anomaly(kind AnomalyKind, mc int, addr uint64, now uint64) {
	if t == nil {
		return
	}
	t.anomCounts[kind]++
	id := t.nextID
	t.nextID++
	t.ring[id&t.mask] = Span{
		ID: id, Root: id, Start: now, End: now, Addr: addr,
		Track: TrackEngine, Stage: anomalyStage[kind], Flags: FlagDone,
	}
	if t.anomalyFn != nil {
		t.anomalyFn(Anomaly{Kind: kind, MC: mc, Addr: addr, Cycle: now})
	}
}

// SetAnomalyHook installs fn, called synchronously on every anomaly.
func (t *Tracer) SetAnomalyHook(fn func(Anomaly)) {
	if t == nil {
		return
	}
	t.anomalyFn = fn
}

// AnomalyCount returns how many anomalies of the kind were reported
// (unbounded).
func (t *Tracer) AnomalyCount(kind AnomalyKind) uint64 {
	if t == nil {
		return 0
	}
	return t.anomCounts[kind]
}

// Spans returns every live, completed span in id order — the flight
// recorder's current window. Intended for tests and dump paths.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	var out []Span
	lo, hi := t.liveRange()
	for id := lo; id < hi; id++ {
		if sp := t.ring[id&t.mask]; sp.ID == id && sp.Flags&FlagDone != 0 {
			out = append(out, sp)
		}
	}
	return out
}

// SpansRecorded returns the total number of spans ever recorded (including
// ones since evicted from the ring).
func (t *Tracer) SpansRecorded() uint64 {
	if t == nil {
		return 0
	}
	return t.nextID - 1
}

// SpansLost returns how many spans were evicted before their End arrived.
func (t *Tracer) SpansLost() uint64 {
	if t == nil {
		return 0
	}
	return t.spansLost
}

// StageCount returns how many completed spans the stage histogram has seen
// (survives ring wrap-around).
func (t *Tracer) StageCount(s Stage) int {
	if t == nil {
		return 0
	}
	return t.hists[s].N()
}

// liveRange returns the half-open span-id interval currently backed by the
// ring: the last len(ring) ids assigned.
func (t *Tracer) liveRange() (lo, hi uint64) {
	hi = t.nextID
	lo = 1
	if assigned := hi - 1; assigned > uint64(len(t.ring)) {
		lo = hi - uint64(len(t.ring))
	}
	return lo, hi
}
