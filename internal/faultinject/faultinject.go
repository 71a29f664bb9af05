// Package faultinject is the deterministic fault-injection plane: a
// seeded schedule of adverse events (CTT eviction storms, BPQ stall
// windows, WPQ writeback rejections, interconnect packet delay and
// duplication, transient DRAM read corruption) that components consult at
// well-defined decision points. Firing is purely counter-based — the Nth
// offered event of a kind fires, with a seed-derived phase per plane — so
// a schedule replays byte-identically regardless of wall clock, worker
// count, or host: the same simulation offers the same event sequence, so
// the same faults fire at the same simulated cycles.
//
// A Schedule is reproducible from a single uint64 seed (FromSeed) and
// serializable to JSON; one Plane is built per machine (machine.New builds
// it when the machine's run environment carries an active schedule). A nil
// *Plane is a valid no-op: every query costs one nil
// check, so the plane can be threaded through hot paths unconditionally.
package faultinject

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"mcsquare/internal/metrics"
	"mcsquare/internal/txtrace"
)

// Kind enumerates the injectable faults.
type Kind uint8

const (
	KindCTTEvict    Kind = iota // forced eviction of a CTT entry on MCLAZY accept
	KindBPQStall                // a BPQ acquisition is stalled for a window
	KindWPQReject               // a bounce writeback is rejected regardless of occupancy
	KindXConDelay               // an interconnect packet is dropped; sender retransmits with backoff
	KindXConDup                 // an interconnect packet is duplicated (bandwidth charged twice)
	KindDRAMCorrupt             // a DRAM read returns a single-bit upset; ECC detects, re-read
	NumKinds
)

var kindNames = [NumKinds]string{
	"ctt_evict", "bpq_stall", "wpq_reject", "xcon_delay", "xcon_dup", "dram_corrupt",
}

func (k Kind) String() string {
	if k < NumKinds {
		return kindNames[k]
	}
	return "kind(?)"
}

// Schedule is a deterministic fault schedule. A kind with Every == 0 never
// fires; otherwise every Every-th offered event of that kind fires (with a
// per-plane, seed-derived phase so distinct machines are not in lockstep).
// Window kinds (BPQ stall, interconnect delay) carry a duration in cycles.
//
// The fleet-scoped fields describe storms above the micro level: whole
// machines crashing and recovering, brownout windows that inflate a
// machine's calibrated service times, and lost LB health probes. They are
// consumed by internal/fleet's event loop on its completion-heap timebase
// (seeded per-machine streams derived from Seed), not by per-machine
// Planes; a zero value for all of them means the fleet never degrades.
type Schedule struct {
	Seed uint64 `json:"seed"`

	CTTEvictEvery    uint64 `json:"ctt_evict_every"`
	BPQStallEvery    uint64 `json:"bpq_stall_every"`
	BPQStallCycles   uint64 `json:"bpq_stall_cycles"`
	WPQRejectEvery   uint64 `json:"wpq_reject_every"`
	XConDelayEvery   uint64 `json:"xcon_delay_every"`
	XConDelayCycles  uint64 `json:"xcon_delay_cycles"`
	XConDupEvery     uint64 `json:"xcon_dup_every"`
	DRAMCorruptEvery uint64 `json:"dram_corrupt_every"`

	// CrashMeanUpCycles / CrashMeanDownCycles parameterize per-machine
	// crash+recover alternation: exponential up-times with the given mean,
	// then exponential down-times. Zero up-time mean disables crashes.
	CrashMeanUpCycles   float64 `json:"crash_mean_up_cycles,omitempty"`
	CrashMeanDownCycles float64 `json:"crash_mean_down_cycles,omitempty"`
	// Brownout windows multiply a machine's service samples by
	// BrownoutFactor while active. Zero up-time mean disables brownouts.
	BrownoutMeanUpCycles float64 `json:"brownout_mean_up_cycles,omitempty"`
	BrownoutMeanCycles   float64 `json:"brownout_mean_cycles,omitempty"`
	BrownoutFactor       float64 `json:"brownout_factor,omitempty"`
	// ProbeLossEvery drops every Nth health probe per machine (with a
	// seed-derived per-machine phase), exercising the fail/restore
	// thresholds even on healthy machines. Zero means lossless probes.
	ProbeLossEvery uint64 `json:"probe_loss_every,omitempty"`
}

// splitmix64 is the SplitMix64 mixing function: a bijective avalanche over
// uint64, the standard way to derive independent streams from one seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// FromSeed derives a full chaos schedule from one seed: every kind active,
// with rates in [16, 80) offered events and windows in [128, 1152) cycles,
// plus a fleet storm (FleetStormFromSeed) over the same seed. The
// derivation is pure, so the same seed is the same schedule forever; the
// micro-kind mixing is untouched by the fleet fields, so pre-storm seeds
// still derive the same per-machine plane behavior.
func FromSeed(seed uint64) Schedule {
	rate := func(k Kind) uint64 { return 16 + splitmix64(seed^uint64(k)<<8)%64 }
	window := func(k Kind) uint64 { return 128 + splitmix64(seed^uint64(k)<<16)%1024 }
	s := FleetStormFromSeed(seed)
	s.CTTEvictEvery = rate(KindCTTEvict)
	s.BPQStallEvery = rate(KindBPQStall)
	s.BPQStallCycles = window(KindBPQStall)
	s.WPQRejectEvery = rate(KindWPQReject)
	s.XConDelayEvery = rate(KindXConDelay)
	s.XConDelayCycles = window(KindXConDelay)
	s.XConDupEvery = rate(KindXConDup)
	s.DRAMCorruptEvery = rate(KindDRAMCorrupt)
	return s
}

// Fleet-field derivation tags: distinct mixing inputs so adding the fleet
// storm to FromSeed could not perturb the micro-kind rates and windows
// (which committed chaos goldens depend on).
const (
	tagCrashUp   = 0xF1EE70001
	tagCrashDown = 0xF1EE70002
	tagBrownUp   = 0xF1EE70003
	tagBrownLen  = 0xF1EE70004
	tagBrownMul  = 0xF1EE70005
	tagProbeLoss = 0xF1EE70006
	tagFleetKind = 0xF1EE70000 // base for per-(machine, kind) stream seeds
)

// FleetStormFromSeed derives only the fleet-scoped storm from a seed:
// crash up-times averaging 0.4–1.2M cycles against 40–160k down-times,
// more frequent brownouts inflating service 2–7x, and 1-in-[6,30) probe
// loss. Micro kinds stay zero, so single-machine planes never fire.
func FleetStormFromSeed(seed uint64) Schedule {
	cyc := func(tag, lo, span uint64) float64 {
		return float64(lo + splitmix64(seed^uint64(tag))%span)
	}
	return Schedule{
		Seed:                 seed,
		CrashMeanUpCycles:    cyc(tagCrashUp, 400_000, 800_000),
		CrashMeanDownCycles:  cyc(tagCrashDown, 40_000, 120_000),
		BrownoutMeanUpCycles: cyc(tagBrownUp, 200_000, 400_000),
		BrownoutMeanCycles:   cyc(tagBrownLen, 50_000, 150_000),
		BrownoutFactor:       float64(2 + splitmix64(seed^uint64(tagBrownMul))%6),
		ProbeLossEvery:       6 + splitmix64(seed^uint64(tagProbeLoss))%24,
	}
}

// FleetStreamSeed derives the deterministic RNG-stream seed for one
// machine's fleet-fault stream of the given kind index (crash timing,
// brownout timing, ...). Pure, so replays are exact at any -jobs.
func (s Schedule) FleetStreamSeed(machine, kind int) uint64 {
	return splitmix64(s.Seed ^ uint64(machine)<<40 ^ uint64(tagFleetKind+kind))
}

// FleetActive reports whether any fleet-scoped storm field can degrade a
// machine or a probe.
func (s Schedule) FleetActive() bool {
	return s.CrashMeanUpCycles > 0 || s.BrownoutMeanUpCycles > 0 || s.ProbeLossEvery > 0
}

// ScaleFleet scales the fleet storm's intensity: 0 turns it off entirely,
// 1 is the schedule as-is, larger values shrink the mean healthy windows
// proportionally (and probe loss periods, floored at every-probe). Micro
// kinds are untouched; the figureResilience intensity axis uses this.
func (s Schedule) ScaleFleet(intensity float64) Schedule {
	if intensity <= 0 {
		s.CrashMeanUpCycles, s.CrashMeanDownCycles = 0, 0
		s.BrownoutMeanUpCycles, s.BrownoutMeanCycles, s.BrownoutFactor = 0, 0, 0
		s.ProbeLossEvery = 0
		return s
	}
	s.CrashMeanUpCycles /= intensity
	s.BrownoutMeanUpCycles /= intensity
	if s.ProbeLossEvery > 0 {
		scaled := uint64(float64(s.ProbeLossEvery) / intensity)
		if scaled < 1 {
			scaled = 1
		}
		s.ProbeLossEvery = scaled
	}
	return s
}

// every returns the firing period for a kind (0 = off).
func (s Schedule) every(k Kind) uint64 {
	switch k {
	case KindCTTEvict:
		return s.CTTEvictEvery
	case KindBPQStall:
		return s.BPQStallEvery
	case KindWPQReject:
		return s.WPQRejectEvery
	case KindXConDelay:
		return s.XConDelayEvery
	case KindXConDup:
		return s.XConDupEvery
	case KindDRAMCorrupt:
		return s.DRAMCorruptEvery
	}
	return 0
}

// window returns the stall/delay duration for a window kind.
func (s Schedule) window(k Kind) uint64 {
	switch k {
	case KindBPQStall:
		return s.BPQStallCycles
	case KindXConDelay:
		return s.XConDelayCycles
	}
	return 0
}

// Active reports whether any fault — micro kind or fleet storm — can
// fire. A fleet-only schedule is active so a run environment carries it to
// the fleet event loop even though no per-machine plane would ever fire.
func (s Schedule) Active() bool {
	for k := Kind(0); k < NumKinds; k++ {
		if s.every(k) != 0 {
			return true
		}
	}
	return s.FleetActive()
}

// WriteJSON serializes the schedule (the CI chaos job uploads it as the
// reproduction artifact).
func (s Schedule) WriteJSON(path string) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ParseSpec resolves a -faults flag value: a bare integer (decimal or 0x…)
// is a seed expanded via FromSeed; anything else is a path to a schedule
// JSON file.
func ParseSpec(spec string) (Schedule, error) {
	if seed, err := strconv.ParseUint(spec, 0, 64); err == nil {
		return FromSeed(seed), nil
	}
	b, err := os.ReadFile(spec)
	if err != nil {
		return Schedule{}, fmt.Errorf("faultinject: reading schedule: %w", err)
	}
	var s Schedule
	if err := json.Unmarshal(b, &s); err != nil {
		return Schedule{}, fmt.Errorf("faultinject: parsing %s: %w", spec, err)
	}
	return s, nil
}

// anomalyKindFor maps fault kinds to the txtrace anomaly recorded when
// they fire. All faults share AnomalyFaultInjected; the anomaly's MC field
// carries the fault kind.
const faultAnomaly = txtrace.AnomalyFaultInjected

// Plane is one machine's fault injector. All methods are nil-safe and run
// in engine (event) context, so no locking is needed past construction.
type Plane struct {
	sched Schedule
	tr    *txtrace.Tracer
	rng   uint64 // deterministic aux stream (corruption bit choice)

	every   [NumKinds]uint64
	phase   [NumKinds]uint64
	windows [NumKinds]uint64
	offered [NumKinds]uint64
	fired   [NumKinds]uint64
}

// NewPlane builds the plane for the idx-th machine of a run. The phase of
// each kind is derived from (seed, idx, kind) so parallel machines under
// one schedule do not fire in lockstep yet replay identically. idx is the
// machine's build order unless its run environment pins an identity (the
// fleet layer pins each machine's stable index), so unpinned callers must
// build machines in a deterministic order.
func NewPlane(s Schedule, idx int) *Plane {
	p := &Plane{sched: s, rng: splitmix64(s.Seed ^ uint64(idx)*0x9e37)}
	for k := Kind(0); k < NumKinds; k++ {
		p.every[k] = s.every(k)
		p.windows[k] = s.window(k)
		if p.every[k] != 0 {
			p.phase[k] = splitmix64(s.Seed^uint64(idx)<<32^uint64(k)) % p.every[k]
		}
	}
	return p
}

// SetTracer attaches the machine's transaction tracer so every fired fault
// records a txtrace anomaly (nil disables).
func (p *Plane) SetTracer(t *txtrace.Tracer) {
	if p != nil {
		p.tr = t
	}
}

// Schedule returns the plane's schedule (zero value from a nil plane).
func (p *Plane) Schedule() Schedule {
	if p == nil {
		return Schedule{}
	}
	return p.sched
}

// Fire offers one event of kind k and reports whether the fault fires.
// addr and now annotate the recorded anomaly.
func (p *Plane) Fire(k Kind, addr, now uint64) bool {
	if p == nil || p.every[k] == 0 {
		return false
	}
	c := p.offered[k]
	p.offered[k]++
	if c%p.every[k] != p.phase[k] {
		return false
	}
	p.fired[k]++
	p.tr.Anomaly(faultAnomaly, int(k), addr, now)
	return true
}

// FireWindow is Fire for window kinds: it returns the stall/delay duration
// in cycles when the fault fires, 0 otherwise.
func (p *Plane) FireWindow(k Kind, addr, now uint64) uint64 {
	if !p.Fire(k, addr, now) {
		return 0
	}
	return p.windows[k]
}

// Rand returns a deterministic pseudorandom value in [0, n) from the
// plane's auxiliary stream (used to pick e.g. which bit a DRAM upset
// flips). n must be > 0.
func (p *Plane) Rand(n uint64) uint64 {
	p.rng = splitmix64(p.rng)
	return p.rng % n
}

// Offered returns how many events of kind k were offered to the plane.
func (p *Plane) Offered(k Kind) uint64 {
	if p == nil {
		return 0
	}
	return p.offered[k]
}

// Fired returns how many faults of kind k fired.
func (p *Plane) Fired(k Kind) uint64 {
	if p == nil {
		return 0
	}
	return p.fired[k]
}

// FiredTotal returns the total faults fired across all kinds.
func (p *Plane) FiredTotal() uint64 {
	if p == nil {
		return 0
	}
	var n uint64
	for k := Kind(0); k < NumKinds; k++ {
		n += p.fired[k]
	}
	return n
}

// PublishMetrics registers faultinject.* counters (machine.New passes
// Scope("faultinject")). Registration happens only when a plane exists, so
// a fault-free machine's metric name set is unchanged.
func (p *Plane) PublishMetrics(s metrics.Scope) {
	if p == nil {
		return
	}
	for k := Kind(0); k < NumKinds; k++ {
		s.Counter("offered."+k.String(), &p.offered[k])
		s.Counter("fired."+k.String(), &p.fired[k])
	}
}
