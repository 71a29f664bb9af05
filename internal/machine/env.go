package machine

import (
	"sync"

	"mcsquare/internal/faultinject"
	"mcsquare/internal/invariant"
	"mcsquare/internal/metrics"
	"mcsquare/internal/timeline"
	"mcsquare/internal/txtrace"
)

// Env is the run environment a machine is built in: which observation
// planes (trace, faults, invariants, timeline) each machine gets, the cycle
// budget its engine carries, and a sink that records every machine and
// metrics registry of the run, so the caller can read the planes back, sum
// the metrics and close the engines afterwards.
//
// A machine gets its Env explicitly, through Params.Env; a nil Env builds a
// bare machine. The runner makes one Env per job attempt, and cmd binaries
// one per run, with NewEnv. Code that needs different planes for part of a
// run derives an Env with WithFaults, WithTimeline or WithPlaneID: the
// derived Env shares the sink, so its machines still count toward the run's
// metrics and engine cleanup.
type Env struct {
	// Trace configures one transaction tracer per machine.
	Trace txtrace.Config
	// Faults, when non-nil and active, gives each machine a fault plane.
	Faults *faultinject.Schedule
	// Invariants selects each machine's runtime correctness oracles.
	Invariants invariant.Config
	// Timeline configures one time-series recorder per machine.
	Timeline timeline.Config
	// CycleBudget bounds each machine's simulated cycles (0: unbounded);
	// exceeding it panics with sim.CycleLimitError.
	CycleBudget uint64

	planeID int                   // pinned fault-plane identity + 1; 0 numbers planes in build order
	sink    *sink                 // shared by every Env derived from the same NewEnv
	planes  *int                  // fault planes built under Faults (guarded by sink.mu)
	recs    *[]*timeline.Recorder // recorders built under Timeline (guarded by sink.mu)
}

// sink records what a run's machines leave behind. It holds the machines
// themselves for no longer than the run's metrics registries would: each
// registry's counters close over its machine.
type sink struct {
	metrics  *metrics.Collector
	mu       sync.Mutex
	machines []*Machine
}

// NewEnv returns an environment with cfg's planes and an empty sink.
func NewEnv(cfg Env) *Env {
	cfg.sink = &sink{metrics: metrics.NewCollector()}
	cfg.planes = new(int)
	cfg.recs = new([]*timeline.Recorder)
	return &cfg
}

// WithPlaneID returns a copy of e whose machines all take fault-plane
// identity id instead of their build order, so a caller that builds
// machines in varying order (the fleet layer) still replays a schedule
// byte-identically. A nil e stays nil.
func (e *Env) WithPlaneID(id int) *Env {
	if e == nil {
		return nil
	}
	d := *e
	d.planeID = id + 1
	return &d
}

// WithFaults returns a copy of e under fault schedule s (nil or inactive:
// no faults), numbering its planes from 0 again. A nil e yields a fresh
// environment with only that schedule.
func (e *Env) WithFaults(s *faultinject.Schedule) *Env {
	if e == nil {
		return NewEnv(Env{Faults: s})
	}
	d := *e
	d.Faults = s
	d.planes = new(int)
	return &d
}

// WithTimeline returns a copy of e under timeline config cfg. Its
// recorders are kept apart from e's: Recorders on e does not list them. A
// nil e yields a fresh environment with only that timeline.
func (e *Env) WithTimeline(cfg timeline.Config) *Env {
	if e == nil {
		return NewEnv(Env{Timeline: cfg})
	}
	d := *e
	d.Timeline = cfg
	d.recs = new([]*timeline.Recorder)
	return &d
}

// FaultSchedule returns the active schedule machines get, or the zero
// (inert) schedule when there is none.
func (e *Env) FaultSchedule() faultinject.Schedule {
	if e == nil || e.Faults == nil || !e.Faults.Active() {
		return faultinject.Schedule{}
	}
	return *e.Faults
}

// Metrics returns the collector holding every registry of the run, or nil
// for a nil e.
func (e *Env) Metrics() *metrics.Collector {
	if e == nil {
		return nil
	}
	return e.sink.metrics
}

// Machines returns every machine built in the run, in build order.
func (e *Env) Machines() []*Machine {
	e.sink.mu.Lock()
	defer e.sink.mu.Unlock()
	return append([]*Machine(nil), e.sink.machines...)
}

// Tracers returns the run's transaction tracers, in build order.
func (e *Env) Tracers() []*txtrace.Tracer {
	var trs []*txtrace.Tracer
	for _, m := range e.Machines() {
		if m.Trace != nil {
			trs = append(trs, m.Trace)
		}
	}
	return trs
}

// Oracles returns the run's invariant oracles, in build order.
func (e *Env) Oracles() invariant.Set {
	var set invariant.Set
	for _, m := range e.Machines() {
		if m.Inv != nil {
			set = append(set, m.Inv)
		}
	}
	return set
}

// Recorders returns the timeline recorders built under e's timeline
// config, in build order; those of an Env derived with WithTimeline are
// not included.
func (e *Env) Recorders() []*timeline.Recorder {
	e.sink.mu.Lock()
	defer e.sink.mu.Unlock()
	return append([]*timeline.Recorder(nil), *e.recs...)
}

// Close closes the engine of every machine in the run, releasing the
// goroutines of processes still parked in abandoned engines. Call it only
// when none of them is running.
func (e *Env) Close() {
	for _, m := range e.Machines() {
		m.Eng.Close()
	}
}

// nextPlane returns the fault-plane identity of the next machine built
// under e.Faults.
func (e *Env) nextPlane() int {
	e.sink.mu.Lock()
	idx := *e.planes
	*e.planes++
	e.sink.mu.Unlock()
	if e.planeID > 0 {
		return e.planeID - 1
	}
	return idx
}

// add records a newly built machine in the sink.
func (e *Env) add(m *Machine) {
	e.sink.mu.Lock()
	e.sink.machines = append(e.sink.machines, m)
	if m.Timeline != nil {
		*e.recs = append(*e.recs, m.Timeline)
	}
	e.sink.mu.Unlock()
	e.sink.metrics.Add(m.Metrics)
}
