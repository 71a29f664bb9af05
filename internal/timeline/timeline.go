// Package timeline is the simulator's time-series telemetry plane: it
// samples every registered metric at fixed simulated-cycle window
// boundaries, turning the end-of-run metrics registry into per-window
// counter-rate and gauge tracks.
//
// Sampling rides the engine's OnAdvance hook. When simulated time moves
// from cycle F to cycle T, every event at or before F has executed and no
// event exists strictly between F and T, so for each window boundary B in
// (F, T] the registry holds exactly "the state after all events before B"
// — a quantity determined solely by the (deterministic) event history of
// one machine's engine, never by wall-clock, goroutine scheduling, or the
// -jobs value. Two runs of the same simulation therefore produce
// byte-identical timelines at any parallelism.
//
// Each window stores a metrics.Snapshot delta: counters and histograms
// report the increase over the window, gauges report their value at the
// window's end boundary. One caveat: a CounterFunc or gauge closure that
// reads the engine clock observes the advance target (the cycle of the
// next event), not the boundary itself — Window.Start/End carry the exact
// per-window timebase, so clock-derived metrics stay deterministic but
// lumpy. The hot path (one nil-check per time-advancing event, one atomic
// load per actual advance) allocates nothing while disabled and allocates
// only the per-window snapshot when enabled.
package timeline

import (
	"strings"
	"sync"
	"sync/atomic"

	"mcsquare/internal/metrics"
	"mcsquare/internal/sim"
)

// DefaultWindowCycles is the sampling window used when Config leaves
// WindowCycles zero: fine enough to resolve CTT ramps and chaos windows,
// coarse enough that a paper-scale run stays in the hundreds of windows.
const DefaultWindowCycles = 100_000

// Config configures the timeline plane for a run.
type Config struct {
	// Enabled gates the plane; when false NewRecorder returns nil and
	// nothing is recorded.
	Enabled bool
	// WindowCycles is the sampling window in simulated cycles. <= 0 uses
	// DefaultWindowCycles.
	WindowCycles uint64
	// Tracks optionally restricts the Perfetto counter-track export to
	// metric names with one of these dotted prefixes (e.g. "ctt",
	// "engine.bounces"). Empty exports every metric that changes at least
	// once. CSV/JSON exports always carry every metric.
	Tracks []string
}

// window returns the effective sampling window.
func (c Config) window() sim.Cycle {
	if c.WindowCycles == 0 {
		return DefaultWindowCycles
	}
	return c.WindowCycles
}

// Window is one sampled interval [Start, End) of a machine's timeline.
type Window struct {
	Index int       `json:"index"`
	Start sim.Cycle `json:"start"`
	End   sim.Cycle `json:"end"`
	// Sample holds the per-window readings: counter and histogram values
	// are deltas over the window, gauges are the value observed at End.
	Sample *metrics.Snapshot `json:"sample"`
}

// Recorder samples one machine's registry at window boundaries of its
// engine. Create recorders with NewRecorder; a nil Recorder is inert.
//
// Concurrency: the sim goroutine drives sampling; mu guards the window
// list and scratch snapshots so the live-inspection endpoint (Current,
// Windows) can read from another goroutine. Live reads of gauge closures
// race benignly with the sim — the -serve endpoint is a best-effort
// debugging view, not a determinism surface.
type Recorder struct {
	reg    *metrics.Registry
	eng    *sim.Engine
	window sim.Cycle
	tracks []string

	next atomic.Uint64 // next boundary to sample; atomic for the fast path

	mu        sync.Mutex
	prev, cur metrics.Snapshot // scratch: reading at last boundary / this one
	windows   []Window
	finalized bool
}

// NewRecorder builds a recorder sampling reg at eng's window boundaries, or
// returns nil (the inert recorder) when cfg.Enabled is false.
func NewRecorder(cfg Config, reg *metrics.Registry, eng *sim.Engine) *Recorder {
	if !cfg.Enabled {
		return nil
	}
	r := &Recorder{reg: reg, eng: eng, window: cfg.window(), tracks: cfg.Tracks}
	r.next.Store(uint64(r.window))
	reg.SnapshotInto(&r.prev) // baseline at cycle 0
	eng.OnAdvance(r.advance)
	return r
}

// WindowCycles reports the recorder's sampling window.
func (r *Recorder) WindowCycles() sim.Cycle { return r.window }

// advance is the engine hook: sample every boundary in (from, to].
func (r *Recorder) advance(_, to sim.Cycle) {
	if to < r.next.Load() {
		return
	}
	r.mu.Lock()
	next := sim.Cycle(r.next.Load())
	for next <= to {
		r.sampleLocked(next)
		next += r.window
		r.next.Store(uint64(next))
	}
	r.mu.Unlock()
}

// sampleLocked closes the window ending at boundary b.
func (r *Recorder) sampleLocked(b sim.Cycle) {
	r.reg.SnapshotInto(&r.cur)
	delta := r.cur.Delta(&r.prev) // fresh snapshot: it is retained in the window
	r.prev, r.cur = r.cur, r.prev
	r.windows = append(r.windows, Window{
		Index:  len(r.windows),
		Start:  b - r.window,
		End:    b,
		Sample: delta,
	})
}

// Finalize closes the trailing partial window [lastBoundary, Now) if the
// engine stopped mid-window, and detaches the engine hook. Idempotent;
// exports and the runner call it when a run completes.
func (r *Recorder) Finalize() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.finalized {
		return
	}
	r.finalized = true
	r.eng.OnAdvance(nil)
	start := sim.Cycle(r.next.Load()) - r.window
	if end := r.eng.Now(); end > start {
		r.reg.SnapshotInto(&r.cur)
		delta := r.cur.Delta(&r.prev)
		r.prev, r.cur = r.cur, r.prev
		r.windows = append(r.windows, Window{
			Index:  len(r.windows),
			Start:  start,
			End:    end,
			Sample: delta,
		})
	}
}

// Windows returns the closed windows recorded so far.
func (r *Recorder) Windows() []Window {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Window(nil), r.windows...)
}

// Current returns a live view of the in-progress window: its start cycle
// and the metric deltas accumulated since the last closed boundary. Used
// by the -serve inspection endpoint.
func (r *Recorder) Current() Window {
	r.mu.Lock()
	defer r.mu.Unlock()
	var cur metrics.Snapshot
	r.reg.SnapshotInto(&cur)
	return Window{
		Index:  len(r.windows),
		Start:  sim.Cycle(r.next.Load()) - r.window,
		End:    r.eng.Now(),
		Sample: cur.Delta(&r.prev),
	}
}

// selected reports whether a metric name belongs on the Perfetto counter
// export given the recorder's track filter.
func (r *Recorder) selected(name string) bool {
	if len(r.tracks) == 0 {
		return true
	}
	for _, p := range r.tracks {
		if name == p || (strings.HasPrefix(name, p) && len(name) > len(p) && name[len(p)] == '.') {
			return true
		}
	}
	return false
}
