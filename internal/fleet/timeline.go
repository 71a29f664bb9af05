package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"mcsquare/internal/stats"
	"mcsquare/internal/timeline"
)

// Timeline is the fleet event loop's windowed telemetry: per-window
// arrivals, completions, drops, queue depth, and latency percentiles,
// plus the time-to-first-SLO-violation under the spec's p99 objective.
// It exists on a Result only when the spec's Timeline block enables it,
// and — like everything in the fleet layer — is a pure function of the
// seeded event history, so two runs produce byte-identical exports.
type Timeline struct {
	WindowCycles uint64
	SLOP99Ms     float64
	Clock        stats.Clock
	Windows      []TimelineWindow

	// SLOViolated reports whether any window's p99 exceeded SLOP99Ms;
	// FirstViolation is the first such window's index (windows are
	// checked in time order, so its End is the time-to-first-violation
	// in cycles). Meaningful only when SLOP99Ms > 0.
	SLOViolated    bool
	FirstViolation int

	// run is the Result the timeline belongs to; its ResilienceOn widens
	// the export with the per-window resilience outcome columns.
	run *Result
}

// TimelineWindow is one [Start, End) interval of fleet time. Arrivals and
// depth samples are attributed by arrival instant, completions and latency
// by completion instant, and the other outcomes by their resolution (or,
// for retries and hedges, issue) instant.
type TimelineWindow struct {
	Index     int
	Start     float64 // cycles
	End       float64
	Arrivals  uint64
	Completed uint64
	Dropped   uint64
	MaxDepth  int

	// Resilience outcomes; all zero unless the run's ResilienceOn.
	TimedOut uint64
	Shed     uint64
	Failed   uint64
	Retries  uint64
	Hedges   uint64

	depthSum     float64
	depthSamples uint64
	lat          stats.Histogram
}

// MeanDepth is the window's queued-request count averaged over its
// arrival instants (0 with no arrivals).
func (w *TimelineWindow) MeanDepth() float64 {
	if w.depthSamples == 0 {
		return 0
	}
	return w.depthSum / float64(w.depthSamples)
}

// PercentileCycles reads the window's completion-latency percentile.
func (w *TimelineWindow) PercentileCycles(p float64) float64 { return w.lat.Percentile(p) }

// newTimeline builds run's accumulator from the spec's Timeline block, or
// returns nil when the block is absent or disabled.
func (f *Fleet) newTimeline(run *Result) *Timeline {
	ts := f.Spec.Timeline
	if ts == nil || !ts.Enabled {
		return nil
	}
	w := ts.WindowCycles
	if w == 0 {
		w = timeline.DefaultWindowCycles
	}
	return &Timeline{WindowCycles: w, SLOP99Ms: ts.SLOP99Ms, Clock: f.Clock, FirstViolation: -1, run: run}
}

// win returns the window covering fleet time t, growing the list (and
// zero-filling any skipped windows) as time advances.
func (t *Timeline) win(at float64) *TimelineWindow {
	idx := int(at / float64(t.WindowCycles))
	if idx < 0 {
		idx = 0
	}
	for len(t.Windows) <= idx {
		i := len(t.Windows)
		t.Windows = append(t.Windows, TimelineWindow{
			Index: i,
			Start: float64(i) * float64(t.WindowCycles),
			End:   float64(i+1) * float64(t.WindowCycles),
		})
	}
	return &t.Windows[idx]
}

// arrival records an arrival-instant observation (depth sampled before
// the routing decision, matching the fleet-wide MeanQueueDepth). The
// outcome columns are counted by the event loop's fleetSim.count.
func (t *Timeline) arrival(at float64, depth int) {
	if t == nil {
		return
	}
	w := t.win(at)
	w.Arrivals++
	w.depthSum += float64(depth)
	w.depthSamples++
	if depth > w.MaxDepth {
		w.MaxDepth = depth
	}
}

// finalize computes the SLO verdict once the event loop drains.
func (t *Timeline) finalize() {
	if t == nil || t.SLOP99Ms <= 0 {
		return
	}
	for i := range t.Windows {
		w := &t.Windows[i]
		if w.Completed == 0 {
			continue
		}
		if t.msOf(w.lat.Percentile(99)) > t.SLOP99Ms {
			t.SLOViolated = true
			t.FirstViolation = i
			return
		}
	}
}

// msOf converts cycles to milliseconds at the fleet's clock.
func (t *Timeline) msOf(cycles float64) float64 {
	return cycles / (t.Clock.CyclesPerSecond() / 1e3)
}

// goodputKOps is a window's completion throughput in kOps/s.
func (t *Timeline) goodputKOps(w *TimelineWindow) float64 {
	return float64(w.Completed) / float64(t.WindowCycles) * t.Clock.CyclesPerSecond() / 1e3
}

// TimeToFirstViolationMs is the end of the first violating window in
// milliseconds from run start, or -1 when the SLO held (or was unset).
func (t *Timeline) TimeToFirstViolationMs() float64 {
	if !t.SLOViolated {
		return -1
	}
	return t.msOf(t.Windows[t.FirstViolation].End)
}

// windowView is a TimelineWindow rendered for export: raw counts plus the
// derived per-window rates and latency percentiles.
type windowView struct {
	Index       int     `json:"index"`
	Start       float64 `json:"start"`
	End         float64 `json:"end"`
	Arrivals    uint64  `json:"arrivals"`
	Completed   uint64  `json:"completed"`
	Dropped     uint64  `json:"dropped"`
	GoodputKOps float64 `json:"goodput_kops"`
	MeanDepth   float64 `json:"mean_depth"`
	MaxDepth    int     `json:"max_depth"`
	P50Ms       float64 `json:"p50_ms"`
	P99Ms       float64 `json:"p99_ms"`

	// Resilience columns; omitted from JSON (and absent from CSV) unless
	// the run's ResilienceOn, so default exports keep their shape.
	TimedOut uint64 `json:"timed_out,omitempty"`
	Shed     uint64 `json:"shed,omitempty"`
	Failed   uint64 `json:"failed,omitempty"`
	Retries  uint64 `json:"retries,omitempty"`
	Hedges   uint64 `json:"hedges,omitempty"`
}

func (t *Timeline) view(w *TimelineWindow) windowView {
	v := windowView{
		Index: w.Index, Start: w.Start, End: w.End,
		Arrivals: w.Arrivals, Completed: w.Completed, Dropped: w.Dropped,
		GoodputKOps: t.goodputKOps(w),
		MeanDepth:   w.MeanDepth(), MaxDepth: w.MaxDepth,
		P50Ms: t.msOf(w.lat.Percentile(50)), P99Ms: t.msOf(w.lat.Percentile(99)),
	}
	if t.run.ResilienceOn {
		v.TimedOut, v.Shed, v.Failed = w.TimedOut, w.Shed, w.Failed
		v.Retries, v.Hedges = w.Retries, w.Hedges
	}
	return v
}

// WriteJSON writes the fleet timeline as one indented JSON document.
func (t *Timeline) WriteJSON(w io.Writer) error {
	doc := struct {
		WindowCycles   uint64       `json:"window_cycles"`
		SLOP99Ms       float64      `json:"slo_p99_ms,omitempty"`
		SLOViolated    bool         `json:"slo_violated"`
		FirstViolation int          `json:"first_violation_window"`
		Windows        []windowView `json:"windows"`
	}{
		WindowCycles: t.WindowCycles, SLOP99Ms: t.SLOP99Ms,
		SLOViolated: t.SLOViolated, FirstViolation: t.FirstViolation,
		Windows: make([]windowView, len(t.Windows)),
	}
	for i := range t.Windows {
		doc.Windows[i] = t.view(&t.Windows[i])
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// WriteCSV writes the fleet timeline as flat CSV rows. Resilience runs
// append the per-window outcome columns.
func (t *Timeline) WriteCSV(w io.Writer) error {
	header := "window,start,end,arrivals,completed,dropped,goodput_kops,mean_depth,max_depth,p50_ms,p99_ms"
	if t.run.ResilienceOn {
		header += ",timed_out,shed,failed,retries,hedges"
	}
	if _, err := io.WriteString(w, header+"\n"); err != nil {
		return err
	}
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for i := range t.Windows {
		v := t.view(&t.Windows[i])
		if _, err := fmt.Fprintf(w, "%d,%s,%s,%d,%d,%d,%s,%s,%d,%s,%s",
			v.Index, g(v.Start), g(v.End), v.Arrivals, v.Completed, v.Dropped,
			g(v.GoodputKOps), g(v.MeanDepth), v.MaxDepth, g(v.P50Ms), g(v.P99Ms)); err != nil {
			return err
		}
		if t.run.ResilienceOn {
			if _, err := fmt.Fprintf(w, ",%d,%d,%d,%d,%d",
				v.TimedOut, v.Shed, v.Failed, v.Retries, v.Hedges); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	return nil
}

// Write picks the format from the file name, like timeline.Write.
func (t *Timeline) Write(w io.Writer, name string) error {
	if len(name) > 4 && name[len(name)-4:] == ".csv" {
		return t.WriteCSV(w)
	}
	return t.WriteJSON(w)
}
