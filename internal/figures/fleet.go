package figures

import (
	"fmt"

	"mcsquare/internal/config"
	"mcsquare/internal/fleet"
	"mcsquare/internal/stats"
)

// figureFleet sweeps offered load across a simulated serving fleet and
// reports the throughput-vs-tail-latency curve for the baseline and (MC)²
// mechanisms. Each cell calibrates per-machine service-time distributions
// with the real simulator (per-request latency histograms of the mix's
// workload families), then drives the calibrated fleet open-loop at a
// fraction of the baseline-calibrated capacity — both mechanism columns
// face the same offered load, so the curves are directly comparable.
//
// The sweep rides the standard machinery: one job per load point, merged
// in submission order, byte-identical at any -jobs and under a replayed
// -faults schedule (fault-plane identity is pinned to the stable fleet
// machine index).

// fleetLoadPoints are the swept fractions of baseline capacity; the tail
// point runs past saturation so the curves show the knee.
var fleetLoadPoints = []float64{0.3, 0.5, 0.7, 0.85, 0.95, 1.05}

const fleetTitle = "Fleet serving: offered load vs goodput and latency SLOs, baseline vs (MC)2"

func fleetSweep() SweepSpec {
	ax := Axis{Name: "load"}
	for _, frac := range fleetLoadPoints {
		frac := frac
		ax.Points = append(ax.Points, Point{
			Label: fmt.Sprintf("l%.2f", frac),
			Set:   config.Overrides{{Path: "Fleet.Arrival.RateFraction", Value: frac}},
			Value: frac,
		})
	}
	// Cell is set by fleetJobs.
	return SweepSpec{Fig: "fleet", Axes: []Axis{ax}}
}

// fleetRow runs one operating point: calibrate both mechanisms, offer the
// same (baseline-derived) load to each, and emit one row. o supplies quick
// mode; spec carries the load-point override.
func fleetRow(o Options, spec config.MachineSpec, frac float64) []*stats.Table {
	rb, rl := simulatePair("fleet", spec, fleet.Options{Quick: o.Quick, Env: o.Env})

	tb := stats.NewTable(fleetTitle,
		"load", "offered_kops",
		"base_goodput_kops", "base_p50_ms", "base_p99_ms", "base_p999_ms", "base_drops",
		"mc2_goodput_kops", "mc2_p50_ms", "mc2_p99_ms", "mc2_p999_ms", "mc2_drops")
	tb.AddRow(frac, rb.OfferedKOps(),
		rb.GoodputKOps(), rb.PercentileMs(50), rb.PercentileMs(99), rb.PercentileMs(99.9), rb.Dropped,
		rl.GoodputKOps(), rl.PercentileMs(50), rl.PercentileMs(99), rl.PercentileMs(99.9), rl.Dropped)
	return tables(tb)
}

// simulatePair expands spec into a fleet, calibrates the baseline and
// (MC)² mechanisms, and simulates both at the offered rate derived from
// the baseline calibration, so the two columns of a row face the same
// load. fig names the figure in panic messages.
func simulatePair(fig string, spec config.MachineSpec, fo fleet.Options) (base, mc2 *fleet.Result) {
	f, err := fleet.New(spec, fo)
	if err != nil {
		panic(fmt.Sprintf("figures: %s: %v", fig, err))
	}
	bc, err := f.Calibrate("baseline")
	if err != nil {
		panic(fmt.Sprintf("figures: %s baseline calibration: %v", fig, err))
	}
	lc, err := f.Calibrate("mc2")
	if err != nil {
		panic(fmt.Sprintf("figures: %s mc2 calibration: %v", fig, err))
	}
	rate := f.OfferedReqPerCycle(bc)
	return f.Simulate(bc, rate), f.Simulate(lc, rate)
}

// fleetJobs lowers the sweep with the options bound into each cell.
func fleetJobs(o Options) JobSet {
	sw := fleetSweep()
	sw.Cell = func(o Options, spec config.MachineSpec, pt []Point) []*stats.Table {
		return fleetRow(o, spec, pt[0].Value.(float64))
	}
	return sw.Compile(o)
}

// FigureFleet is the serial form (identical to the decomposed jobs run).
func FigureFleet(o Options) []*stats.Table {
	return runJobSet(o, fleetJobs(o))
}

func init() {
	extra = append(extra, Generator{
		ID:    "fleet",
		Title: "Fleet-scale serving: throughput vs p99 under (MC)2 (offered-load sweep)",
		Run:   FigureFleet,
		jobs:  fleetJobs,
	})
}
