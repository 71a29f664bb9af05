package figures

import (
	"fmt"

	"mcsquare/internal/config"
	"mcsquare/internal/faultinject"
	"mcsquare/internal/fleet"
	"mcsquare/internal/stats"
)

// figureResilience sweeps fault-storm intensity across the serving fleet
// with the full fault-tolerance plane on (health-checked membership,
// retries with timeouts, hedging, breakers, load shedding) and reports
// goodput, tail latency, and unavailability for the baseline and (MC)²
// mechanisms under the same seeded storm. Both mechanism columns face
// identical crash/brownout/probe-loss streams — the storm is derived from
// the schedule seed and the stable machine index, not from anything the
// mechanism does — so the delta is purely how lazy copy behaves when the
// fleet degrades around it.
//
// A run under -faults inherits that schedule's storm (and its micro
// kinds during calibration); otherwise the figure's own built-in storm
// seed applies. Either way the intensity axis scales the storm with
// faultinject.ScaleFleet, and intensity 0 is the storm-free control.

// resilienceIntensities are the swept storm multipliers: off, half,
// as-derived, and doubled.
var resilienceIntensities = []float64{0, 0.5, 1, 2}

// resilienceStormSeed feeds FleetStormFromSeed when no -faults schedule
// is bound; fixed so the committed figure is reproducible.
const resilienceStormSeed = 0x5709

const resilienceTitle = "Fleet resilience: goodput, tail latency, and availability under a seeded fault storm, baseline vs (MC)2"

func resilienceSweep() SweepSpec {
	ax := Axis{Name: "intensity"}
	for _, x := range resilienceIntensities {
		x := x
		ax.Points = append(ax.Points, Point{
			Label: fmt.Sprintf("x%.1f", x),
			Value: x,
		})
	}
	// Cell is bound per-run by resilienceJobs (it needs the Options).
	return SweepSpec{Fig: "resilience", Axes: []Axis{ax}}
}

// resilienceFleetSpec forces a resilience-ready fleet block onto the cell
// spec: a spec without one gets the default fleet at 0.85 load with
// priority tiers (protobuf traffic is sheddable, the rest is not), and
// any spec without a Resilience block gets every mechanism enabled at
// its defaults.
func resilienceFleetSpec(spec config.MachineSpec) config.MachineSpec {
	if spec.Fleet == nil {
		fl := config.DefaultFleet()
		fl.Arrival.RateFraction = 0.85
		for i := range fl.Mix {
			if fl.Mix[i].Workload != "protobuf" {
				fl.Mix[i].Priority = 1
			}
		}
		spec.Fleet = &fl
	}
	if spec.Fleet.Resilience == nil {
		fl := *spec.Fleet
		r := config.DefaultResilience()
		fl.Resilience = &r
		spec.Fleet = &fl
	}
	return spec
}

// resilienceRow runs one intensity point: derive the scaled storm,
// calibrate both mechanisms, offer the same (baseline-derived) load to
// each, and emit one row.
func resilienceRow(o Options, spec config.MachineSpec, intensity float64) []*stats.Table {
	spec = resilienceFleetSpec(spec)

	// The storm: the run's -faults schedule when one carries fleet
	// fields, else the figure's own seed; scaled by the intensity axis.
	// The cell's fleet runs in an Env derived with that schedule, so
	// calibration (micro kinds) and simulation (fleet fields) both see the
	// scaled schedule, at any -jobs.
	sched := o.Env.FaultSchedule()
	if !sched.FleetActive() {
		if !sched.Active() {
			// No -faults at all: the figure's own storm.
			sched = faultinject.FleetStormFromSeed(resilienceStormSeed)
		} else {
			// A micro-kinds-only schedule (hand-written JSON): derive the
			// storm from its own seed so replay-from-JSON stays exact.
			storm := faultinject.FleetStormFromSeed(sched.Seed)
			sched.CrashMeanUpCycles = storm.CrashMeanUpCycles
			sched.CrashMeanDownCycles = storm.CrashMeanDownCycles
			sched.BrownoutMeanUpCycles = storm.BrownoutMeanUpCycles
			sched.BrownoutMeanCycles = storm.BrownoutMeanCycles
			sched.BrownoutFactor = storm.BrownoutFactor
			sched.ProbeLossEvery = storm.ProbeLossEvery
		}
	}
	sched = sched.ScaleFleet(intensity)

	f, err := fleet.New(spec, fleet.Options{Quick: o.Quick, Env: o.Env.WithFaults(&sched)})
	if err != nil {
		panic(fmt.Sprintf("figures: resilience: %v", err))
	}
	base, err := f.Calibrate("baseline")
	if err != nil {
		panic(fmt.Sprintf("figures: resilience baseline calibration: %v", err))
	}
	mc2, err := f.Calibrate("mc2")
	if err != nil {
		panic(fmt.Sprintf("figures: resilience mc2 calibration: %v", err))
	}
	rate := f.OfferedReqPerCycle(base)
	rb := f.Simulate(base, rate)
	rl := f.Simulate(mc2, rate)

	tb := stats.NewTable(resilienceTitle,
		"intensity", "offered_kops",
		"base_goodput_kops", "base_p99_ms", "base_unavail", "base_timeouts", "base_retries",
		"mc2_goodput_kops", "mc2_p99_ms", "mc2_unavail", "mc2_timeouts", "mc2_retries")
	tb.AddRow(intensity, rb.OfferedKOps(),
		rb.GoodputKOps(), rb.PercentileMs(99), rb.Unavailability(), rb.Resilience.TimedOut, rb.Resilience.Retries,
		rl.GoodputKOps(), rl.PercentileMs(99), rl.Unavailability(), rl.Resilience.TimedOut, rl.Resilience.Retries)
	return tables(tb)
}

// resilienceJobs lowers the sweep with the options bound into each cell.
func resilienceJobs(o Options) JobSet {
	sw := resilienceSweep()
	sw.Cell = func(o Options, spec config.MachineSpec, pt []Point) []*stats.Table {
		return resilienceRow(o, spec, pt[0].Value.(float64))
	}
	return sw.Compile(o)
}

// FigureResilience is the serial form (identical to the decomposed run).
func FigureResilience(o Options) []*stats.Table {
	return runJobSet(o, resilienceJobs(o))
}

func init() {
	extra = append(extra, Generator{
		ID:    "resilience",
		Title: "Fleet fault tolerance: availability under a seeded storm with and without (MC)2",
		Run:   FigureResilience,
		jobs:  resilienceJobs,
	})
}
