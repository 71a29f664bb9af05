// Package fleet scales the single-machine simulator out to a serving
// fleet: N machines instantiated from one config.MachineSpec (or
// heterogeneous groups layering spec overrides), driven by a deterministic
// open-loop request generator through a pluggable load balancer, with
// per-request end-to-end latency accounted into SLO histograms.
//
// The layer is deliberately two-phase. Calibration runs the real
// cycle-accurate simulator — one small run per (machine, workload family)
// with the machine's own lowered params, seed, and fault plane — and keeps
// each run's per-request latency histogram as that machine's service-time
// distribution. Simulation then replays an arrival stream against those
// distributions with an event-driven queueing model, which is cheap enough
// to sweep offered load across a dozen operating points. Both phases are
// seeded and single-threaded, so a fleet run is byte-identical across
// hosts, -jobs values, and machine instantiation orders (fault planes are
// pinned to the machine's stable index, not creation order).
package fleet

import (
	"fmt"
	"math/rand"

	"mcsquare/internal/config"
	"mcsquare/internal/copykit"
	"mcsquare/internal/machine"
	"mcsquare/internal/stats"
	"mcsquare/internal/workloads/kvsnap"
	"mcsquare/internal/workloads/mongo"
	"mcsquare/internal/workloads/mvcc"
	"mcsquare/internal/workloads/protobuf"
)

// Options scales a fleet run.
type Options struct {
	// Quick shrinks calibration runs and the arrival stream so tests and
	// smoke runs finish fast; the curve shapes survive.
	Quick bool
	// Env is the run environment calibration machines are built in and
	// results publish their metrics to; its fault schedule's fleet fields
	// storm the fleet. nil runs fault-free and unobserved.
	Env *machine.Env
}

// Fleet is a spec expanded into per-machine specs plus the normalized
// fleet block, ready to calibrate and simulate.
type Fleet struct {
	Spec  config.MachineSpec   // the base spec (fleet block intact)
	Block config.FleetSpec     // normalized fleet block
	Specs []config.MachineSpec // one lowered-ready spec per machine
	Clock stats.Clock
	Quick bool
	Env   *machine.Env
}

// New expands spec into a fleet. A spec without a fleet block gets
// config.DefaultFleet().
func New(spec config.MachineSpec, o Options) (*Fleet, error) {
	var block config.FleetSpec
	if spec.Fleet != nil {
		block = *spec.Fleet
	} else {
		block = config.DefaultFleet()
	}
	block = block.Normalized()

	f := &Fleet{Spec: spec, Block: block, Clock: stats.Clock(spec.ClockGHz), Quick: o.Quick, Env: o.Env}
	base := spec
	base.Fleet = nil // member machines are ordinary single machines
	if len(block.Groups) == 0 {
		for i := 0; i < block.Machines; i++ {
			f.Specs = append(f.Specs, base)
		}
		return f, nil
	}
	for gi, g := range block.Groups {
		member := base
		for _, a := range g.Set {
			ov, err := config.ParseAssignment(a)
			if err != nil {
				return nil, fmt.Errorf("fleet group %d: %w", gi, err)
			}
			if err := member.Apply(config.Overrides{ov}); err != nil {
				return nil, fmt.Errorf("fleet group %d: %w", gi, err)
			}
		}
		if err := member.Validate(); err != nil {
			return nil, fmt.Errorf("fleet group %d: %w", gi, err)
		}
		for i := 0; i < g.Count; i++ {
			f.Specs = append(f.Specs, member)
		}
	}
	return f, nil
}

// machineCalib is one machine's calibrated service model: a per-request
// service-time sample vector (cycles) per workload family in the mix.
type machineCalib struct {
	samples [][]float64 // [mixEntry][request] cycles
	means   []float64   // [mixEntry] mean service cycles
	servers int
}

// Calibration is a fleet-wide service model for one mechanism.
type Calibration struct {
	Mechanism string
	machines  []machineCalib
	weights   []float64 // normalized mix weights
}

// CapacityReqPerCycle is the fleet's saturation throughput under this
// calibration: each machine serves its mixed-mean request every
// mean-service cycles per server.
func (c *Calibration) CapacityReqPerCycle() float64 {
	total := 0.0
	for _, m := range c.machines {
		mixed := 0.0
		for i, w := range c.weights {
			mixed += w * m.means[i]
		}
		if mixed > 0 {
			total += float64(m.servers) / mixed
		}
	}
	return total
}

// CapacityKOps converts the calibrated capacity to thousands of requests
// per second at the fleet's clock.
func (f *Fleet) CapacityKOps(c *Calibration) float64 {
	return c.CapacityReqPerCycle() * f.Clock.CyclesPerSecond() / 1e3
}

// Calibrate runs one small cycle-accurate simulation per (machine, mix
// workload) under the named mechanism ("" uses the spec's own) and returns
// the fleet's service model. Machine i's runs use seed Block.Seed+i and
// pin fault-plane identity i, so a chaos schedule replays byte-identically
// no matter what order machines are calibrated in.
func (f *Fleet) Calibrate(mech string) (*Calibration, error) {
	if mech == "" {
		mech = f.Spec.Mechanism.Name
	}
	cal := &Calibration{Mechanism: mech}
	total := 0.0
	for _, mx := range f.Block.Mix {
		cal.weights = append(cal.weights, mx.Weight)
		total += mx.Weight
	}
	for i := range cal.weights {
		cal.weights[i] /= total
	}

	for i, spec := range f.Specs {
		mc, err := f.calibrateMachine(i, spec, mech)
		if err != nil {
			return nil, fmt.Errorf("fleet machine %d: %w", i, err)
		}
		cal.machines = append(cal.machines, mc)
	}
	return cal, nil
}

// calibrateMachine runs each mix workload once on machine i's spec, in
// f.Env with fault-plane identity i pinned.
func (f *Fleet) calibrateMachine(i int, spec config.MachineSpec, mech string) (machineCalib, error) {
	spec.Mechanism.Name = mech
	params, err := spec.Params()
	if err != nil {
		return machineCalib{}, err
	}
	params.Env = f.Env.WithPlaneID(i)
	seed := f.Block.Seed + int64(i)
	lazy := mech != "baseline"

	mc := machineCalib{servers: f.Block.ServersPerMachine}
	if mc.servers == 0 {
		mc.servers = params.Cores
	}
	for _, mx := range f.Block.Mix {
		h, err := f.serviceRun(mx.Workload, spec, params, seed, lazy)
		if err != nil {
			return machineCalib{}, err
		}
		samples := h.Samples()
		if len(samples) == 0 {
			return machineCalib{}, fmt.Errorf("workload %s: calibration produced no samples", mx.Workload)
		}
		mc.samples = append(mc.samples, samples)
		mc.means = append(mc.means, h.Mean())
	}
	return mc, nil
}

// serviceRun executes one calibration run and returns its per-request
// latency histogram. Sizes are modest — the point is a service-time
// distribution, not the paper's headline numbers — and shrink further in
// quick mode.
func (f *Fleet) serviceRun(workload string, spec config.MachineSpec, params machine.Params, seed int64, lazy bool) (*stats.Histogram, error) {
	copier := func(m *machine.Machine) (copykit.Copier, error) {
		sp := spec
		return config.BuildCopier(&sp, m)
	}
	switch workload {
	case "mongo":
		m := mongo.NewMachineFrom(params)
		cp, err := copier(m)
		if err != nil {
			return nil, err
		}
		cfg := mongo.Config{Seed: seed, Copier: cp, Inserts: 10, Fields: 6, FieldSize: 32 << 10}
		if f.Quick {
			cfg.Inserts, cfg.Fields, cfg.FieldSize = 4, 4, 16<<10
		}
		return mongo.Run(m, cfg).Latencies, nil
	case "mvcc":
		cfg := mvcc.Config{Seed: seed, Lazy: lazy, Threads: 1, Rows: 128, OpsPerThread: 100}
		if f.Quick {
			cfg.OpsPerThread = 40
		}
		return mvcc.Run(mvcc.NewMachineFrom(params), cfg).Latencies, nil
	case "protobuf":
		m := protobuf.NewMachineFrom(params)
		cp, err := copier(m)
		if err != nil {
			return nil, err
		}
		cfg := protobuf.Config{Seed: seed, Copier: cp, Ops: 128, Burst: 64}
		if f.Quick {
			cfg.Ops, cfg.Burst = 48, 24
		}
		return protobuf.Run(m, cfg).Latencies, nil
	case "kvsnap":
		hw := params
		hw.LazyEnabled = true // the kernel flag decides whether laziness is used
		cfg := kvsnap.Config{Seed: seed, Machine: &hw, LazyCOW: lazy,
			StoreBytes: 8 << 20, Ops: 150, SnapshotEach: 50}
		if f.Quick {
			cfg.StoreBytes, cfg.Ops, cfg.SnapshotEach = 4<<20, 60, 30
		}
		return kvsnap.Run(cfg).Latencies, nil
	}
	return nil, fmt.Errorf("unknown fleet workload %q", workload)
}

// OfferedReqPerCycle resolves the fleet block's arrival rate against a
// reference calibration (normally the baseline mechanism's, so every
// mechanism column of a figure faces the same offered load).
func (f *Fleet) OfferedReqPerCycle(ref *Calibration) float64 {
	if k := f.Block.Arrival.RateKOps; k > 0 {
		return k * 1e3 / f.Clock.CyclesPerSecond()
	}
	return f.Block.Arrival.RateFraction * ref.CapacityReqPerCycle()
}

// Run is the convenience entry point (cmd/mcsim -fleet): calibrate the
// spec's own mechanism, derive the offered rate from a baseline
// calibration (reusing the mechanism's own when it is the baseline), and
// simulate.
func Run(spec config.MachineSpec, o Options) (*Result, error) {
	f, err := New(spec, o)
	if err != nil {
		return nil, err
	}
	mech := f.Spec.Mechanism.Name
	cal, err := f.Calibrate(mech)
	if err != nil {
		return nil, err
	}
	ref := cal
	if mech != "baseline" && f.Block.Arrival.RateKOps == 0 {
		if ref, err = f.Calibrate("baseline"); err != nil {
			return nil, err
		}
	}
	return f.Simulate(cal, f.OfferedReqPerCycle(ref)), nil
}

// rng returns the fleet's seeded generator; every random choice of the
// simulation phase draws from one stream in one deterministic order.
func (f *Fleet) rng() *rand.Rand {
	return rand.New(rand.NewSource(f.Block.Seed))
}
