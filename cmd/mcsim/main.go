// mcsim runs a single workload on the simulated machine and prints its
// result plus key machine counters — the quick way to poke at one
// configuration.
//
// Usage:
//
//	mcsim -workload protobuf -mech mc2
//	mcsim -workload mvcc -mech baseline -threads 8 -frac 0.25
//	mcsim -config examples/configs/table1.json    # declarative machine spec
//	mcsim -config spec.json -set Channels=4       # spec with field overrides
//	mcsim -config spec.json -validate             # check a spec, print it canonically
//	mcsim -fleet                         # fleet smoke: N machines behind a load balancer
//	mcsim -list                          # enumerate workloads and mechanisms
//	mcsim -stats out.json                # machine-readable metrics dump
//	mcsim -trace out.json                # Chrome/Perfetto transaction trace
//
// The machine is described by a config.MachineSpec: the built-in default
// (the paper's Table I machine), optionally patched by a -config JSON file,
// then by repeatable -set Path=value overrides, in that order. The spec's
// mechanism block selects the copy mechanism; an explicit -mech flag
// overrides it. Workload × mechanism compatibility comes from the registry's
// capability declarations, not a hardcoded table.
//
// -stats writes the merged metrics registry of every machine the run
// built as JSON ("-" for stdout): one object mapping dotted metric names
// (cpu0.loads, l1.misses, mc0.rejected_writes, engine.bounces, ...) to
// their kind and value.
//
// -trace enables the transaction tracer and writes every machine's flight
// recorder as one Chrome trace-event JSON document, loadable in Perfetto
// (ui.perfetto.dev) or chrome://tracing. -trace-sample N records every Nth
// memory operation (1 = all). Tracing also adds per-stage latency
// histograms (txtrace.*) to the -stats output.
//
// -fleet switches to the fleet serving mode (internal/fleet): the spec's
// Fleet block — or the default six-machine fleet — is calibrated per
// machine with the real simulator and driven open-loop through the
// configured load balancer; the summary reports capacity, offered load,
// goodput, and latency SLOs. The spec's mechanism selects the serving
// column; the offered rate derives from a baseline calibration either way,
// so baseline and mc2 runs face identical load.
//
// A Fleet.Resilience block (see examples/configs/fleet-resilience.json)
// switches on the fault-tolerance plane: health-checked LB membership,
// per-request timeouts with budgeted retries, hedged requests, circuit
// breakers, and priority load shedding. A -faults schedule whose fleet
// fields are set (FromSeed schedules always set them) additionally storms
// the fleet with seeded machine crashes, brownouts, and probe loss; the
// summary then reports the availability accounting (Offered == Completed
// + TimedOut + Shed + Dropped + Failed).
//
// -faults injects a deterministic fault schedule (a bare seed like
// 0xC0FFEE, or a schedule JSON file) into every machine of the run;
// -invariants turns on the runtime correctness oracles (shadow-memory
// integrity, liveness watchdog, queue bounds) and exits non-zero when any
// violation is recorded. Both add faultinject.*/invariant.* metrics to
// -stats output.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"mcsquare/internal/cliutil"
	"mcsquare/internal/config"
	"mcsquare/internal/copykit"
	"mcsquare/internal/fleet"
	"mcsquare/internal/machine"
	"mcsquare/internal/metrics"
	"mcsquare/internal/stats"
	"mcsquare/internal/timeline"
	"mcsquare/internal/txtrace"
	"mcsquare/internal/workloads"
	"mcsquare/internal/workloads/mongo"
	"mcsquare/internal/workloads/mvcc"
	"mcsquare/internal/workloads/oswl"
	"mcsquare/internal/workloads/protobuf"
)

// options carries the resolved spec and flags to the workload runners.
type options struct {
	spec    *config.MachineSpec
	mech    config.Mechanism
	threads int
	frac    float64
	size    uint64
	quick   bool
	env     *machine.Env // every machine of the run is built in it

	// timelineFile/timelinePath/timelineCfg carry the -timeline destination
	// to runFleet, which records its own event-loop timeline (fleetMode
	// notes the run so single-workload timeline writing stays in main).
	timelineFile *os.File
	timelinePath string
	timelineCfg  timeline.Config
	fleetMode    bool
}

// runners maps catalog workload names to their entry points; the catalog
// itself (names, notes, supported mechanisms) lives in internal/workloads.
var runners = map[string]func(o options){
	"protobuf": runProtobuf,
	"mongo":    runMongo,
	"mvcc":     runMVCC,
	"pipe":     runPipe,
	"hugecow":  runHugeCOW,
}

func main() {
	var sets cliutil.StringList
	var (
		cfgPath  = flag.String("config", "", "machine spec JSON file (see examples/configs); flags layer on top")
		validate = flag.Bool("validate", false, "validate the -config/-set layering, print the canonical spec, and exit")
		wl       = flag.String("workload", "protobuf", "workload to run (see -list)")
		mech     = flag.String("mech", "mc2", "copy mechanism (see -list); overrides the spec's mechanism block")
		threads  = flag.Int("threads", 1, "mvcc: worker threads")
		frac     = flag.Float64("frac", 0.125, "mvcc: update fraction")
		size     = flag.Uint64("size", 4096, "pipe: transfer size in bytes")
		quick    = flag.Bool("quick", true, "reduced problem sizes")
		fleetRun = flag.Bool("fleet", false, "run the spec's fleet block (or the default fleet) instead of a single workload")
		list     = flag.Bool("list", false, "list workloads and mechanisms and exit")
		statsOut = flag.String("stats", "", "write the run's metrics registry as JSON to this file; - for stdout")
		traceOut = flag.String("trace", "", "enable transaction tracing and write a Chrome/Perfetto trace-event JSON to this file; - for stdout")
		traceN   = flag.Int("trace-sample", 1, "with -trace: record every Nth memory operation (1 = all)")
		faults   = flag.String("faults", "", "inject a deterministic fault schedule: a seed (e.g. 0xC0FFEE) or a schedule JSON file")
		invar    = flag.Bool("invariants", false, "enable runtime invariant oracles (shadow memory, liveness watchdog, queue bounds); violations exit non-zero")
		tlOut    = flag.String("timeline", "", "enable cycle-windowed metric sampling and write the timeline to this file (.csv, else JSON); - for stdout")
		tlWin    = flag.Uint64("timeline-window", 0, "timeline sampling window in simulated cycles (0 = spec's Timeline block, or 100000)")
		serve    = flag.String("serve", "", "serve a live inspection endpoint (/metrics, /timeline, /debug/pprof) on this address, e.g. :8080; stays up after the run until interrupted")
	)
	flag.Var(&sets, "set", "override one spec field (Path=value, e.g. -set Channels=4); repeatable, applied after -config")
	flag.Parse()

	if *list {
		cliutil.PrintWorkloads(os.Stdout)
		fmt.Println()
		cliutil.PrintMechanisms(os.Stdout)
		return
	}

	spec, err := cliutil.LoadSpec(*cfgPath, sets)
	if err != nil {
		fatal("%v", err)
	}

	// Mechanism precedence: an explicit -mech flag beats the spec's
	// mechanism block, which beats the default. Switching mechanisms drops
	// the spec's mechanism params (they belong to the previous mechanism).
	mechExplicit := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "mech" {
			mechExplicit = true
		}
	})
	if mechExplicit && *mech != spec.Mechanism.Name {
		spec.Mechanism = config.MechanismSpec{Name: *mech}
	}
	if err := spec.Validate(); err != nil {
		fatal("%v", err)
	}

	if *validate {
		out, err := spec.Marshal()
		if err != nil {
			fatal("%v", err)
		}
		os.Stdout.Write(out)
		return
	}

	mk, _ := config.LookupMechanism(spec.Mechanism.Name) // Validate checked registration
	run := runFleet
	if !*fleetRun {
		run = resolveWorkload(*wl, mk)
	}
	// Validate output destinations up front: a simulation should not run
	// for minutes only to fail writing its result.
	traceFile, err := cliutil.CreateOutput(*traceOut)
	if err != nil {
		fatal("-trace: %v", err)
	}

	tlFile, err := cliutil.CreateOutput(*tlOut)
	if err != nil {
		fatal("-timeline: %v", err)
	}

	fsched, err := cliutil.ParseFaults(*faults)
	if err != nil {
		fatal("-faults: %v", err)
	}
	if fsched == nil && spec.Faults != nil {
		// A schedule baked into the spec applies unless -faults overrides.
		fsched = spec.Faults
	}
	icfg := cliutil.Invariants(*invar)

	// The run environment records every machine the workload builds (some
	// build theirs internally), so -stats, -trace and the oracles see the
	// whole run. The timeline plane gives per-machine recorders to
	// single-workload runs; fleet mode records its own event-loop timeline
	// instead (the spec's Timeline block, which -timeline/-timeline-window
	// force on/override).
	tlcfg := cliutil.TimelineConfig(spec, *tlOut, *tlWin, *serve != "")
	envCfg := machine.Env{
		Trace:      txtrace.Config{Enabled: *traceOut != "", SampleEvery: *traceN},
		Faults:     fsched,
		Invariants: icfg,
	}
	if !*fleetRun {
		envCfg.Timeline = tlcfg
	}
	env := machine.NewEnv(envCfg)

	var stopServe func()
	if *serve != "" {
		addr, stop, err := cliutil.Serve(*serve, &cliutil.ServeState{Env: env})
		if err != nil {
			fatal("%v", err)
		}
		fmt.Printf("serving http://%s  (/metrics /timeline /debug/pprof/)\n", addr)
		stopServe = stop
	}

	run(options{
		spec: spec, mech: mk,
		threads: *threads, frac: *frac, size: *size, quick: *quick, env: env,
		timelineFile: tlFile, timelinePath: *tlOut, timelineCfg: tlcfg, fleetMode: *fleetRun,
	})
	recs := env.Recorders()
	for _, r := range recs {
		r.Finalize()
	}

	if sched := env.FaultSchedule(); sched.Active() {
		var fired uint64
		for _, m := range env.Machines() {
			fired += m.Faults.FiredTotal()
		}
		fmt.Printf("faultinject: %d fault(s) fired (schedule seed %#x)\n", fired, sched.Seed)
	}
	if icfg.Enabled() {
		oracles := env.Oracles()
		var checks, skips uint64
		for _, o := range oracles {
			c, s, _ := o.Checks()
			checks, skips = checks+c, skips+s
		}
		if oracles.TotalViolations() > 0 {
			oracles.Report(os.Stderr)
			os.Exit(1)
		}
		fmt.Printf("invariant: 0 violations (%d checks, %d skipped)\n", checks, skips)
	}

	if traceFile != nil {
		// With the timeline on, merge its counter tracks into the span
		// document so both render on one timebase.
		var exportErr error
		if env.Timeline.Enabled {
			exportErr = timeline.ExportPerfetto(traceFile, env.Tracers(), recs)
		} else {
			exportErr = txtrace.Export(traceFile, env.Tracers())
		}
		if exportErr != nil {
			fatal("-trace: %v", exportErr)
		}
		if err := cliutil.CloseOutput(traceFile); err != nil {
			fatal("-trace: %v", err)
		}
	}
	if tlFile != nil && !*fleetRun {
		if err := timeline.Write(tlFile, *tlOut, recs); err != nil {
			fatal("-timeline: %v", err)
		}
		if err := cliutil.CloseOutput(tlFile); err != nil {
			fatal("-timeline: %v", err)
		}
	}
	if *statsOut != "" {
		if err := cliutil.WriteStats(*statsOut, env.Metrics().Snapshot()); err != nil {
			fatal("%v", err)
		}
	}

	if stopServe != nil {
		fmt.Println("serve: run complete; endpoint stays live until interrupted (Ctrl-C)")
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		<-ch
		stopServe()
	}
}

// clock is the spec's cycle→wall-time converter for printed summaries.
func (o options) clock() stats.Clock { return cliutil.SpecClock(o.spec) }

// copier builds the spec's mechanism for m through the registry.
func (o options) copier(m *machine.Machine) copykit.Copier {
	cp, err := config.BuildCopier(o.spec, m)
	if err != nil {
		fatal("%v", err)
	}
	return cp
}

// kernelParams lowers the spec for the OS workloads, which always carry
// the lazy hardware: the kernel flag, not the machine, decides usage.
func (o options) kernelParams() machine.Params {
	p := o.params()
	p.LazyEnabled = true
	return p
}

// params lowers the spec into the run's environment.
func (o options) params() machine.Params {
	p := o.spec.MustParams()
	p.Env = o.env
	return p
}

func runProtobuf(o options) {
	cfg := protobuf.Config{Seed: 42}
	if o.quick {
		cfg.Ops, cfg.Burst = 192, 64
	}
	m := protobuf.NewMachineFrom(o.params())
	cfg.Copier = o.copier(m)
	res := protobuf.Run(m, cfg)
	fmt.Printf("protobuf/%s: runtime %.3f ms, %d copies (%.1f%% of cycles in memcpy)\n",
		o.mech.Name, o.clock().CyclesToMs(uint64(res.Cycles)), res.Copies,
		100*float64(res.CopyCycles)/float64(res.Cycles))
	printCounters(m.Metrics,
		"engine.lazy_ops", "engine.bounces", "engine.bounce_writebacks",
		"ctt.inserts", "l1.misses", "l2.misses", "mc0.reads", "dram0.row_hits")
}

func runMongo(o options) {
	cfg := mongo.Config{Seed: 42}
	if o.quick {
		cfg.Inserts, cfg.Fields, cfg.FieldSize = 8, 4, 32<<10
	}
	m := mongo.NewMachineFrom(o.params())
	cfg.Copier = o.copier(m)
	res := mongo.Run(m, cfg)
	fmt.Printf("mongo/%s: average insert latency %.4f ms (p99 %.4f ms)\n",
		o.mech.Name, res.AvgInsertMsAt(o.clock()), o.clock().CyclesToMs(uint64(res.Latencies.Percentile(99))))
}

func runMVCC(o options) {
	cfg := mvcc.Config{Seed: 42, Threads: o.threads, UpdateFraction: o.frac, Lazy: o.mech.NeedsLazyHW}
	if o.quick {
		cfg.Rows, cfg.OpsPerThread = 128, 60
	}
	m := mvcc.NewMachineFrom(o.params())
	res := mvcc.Run(m, cfg)
	fmt.Printf("mvcc/%s: %d txns in %.3f ms = %.0f kOps/s (%d threads, %.1f%% updated)\n",
		o.mech.Name, res.Ops, o.clock().CyclesToMs(uint64(res.Cycles)), res.ThroughputKOpsAt(o.clock()),
		o.threads, o.frac*100)
}

func runPipe(o options) {
	p := o.kernelParams()
	tput := oswl.PipeThroughput(oswl.PipeConfig{
		TransferSize: o.size, Transfers: 48, Lazy: o.mech.NeedsLazyHW, Seed: 42, Machine: &p,
	})
	fmt.Printf("pipe/%s: %d-byte transfers at %.0f bytes/kilocycle\n", o.mech.Name, o.size, tput)
}

func runHugeCOW(o options) {
	p := o.kernelParams()
	cfg := oswl.HugeCOWConfig{Seed: 42, Lazy: o.mech.NeedsLazyHW, Machine: &p}
	if o.quick {
		cfg.RegionBytes, cfg.Accesses = 16<<20, 40
	}
	lat := oswl.HugeCOW(cfg)
	var h stats.Histogram
	for _, v := range lat {
		h.Add(float64(v))
	}
	fmt.Printf("hugecow/%s: %d accesses, latency min %.0f / mean %.0f / max %.0f cycles\n",
		o.mech.Name, h.N(), h.Min(), h.Mean(), h.Max())
}

// resolveWorkload maps a -workload name to its runner, checking the
// catalog's mechanism-compatibility declarations.
func resolveWorkload(name string, mk config.Mechanism) func(options) {
	w, ok := workloads.Find(name)
	if !ok {
		usageErr("unknown workload %q; available: %s", name, strings.Join(workloads.Names(), ", "))
	}
	if !w.SupportsMechanism(mk.Name) {
		msg := fmt.Sprintf("workload %s does not support mechanism %q; supported: %s",
			w.Name, mk.Name, strings.Join(w.Mechanisms(), ", "))
		if w.Note != "" {
			msg += " (" + w.Note + ")"
		}
		usageErr("%s", msg)
	}
	return runners[w.Name]
}

// runFleet is the -fleet smoke mode: calibrate and simulate the spec's
// fleet block at its configured operating point. The -timeline and
// -timeline-window flags force the spec's Timeline block on so the fleet
// event loop records its windowed telemetry.
func runFleet(o options) {
	spec := *o.spec
	if o.timelineCfg.Enabled {
		ts := config.TimelineSpec{}
		if spec.Timeline != nil {
			ts = *spec.Timeline
		}
		ts.Enabled = true
		if o.timelineCfg.WindowCycles > 0 {
			ts.WindowCycles = o.timelineCfg.WindowCycles
		}
		spec.Timeline = &ts
	}
	res, err := fleet.Run(spec, fleet.Options{Quick: o.quick, Env: o.env})
	if err != nil {
		fatal("-fleet: %v", err)
	}
	fmt.Printf("fleet/%s: %d machines, capacity %.0f kOps/s, offered %.0f kOps/s\n",
		res.Mechanism, res.Machines, res.CapacityKOps, res.OfferedKOps())
	fmt.Printf("  completed %d/%d (dropped %d), goodput %.0f kOps/s\n",
		res.Completed, res.Offered, res.Dropped, res.GoodputKOps())
	fmt.Printf("  latency ms: p50 %.4f  p95 %.4f  p99 %.4f  p99.9 %.4f  (mean queue depth %.2f)\n",
		res.PercentileMs(50), res.PercentileMs(95), res.PercentileMs(99), res.PercentileMs(99.9),
		res.MeanQueueDepth)
	if res.ResilienceOn {
		// The fault-tolerance plane ran (a Fleet.Resilience mitigation or
		// a -faults fleet storm); default runs print nothing extra.
		fmt.Println(res.ResilienceSummary())
	}
	if tl := res.Timeline; tl != nil {
		fmt.Printf("  timeline: %d windows of %d cycles\n", len(tl.Windows), tl.WindowCycles)
		if tl.SLOP99Ms > 0 {
			if tl.SLOViolated {
				fmt.Printf("  SLO p99 <= %.4f ms first violated in window %d (%.4f ms into the run)\n",
					tl.SLOP99Ms, tl.FirstViolation, tl.TimeToFirstViolationMs())
			} else {
				fmt.Printf("  SLO p99 <= %.4f ms held in every window\n", tl.SLOP99Ms)
			}
		}
		if o.timelineFile != nil {
			if err := tl.Write(o.timelineFile, o.timelinePath); err != nil {
				fatal("-timeline: %v", err)
			}
			if err := cliutil.CloseOutput(o.timelineFile); err != nil {
				fatal("-timeline: %v", err)
			}
		}
	}
}

// printCounters prints the named counters that exist in the registry.
func printCounters(reg *metrics.Registry, names ...string) {
	snap := reg.Snapshot()
	var parts []string
	for _, n := range names {
		if v, ok := snap.Get(n); ok {
			parts = append(parts, fmt.Sprintf("%s=%d", n, v.Count))
		}
	}
	fmt.Printf("  %s\n", strings.Join(parts, " "))
}

func usageErr(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "mcsim: "+format+"\n", args...)
	fmt.Fprintln(os.Stderr, "usage: mcsim -workload <name> -mech <name> [flags]; mcsim -list shows valid values")
	os.Exit(2)
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "mcsim: "+format+"\n", args...)
	os.Exit(1)
}
