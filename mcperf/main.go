// Command mcperf is the repository's benchmark: it regenerates whole figures
// the way a user of mcfigures does, checks every output byte against a
// golden copy, and reports what the run cost the host, end to end and layer
// by layer. BENCHMARK.json at the repository root lists its workloads and
// metrics; run.sh builds it from the checkout and runs it from the
// repository root, so relative paths below are relative to that root.
//
//	bash mcperf/run.sh --workload copy-ladder --seed 1 --seconds 28 --trace 0
//	bash mcperf/run.sh --workload mvcc --seed 1 --seconds 28 --trace 1
//	bash mcperf/run.sh -runs 10 -out .bench_build/change.jsonl   # every workload, seeds 1..10
//	bash mcperf/run.sh -compare .bench_build/parent.jsonl .bench_build/change.jsonl
//	bash mcperf/run.sh -update                                  # rewrite mcperf/testdata
//
// Each run prints one JSON line: correct, attempted and failed jobs, and its
// metrics with their units. Progress goes to standard error.
//
// # Load model
//
// A closed loop with one client. A run first starts 45 children that stop
// after set-up, then executes rounds for as long as the next round should
// still end within --seconds. A round is one fresh child process that runs
// every job of the workload's figures once through internal/runner with one
// worker (the in-process form of mcfigures -jobs 1), merges each figure, and
// compares the merged bytes with the goldens. The parent reads the child's
// CPU time and peak RSS from rusage. The seed picks a job order; round r
// runs it rotated by r places, so each job leads equally often whatever the
// seed. Every order must produce the same bytes. Every child runs on one P
// with a stop-the-world collector (GOMAXPROCS=1, GODEBUG=gcstoptheworld=2),
// and every job starts with a forced collection, so that a round's time
// follows the simulator more than the host's thread wake-ups, and its peak
// the jobs more than their order (childEnv and probeJob give the
// measurements). Every 50 ms an unprofiled round also times about 1 ms of
// fixed reference work on the same P, between the jobs' goroutines, to see
// how fast the host is running it (hostspeed.go).
//
// # Workloads
//
// Each workload is what one mcfigures command writes, on the Table I
// default spec:
//
//   - copy-ladder: mcfigures -fig 10 (9 jobs, 36 machines of 256 MiB),
//     golden results/figure10.txt. Building machines and zeroing their dense
//     simulated memory take about half the CPU, so a sparse memdata.Physical
//     shows here; peak RSS is 1.4 GB.
//   - protobuf: mcfigures -fig 3,4,14 (3 jobs, 5 machines), goldens
//     results/figure{3,4,14}.txt. The event loop, caches and CTT take most
//     of the CPU and building 4%, so a build-side change should leave it
//     flat.
//   - mvcc: mcfigures -quick -fig 22 (4 jobs, 20 machines, up to 8 simulated
//     cores), golden testdata/mvcc.golden. Goroutine handoffs between
//     simulated cores, and CTT bounces from lazy version copies.
//   - fleet-sweep: mcfigures -quick -fig fleet -set Fleet.Machines=1
//     -set Fleet.Requests=1500000 (6 jobs), golden
//     testdata/fleet-sweep.golden. Per-row calibration (build + simulate)
//     and the mitigations-off queueing loop; peak RSS is 3.0 GB.
//   - fleet-storm: mcfigures -quick -fig resilience -set Fleet.Machines=1
//     -set Fleet.Requests=1000000 (4 jobs), golden
//     testdata/fleet-storm.golden. The same fleet layer through the
//     resilience path: storm, retries, hedges, breakers; peak RSS is 3.0 GB.
//
// The fleet workloads keep the figures' default request mix, whose mongo
// machines need at least 768 MiB each. One machine per fleet is what fits:
// every calibrated machine of a row stays live until the row ends (2.8 GB of
// live heap with one machine), so a second machine would about double a
// round's 3 GB peak, to most of an 8 GB host. The request counts give the
// queueing loop 35 to 40% of each round's CPU and keep rounds near 7 s,
// about three to a run (fleetSet says why). A larger fleet, once machine
// memory is sparse, is a new workload added in a change of its own; these
// stay as they are so that change can be measured against them.
//
// # End-to-end metrics (--trace 0)
//
// Medians over the run's rounds. BENCHMARK.json fixes the bound by which
// each may worsen before a change counts as a regression: 25% for the host
// times, the throughput, peak RSS and setup, 2% for allocation.
//
// wall_s, cpu_s and sim_mcycles_per_s are given at the reference speed, the
// host speed at which the reference work takes 1 ms: each round's value is
// scaled by 1 ms over how long the reference work took in that round, the
// sum of the median timings of its two halves. The time spent on the
// reference work itself is taken out first. A traced run reports the
// unscaled wall time and the reference time as host.wall_s and host.ref_ms.
//
//   - wall_s: first job to merged output.
//   - cpu_s: user+system time of the round's child process.
//   - sim_mcycles_per_s: simulated cycles (the exact sum of sim.cycles over
//     the jobs' machine registries) per second of wall_s.
//   - peak_rss_mb: the maximum resident set of the round's child process.
//   - alloc_mb, allocs_m: heap bytes and objects allocated by the jobs
//     (runtime/metrics /gc/heap/allocs).
//   - setup_s: from the parent starting a child to its first job: process
//     start, package init, the spec, and decomposing the figures into jobs.
//     It is the median of the 45 set-up-only children.
//
// A round whose job fails, whose child dies, or whose output differs from
// the golden counts every one of its jobs as failed; a run is correct only
// when no job failed.
//
// The host-time bounds are the widest BENCHMARK.json allows, because the
// host's own speed moves. On the 2-vCPU virtual machine the seed numbers
// come from, the slowest round of a workload took 1.6 to 2.2 times as long
// as its fastest over two 40-minute sets of runs, CPU time alike. At the
// reference speed, over those two sets of ten 28 s runs per workload, the
// interquartile range of wall_s, cpu_s and sim_mcycles_per_s was 3 to 8% of
// the median, and the two sets' medians differed by 3% at most (setup_s by
// 10%). Allocation repeats to 0.01%. Peak RSS repeats to 0.1% on protobuf
// and the fleet workloads, and to 1 to 7% on copy-ladder and mvcc, whose
// peaks still move with the job order.
//
// # Per-layer metrics (--trace 1)
//
// A traced run first times the layer probes in one child, then alternates
// plain and CPU-profiled rounds for the rest of --seconds, at least one of
// each.
//
//   - layer.<name>.cpu_frac: share of the profiled rounds' CPU samples
//     charged to a layer. Each sample goes to its innermost
//     mcsquare/internal/<pkg> frame (packages outside the layer list are
//     "other"), unless an allocation, scheduler/channel or GC runtime frame
//     lies between that frame and the leaf: then to go_alloc, go_sched or
//     go_gc. Samples with no simulator frame go to the runtime class of
//     their innermost frame, or go_other.
//   - phase.<name>.cpu_frac: share of samples with a phase root on the
//     stack. build: machine.New and workloads' NewMachineFrom; simulate:
//     Engine.Drain/Step/RunUntil and process goroutines started by
//     Engine.Go; calibrate: Fleet.Calibrate; queue: Fleet.Simulate; collect:
//     the metrics package and the figure merge. Phases nest (calibrate
//     contains its build and simulate), so they do not sum to one.
//   - profile.overhead_frac: median profiled wall over median plain wall,
//     minus one.
//   - runner.*: jobs and machines per round, per-job wall median and
//     maximum, and the largest live heap after any job while its machines
//     are still held. Profiled rounds force a GC after each job to read it,
//     with the profiler paused and the pause left out of their wall time.
//   - go.gc_cycles, go.gc_cpu_frac: GC cycles per round, and GC CPU time
//     over the child's CPU time.
//   - host.wall_s, host.ref_ms: the plain rounds' median wall time, unscaled,
//     and the median time their reference work took.
//   - sim.*, cpu.*, cache.*, interconnect.*, memctrl.*, dram.*, core.*:
//     simulated counts summed over the jobs' machine registries (sim.events
//     from the engines' process-wide total, exact in a child that runs one
//     round). They repeat exactly; a host-side change must leave them
//     unchanged. sim.host_ns_per_event is the plain rounds' wall_s, at the
//     reference speed, per simulated event.
//   - probe.<name>.ns_op, .allocs_op (.bytes_op): one public entry point
//     timed by testing.Benchmark for 250 ms. The engine, proc, trace,
//     invariants and timeline probes are internal/bench's microbenchmarks,
//     whose ns/op that package rounds to a whole nanosecond;
//     machine.new-default, core.ctt-destcover (a full 2048-entry CTT),
//     fleet.calibrate, fleet.simulate (per request) and metrics.snapshot are
//     timed here.
//
// How they should move, with each share as measured in one traced run:
//
//   - Build and memory: phase.build (46% of copy-ladder's CPU samples, 34 to
//     37% of the fleet workloads', 4% of protobuf's), layer.go_alloc,
//     runner.job_live_heap_max_mb and probe.machine.new-default move wall_s,
//     cpu_s, peak_rss_mb and alloc_mb on copy-ladder and the fleet
//     workloads, and leave protobuf flat.
//   - Fleet queue: phase.queue (35% of fleet-sweep, 40% of fleet-storm),
//     layer.fleet, layer.stats and probe.fleet.simulate move only the fleet
//     workloads.
//   - CTT: layer.core (26% of mvcc, 20% of protobuf, 3% of copy-ladder) and
//     probe.core.ctt-destcover move mvcc, then protobuf, and leave
//     copy-ladder flat.
//   - Scheduler: layer.go_sched (12 to 18% outside the fleet, 5 to 6% in it),
//     probe.proc.wait-wakeup and sim.host_ns_per_event move the three
//     single-figure workloads and barely the fleet ones.
//   - GC: go.gc_cpu_frac moves wall_s and cpu_s alike, because the
//     collector stops the world on the child's one P.
//   - Collect: phase.collect stays under 1% everywhere.
//
// # Comparing two commits
//
// Run both commits with the same -runs and -seconds, each appending to its
// own -out file, and alternate which side runs first. -compare pairs the
// runs by seed and prints, per workload and end-to-end metric, both sides'
// quartiles, the pairs the change won, and a verdict: unchanged when the
// medians differ by less than the metric's floor (10 ms for setup_s);
// otherwise improved (won at least 9 of 10 pairs and the medians differ by
// more than the parent's interquartile range), regressed (median worse by
// more than the bound), unresolved (a side's spread exceeds the bound) or
// unchanged. A difference in any simulated count or output digest is
// flagged as "model changed". It exits 1 on a regression or a rise in the
// failed fraction.
//
// # Seed numbers
//
// Medians of 20 runs of 28 s per workload, seeds 1-10 and 101-110, on a
// 2-vCPU, 8 GB x86-64 virtual machine, Go 1.24. The reference work took a
// median 1.2 ms there, so unscaled rounds took about 1.2 times the wall_s
// and cpu_s below:
//
//	workload     wall_s  cpu_s  sim_mcycles_per_s  peak_rss_mb  alloc_mb  allocs_m  setup_s
//	copy-ladder    3.40   3.50               3.91         1314     10325      8.74   0.0029
//	protobuf       3.84   3.90               9.00          587      2257     14.51   0.0029
//	mvcc           4.47   4.56               2.00         1685      6131      9.67   0.0028
//	fleet-sweep    6.33   6.53               1.47         3049     18359     29.80   0.0029
//	fleet-storm    4.79   4.96               1.29         3048     12070     21.66   0.0030
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (empty: every workload, -runs times)")
		seed     = flag.Int64("seed", 1, "seed of the run's job orders (first seed with -runs)")
		seconds  = flag.Int("seconds", 28, "time budget of each run's rounds")
		trace    = flag.Int("trace", 0, "1: report the per-layer metrics instead of the end-to-end ones")
		runs     = flag.Int("runs", 1, "without -workload: runs of every workload, alternating, seeds seed, seed+1, ...")
		out      = flag.String("out", "", "append each run's record (JSON line) to this file, for -compare")
		compare  = flag.Bool("compare", false, "compare two -out files: mcperf -compare parent.jsonl change.jsonl")
		update   = flag.Bool("update", false, "rewrite the benchmark-owned goldens in mcperf/testdata")

		child   = flag.String("child", "", "internal: run one round of this workload")
		round   = flag.Int("round", 0, "internal: round number of -child")
		start   = flag.Int64("start", 0, "internal: when the parent started -child, in Unix nanoseconds")
		profile = flag.Bool("profile", false, "internal: profile the -child round")
		setup   = flag.Bool("setup-only", false, "internal: stop the -child round before its first job")
		probes  = flag.Bool("probes", false, "internal: run the layer probes")
	)
	flag.Parse()

	var err error
	switch {
	case *child != "":
		err = childMain(*child, *seed, *round, *profile, *setup, *start)
	case *probes:
		err = probesMain()
	case *update:
		err = updateGoldens()
	case *compare:
		if flag.NArg() != 2 {
			err = errors.New("-compare needs two files: parent.jsonl change.jsonl")
			break
		}
		var bad bool
		if bad, err = compareMain(flag.Arg(0), flag.Arg(1)); err == nil && bad {
			os.Exit(1)
		}
	default:
		err = benchMain(*workload, *seed, *seconds, *trace == 1, *runs, *out)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcperf: %v\n", err)
		os.Exit(1)
	}
}

// benchMain runs one workload, or every workload runs times, printing each
// run's result as one JSON line on standard output.
func benchMain(name string, seed int64, seconds int, trace bool, runs int, out string) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", flag.Args())
	}
	if seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	spec, err := readBenchmarkSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var plan []workload
	if name != "" {
		w, err := lookupWorkload(name)
		if err != nil {
			return err
		}
		plan, runs = []workload{w}, 1
	} else {
		plan = workloads
	}
	for i := 0; i < runs; i++ {
		for _, w := range plan {
			rec := runWorkload(self, w, seed+int64(i), seconds, trace)
			if out != "" {
				if err := appendRecord(out, rec); err != nil {
					return err
				}
			}
			if err := printResult(spec, rec); err != nil {
				return err
			}
		}
	}
	return nil
}

// printResult writes the run's result line: exactly the keys correct,
// attempted, failed and metrics, with every metric BENCHMARK.json lists for
// the run's mode, in its unit.
func printResult(spec *benchmarkSpec, rec runRecord) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	list := spec.EndToEnd
	if rec.Trace {
		list = spec.PerLayer
	}
	metrics := map[string]value{}
	for _, m := range list {
		if v, ok := rec.Metrics[m.Name]; ok {
			metrics[m.Name] = value{v, m.Unit}
		}
	}
	for _, e := range rec.Errors {
		fmt.Fprintf(os.Stderr, "%s: %s\n", rec.Workload, e)
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func appendRecord(path string, rec runRecord) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
