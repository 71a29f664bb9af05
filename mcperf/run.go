package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// childTimeout bounds one child process. The longest round takes about 11 s;
// a child still running after this is killed and its round counts as failed.
const childTimeout = 90 * time.Second

// setupSamples is how many extra children of a run stop after set-up.
// setup_s is their median: set-up takes 3 to 20 ms, mostly process start,
// so one sample per round would leave it to a handful of scheduler delays,
// and the median of 15 still moved by half from run to run.
const setupSamples = 45

// Kinds of child process.
const (
	plainRound    = ""
	profiledRound = "-profile"
	setupOnly     = "-setup-only"
)

// round is one child process: its own report plus what the parent measured.
type round struct {
	res       *roundResult // nil when the child failed to report
	err       string
	cpuS      float64 // child user+system time
	peakRSSMB float64 // child maximum resident set
	profiled  bool
}

// runRecord is one benchmark run: what its result line reports, plus the
// detail -compare needs. It is what -out appends, one JSON line per run.
type runRecord struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Counts    map[string]float64 `json:"counts,omitempty"`
	Digest    string             `json:"digest,omitempty"`
	Errors    []string           `json:"errors,omitempty"`
}

// spawnRound runs round r of w, of the given kind, in a fresh child process
// of this binary.
func spawnRound(self string, w workload, seed int64, r int, kind string) round {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	rd := round{profiled: kind == profiledRound}
	start := time.Now()
	args := []string{"-child", w.name, "-seed", strconv.FormatInt(seed, 10),
		"-round", strconv.Itoa(r), "-start", strconv.FormatInt(start.UnixNano(), 10)}
	if kind != plainRound {
		args = append(args, kind)
	}
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Env = childEnv()
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	err := cmd.Run()
	if ps := cmd.ProcessState; ps != nil {
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			rd.cpuS = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
			rd.peakRSSMB = float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
		}
	}
	if err != nil {
		rd.err = fmt.Sprintf("round %d: child: %v", r, err)
		return rd
	}
	var res roundResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		rd.err = fmt.Sprintf("round %d: child report: %v", r, err)
		return rd
	}
	rd.res = &res
	if res.Error != "" {
		rd.err = fmt.Sprintf("round %d: %s", r, res.Error)
	}
	return rd
}

// childEnv is the environment of every child process: the parent's, with
// one P and a garbage collector that marks and sweeps with the world
// stopped.
//
// The simulator runs each simulated core as a goroutine that hands off to
// the next at every step. With a second P the runtime wakes a thread on the
// other CPU for many of those handoffs, so a round's wall time follows how
// fast the host answers those wake-ups, not the simulator. On a shared
// 2-vCPU virtual machine one P ran every workload 25 to 40% faster, and
// the interquartile range of mvcc's wall time over ten runs fell from 25%
// of its median to 4 to 17%.
//
// A concurrent collector on one P lets the heap grow while it marks, by as
// much as the host's timing allows: the same mvcc round peaked anywhere
// from 1970 to 2240 MB. Stopping the world to mark makes the heap at each
// collection, and so the peak, depend only on what the jobs allocate.
// Sweeping with the world stopped as well (gcstoptheworld=2, not 1) keeps a
// background sweeper from deciding, by when it gets to run, which spans are
// free when a job makes its large allocations, and so whether they reuse
// pages the runtime must zero: the same protobuf job order peaked at 589
// or 846 MB from round to round with a concurrent sweep.
func childEnv() []string {
	return append(os.Environ(), "GOMAXPROCS=1", "GODEBUG=gcstoptheworld=2")
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// runWorkload measures w for the given time: it starts the set-up-only
// children, then runs rounds, each in its own child process, for as long as
// the next round should still end within the time, and reduces them to the
// run's metrics. With trace set the layer probes take the place of the
// set-up-only children, every other round runs under the CPU profiler, and
// the record carries the per-layer metrics instead of the end-to-end ones.
func runWorkload(self string, w workload, seed int64, seconds int, trace bool) runRecord {
	rec := runRecord{Workload: w.name, Seed: seed, Trace: trace}
	begin, budget := time.Now(), time.Duration(seconds)*time.Second
	var setups []round
	for r := 0; r < setupSamples && !trace; r++ {
		setups = append(setups, spawnRound(self, w, seed, r, setupOnly))
	}
	var probes map[string]float64
	if trace {
		var err error
		if probes, err = probeMetrics(self); err != nil {
			rec.Errors = append(rec.Errors, err.Error())
		}
	}
	var rounds []round
	for r := 0; ; r++ {
		t := time.Now()
		kind := plainRound
		if trace && r%2 == 1 {
			kind = profiledRound
		}
		rd := spawnRound(self, w, seed, r, kind)
		rounds = append(rounds, rd)
		fmt.Fprintln(os.Stderr, describeRound(w.name, r, rd))
		// A traced run needs at least one plain and one profiled round.
		if time.Since(begin)+time.Since(t) > budget && (!trace || r >= 1) {
			break
		}
	}

	children := append(append([]round{}, setups...), rounds...)
	jobs := 0
	for _, rd := range children {
		if rd.res != nil {
			jobs = rd.res.Jobs
		}
	}
	// A child that fails, set-up only or not, fails every job of the round.
	var ok []round
	for _, rd := range children {
		if rd.err != "" {
			rec.Attempted += jobs
			rec.Failed += jobs
			rec.Errors = append(rec.Errors, rd.err)
		}
	}
	for _, rd := range rounds {
		if rd.err == "" {
			rec.Attempted += jobs
			ok = append(ok, rd)
			rec.Counts, rec.Digest = rd.res.Counts, rd.res.Digest
		}
	}
	if jobs == 0 { // no child reported: count each child as one failed attempt
		rec.Attempted, rec.Failed = len(children), len(children)
	}
	rec.Correct = rec.Failed == 0 && len(rec.Errors) == 0
	switch {
	case len(ok) == 0:
		rec.Metrics = map[string]float64{}
	case trace:
		rec.Metrics = layerMetrics(ok)
		for k, v := range probes {
			rec.Metrics[k] = v
		}
	default:
		rec.Metrics = endToEndMetrics(ok)
		var s []float64
		for _, rd := range setups {
			if rd.err == "" {
				s = append(s, rd.res.SetupS)
			}
		}
		rec.Metrics["setup_s"] = median(s)
	}
	return rec
}

func describeRound(name string, r int, rd round) string {
	if rd.res == nil {
		return fmt.Sprintf("%s round %d: FAILED %s", name, r, rd.err)
	}
	s := fmt.Sprintf("%s round %d: wall %.3fs cpu %.3fs rss %.0fMB setup %.4fs ref %.3fms",
		name, r, rd.res.WallS, rd.cpuS, rd.peakRSSMB, rd.res.SetupS, rd.res.RefS*1e3)
	if rd.profiled {
		s += " (profiled)"
	}
	if rd.err != "" {
		s += " FAILED " + rd.err
	}
	return s
}

// endToEndMetrics reduces unprofiled rounds to the values BENCHMARK.json
// lists under end_to_end, all but setup_s: their medians over the rounds.
// Wall time, CPU time and throughput are given at the reference speed: each
// round's are scaled by refNominalS over how long its reference work took.
func endToEndMetrics(rounds []round) map[string]float64 {
	med := func(f func(rd round) float64) float64 {
		var v []float64
		for _, rd := range rounds {
			v = append(v, f(rd))
		}
		return median(v)
	}
	scale := func(rd round) float64 { return refNominalS / rd.res.RefS }
	return map[string]float64{
		"wall_s": med(func(rd round) float64 { return rd.res.WallS * scale(rd) }),
		"cpu_s":  med(func(rd round) float64 { return (rd.cpuS - rd.res.RefSpentS) * scale(rd) }),
		"sim_mcycles_per_s": med(func(rd round) float64 {
			return rd.res.Counts["sim.cycles"] / (rd.res.WallS * scale(rd)) / 1e6
		}),
		"peak_rss_mb": med(func(rd round) float64 { return rd.peakRSSMB }),
		"alloc_mb":    med(func(rd round) float64 { return rd.res.AllocBytes / 1e6 }),
		"allocs_m":    med(func(rd round) float64 { return rd.res.AllocObjects / 1e6 }),
	}
}

// layerMetrics reduces a traced run's rounds to the per_layer metrics: the
// CPU-profile breakdown summed over the profiled rounds, the runner and Go
// runtime figures of the unprofiled ones, and the simulated counts.
func layerMetrics(rounds []round) map[string]float64 {
	out := map[string]float64{}
	samples := map[string]int64{}
	var plain, profiled []round
	for _, rd := range rounds {
		if rd.profiled {
			profiled = append(profiled, rd)
			for k, v := range rd.res.Samples {
				samples[k] += v
			}
		} else {
			plain = append(plain, rd)
		}
	}
	frac := func(key string) float64 { return ratio(float64(samples[key]), float64(samples["total"])) }
	for _, l := range layerNames {
		out["layer."+l+".cpu_frac"] = frac("layer." + l)
	}
	for _, ph := range phases {
		out["phase."+ph.name+".cpu_frac"] = frac("phase." + ph.name)
	}
	wall := func(rs []round) float64 {
		var v []float64
		for _, rd := range rs {
			v = append(v, rd.res.WallS)
		}
		return median(v)
	}
	if len(plain) > 0 && len(profiled) > 0 {
		out["profile.overhead_frac"] = wall(profiled)/wall(plain) - 1
	}

	var jobWalls, gcCycles, gcFrac, refMS []float64
	for _, rd := range plain {
		jobWalls = append(jobWalls, rd.res.JobWallsS...)
		gcCycles = append(gcCycles, rd.res.GCCycles)
		gcFrac = append(gcFrac, ratio(rd.res.GCCPUS, rd.cpuS))
		refMS = append(refMS, rd.res.RefS*1e3)
	}
	// The unscaled wall time and the reference work's time it was scaled by.
	out["host.wall_s"] = wall(plain)
	out["host.ref_ms"] = median(refMS)
	out["runner.job_wall_p50_s"] = median(jobWalls)
	out["runner.job_wall_max_s"] = maxOf(jobWalls)
	out["go.gc_cycles"] = median(gcCycles)
	out["go.gc_cpu_frac"] = median(gcFrac)
	var liveHeap []float64
	for _, rd := range profiled {
		liveHeap = append(liveHeap, rd.res.LiveHeapMaxMB)
	}
	out["runner.job_live_heap_max_mb"] = median(liveHeap)

	last := rounds[len(rounds)-1].res // simulated counts repeat exactly
	out["runner.jobs"] = float64(last.Jobs)
	out["runner.machines"] = float64(last.Machines)
	for k, v := range last.Counts {
		out[k] = v
	}
	scaledWall := endToEndMetrics(plain)["wall_s"]
	out["sim.host_ns_per_event"] = ratio(scaledWall*1e9, last.Counts["sim.events"])
	return out
}

// median returns the middle value (the mean of the two middle values for an
// even count), or 0 for no values.
func median(v []float64) float64 { return quartiles(v)[1] }

// quartiles returns the first quartile, median and third quartile of v,
// computed as Python's statistics.quantiles(v, n=4) does (its default
// "exclusive" method), so the spreads printed here are the ones the
// benchmark is judged by. It returns zeros for no values.
func quartiles(v []float64) [3]float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*(ld+1)/4, 1), ld-1)
		delta := float64(i*(ld+1) - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

func maxOf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		m = max(m, x)
	}
	return m
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
