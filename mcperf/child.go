package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"time"

	"mcsquare/internal/figures"
	simmetrics "mcsquare/internal/metrics"
	"mcsquare/internal/runner"
	"mcsquare/internal/sim"
	"mcsquare/internal/stats"
)

// roundResult is what the child process of one round reports to the parent
// on its standard output.
type roundResult struct {
	SetupS float64 `json:"setup_s"` // parent's exec to the first job
	WallS  float64 `json:"wall_s"`  // first job to merged output
	Jobs   int     `json:"jobs"`
	// Error is set when a job failed or the merged output differs from the
	// golden; the whole round then counts as failed.
	Error  string `json:"error,omitempty"`
	Digest string `json:"digest"` // sha256 of the merged output

	AllocBytes   float64 `json:"alloc_bytes"`
	AllocObjects float64 `json:"alloc_objects"`
	GCCycles     float64 `json:"gc_cycles"`
	GCCPUS       float64 `json:"gc_cpu_s"`

	// RefS is how long the reference work took in a plain round (see
	// hostspeed.go), and RefSpentS the time all its timings took, already
	// subtracted from WallS.
	RefS      float64 `json:"ref_s,omitempty"`
	RefSpentS float64 `json:"ref_spent_s,omitempty"`

	JobWallsS     []float64          `json:"job_walls_s"`
	Machines      int                `json:"machines"`
	LiveHeapMaxMB float64            `json:"live_heap_max_mb,omitempty"`
	Counts        map[string]float64 `json:"counts"`
	// Samples holds the CPU-profile attribution of a profiled round.
	Samples map[string]int64 `json:"samples,omitempty"`
}

// roundOrder is the job order of round r of a run seeded with seed: the
// seed's permutation of the jobs, rotated by r. The run's inputs are these
// orders; every order yields the same merged output, and rotating gives each
// job the lead equally often in every run, so the cost of running a job
// after another one, in the heap it leaves, weighs the same on every seed.
func roundOrder(seed int64, r, jobs int) []int {
	base := rand.New(rand.NewSource(seed)).Perm(jobs)
	k := r % jobs
	return append(append([]int{}, base[k:]...), base[:k]...)
}

// Runtime metrics the child reads around its jobs.
const (
	mAllocBytes   = "/gc/heap/allocs:bytes"
	mAllocObjects = "/gc/heap/allocs:objects"
	mGCCycles     = "/gc/cycles/total:gc-cycles"
	mGCCPU        = "/cpu/classes/gc/total:cpu-seconds"
	mLiveHeap     = "/gc/heap/live:bytes"
)

func readRuntime(names ...string) []float64 {
	samples := make([]metrics.Sample, len(names))
	for i, n := range names {
		samples[i].Name = n
	}
	metrics.Read(samples)
	out := make([]float64, len(names))
	for i, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		}
	}
	return out
}

// plan is a decomposed round: everything a round does before its first job.
type plan struct {
	w       workload
	sets    []figures.JobSet
	perm    []int // perm[i] is the index of the i-th job to run
	ordered []runner.Job
	res     *roundResult
	prof    *profiler // nil in a plain round
}

// prepare decomposes round r of a run of w seeded with seed and records its
// set-up time, from start, when the parent started this process, to now.
func prepare(w workload, seed int64, r int, profile bool, start time.Time) (*plan, error) {
	sets, err := w.jobSets()
	if err != nil {
		return nil, err
	}
	var jobs []runner.Job
	for _, js := range sets {
		jobs = append(jobs, js.Jobs...)
	}
	p := &plan{w: w, sets: sets, perm: roundOrder(seed, r, len(jobs)), res: &roundResult{Jobs: len(jobs)}}
	if profile {
		p.prof = &profiler{}
	}
	for _, j := range p.perm {
		p.ordered = append(p.ordered, p.probeJob(jobs[j]))
	}
	p.res.SetupS = time.Since(start).Seconds()
	return p, nil
}

// run runs every job on one runner worker in the round's order, as
// mcfigures -jobs 1 does, and merges them. It returns the merged output, or
// a job's error.
func (p *plan) run() ([]byte, error) {
	res := p.res
	if err := p.prof.start(); err != nil {
		return nil, err
	}
	// A profiled round leaves the reference work out of its profile.
	var speed *hostSpeed
	if p.prof == nil {
		var err error
		if speed, err = startHostSpeed(); err != nil {
			return nil, err
		}
	}
	events0 := sim.SimulatedEvents()
	rt0 := readRuntime(mAllocBytes, mAllocObjects, mGCCycles, mGCCPU)
	t0 := time.Now()

	results := runner.Run(runner.Config{Workers: 1, Options: runner.Options{Quick: p.w.quick}}, p.ordered)
	byJob := make([]runner.Result, len(results))
	for i, j := range p.perm {
		byJob[j] = results[i]
	}
	out, jobErr := mergeFigures(p.sets, byJob)

	if speed != nil {
		res.RefS, res.RefSpentS = speed.stop()
	}
	res.WallS = time.Since(t0).Seconds() - res.RefSpentS
	rt1 := readRuntime(mAllocBytes, mAllocObjects, mGCCycles, mGCCPU)
	p.prof.stop()
	if p.prof != nil {
		if p.prof.err != nil {
			return nil, p.prof.err
		}
		// The forced collections belong to the benchmark, not the workload.
		res.WallS -= p.prof.probeS
		var err error
		if res.Samples, err = p.prof.attribution(); err != nil {
			return nil, err
		}
	}
	res.AllocBytes = rt1[0] - rt0[0]
	res.AllocObjects = rt1[1] - rt0[1]
	res.GCCycles = rt1[2] - rt0[2]
	res.GCCPUS = rt1[3] - rt0[3]

	snap := simmetrics.NewSnapshot()
	for _, r := range results {
		res.JobWallsS = append(res.JobWallsS, r.Metrics.Wall.Seconds())
		if r.Metrics.Snapshot != nil {
			snap.Merge(r.Metrics.Snapshot)
		}
	}
	res.Counts = simCounts(snap, sim.SimulatedEvents()-events0)

	sum := sha256.Sum256(out)
	res.Digest = hex.EncodeToString(sum[:])
	return out, jobErr
}

// probeJob wraps a job to start it from a collected heap and to count the
// machines it built, read from the registries in the collector the runner
// binds around it. In a profiled round it also forces a GC after the job,
// with the profiler paused, and records the live heap while that collector
// still holds the job's machines.
//
// Without the collection at the start, a job would begin with the previous
// job's garbage still counted as heap, and a round's peak RSS would depend
// on the job order: protobuf's ranged from 377 to 589 MB by order, and
// from 552 to 576 MB with it.
func (p *plan) probeJob(j runner.Job) runner.Job {
	return runner.Job{ID: j.ID, Run: func(o runner.Options) []*stats.Table {
		runtime.GC()
		tables := j.Run(o)
		p.res.Machines += len(simmetrics.AmbientCollector().Registries())
		if p.prof != nil {
			p.prof.stop()
			t := time.Now()
			runtime.GC()
			if mb := readRuntime(mLiveHeap)[0] / 1e6; mb > p.res.LiveHeapMaxMB {
				p.res.LiveHeapMaxMB = mb
			}
			p.prof.probeS += time.Since(t).Seconds()
			if err := p.prof.start(); err != nil && p.prof.err == nil {
				p.prof.err = err
			}
		}
		return tables
	}}
}

// profiler records a round's CPU profile in segments, so that work the
// benchmark adds between jobs stays out of it. Its methods do nothing on a
// nil profiler.
type profiler struct {
	segments []*bytes.Buffer
	probeS   float64 // wall time spent outside the profile between jobs
	err      error
}

func (pr *profiler) start() error {
	if pr == nil {
		return nil
	}
	b := new(bytes.Buffer)
	pr.segments = append(pr.segments, b)
	return pprof.StartCPUProfile(b)
}

func (pr *profiler) stop() {
	if pr != nil {
		pprof.StopCPUProfile()
	}
}

// attribution sums the layer and phase attribution of every segment.
func (pr *profiler) attribution() (map[string]int64, error) {
	out := map[string]int64{}
	for _, seg := range pr.segments {
		stacks, err := parseProfile(seg.Bytes())
		if err != nil {
			return nil, err
		}
		for k, v := range attribute(stacks) {
			out[k] += v
		}
	}
	return out, nil
}

// mergeFigures merges each figure's job outputs and renders them the way
// mcfigures writes figure files: every table followed by a blank line.
func mergeFigures(sets []figures.JobSet, byJob []runner.Result) ([]byte, error) {
	var buf bytes.Buffer
	i := 0
	for _, js := range sets {
		parts := make([][]*stats.Table, len(js.Jobs))
		for k := range parts {
			r := byJob[i]
			i++
			if r.Err != nil {
				return nil, r.Err
			}
			parts[k] = r.Tables
		}
		for _, tb := range js.Merge(parts) {
			if _, err := tb.WriteTo(&buf); err != nil {
				return nil, err
			}
			buf.WriteByte('\n')
		}
	}
	return buf.Bytes(), nil
}

func firstDiffLine(a, b []byte) int {
	la, lb := strings.Split(string(a), "\n"), strings.Split(string(b), "\n")
	for i := range la {
		if i >= len(lb) || la[i] != lb[i] {
			return i + 1
		}
	}
	return len(la) + 1
}

// simCounts reduces a round's merged machine metrics to the deterministic
// per-layer counts the benchmark reports. A change to the simulator's host
// code must leave every one of them unchanged.
func simCounts(s *simmetrics.Snapshot, events uint64) map[string]float64 {
	c := func(name string) float64 { return float64(s.Counter(name)) }
	// each sums a per-instance counter (cpu0.loads, cpu1.loads, ...).
	each := func(prefix, suffix string) float64 {
		var t uint64
		for _, n := range s.Names() {
			if strings.HasPrefix(n, prefix) && strings.HasSuffix(n, suffix) {
				t += s.Counter(n)
			}
		}
		return float64(t)
	}
	l1Hits, l1Misses := c("l1.hits"), c("l1.misses")
	rowHits, rowMisses := each("dram", ".row_hits"), each("dram", ".row_misses")
	lazy, bounces := c("engine.lazy_ops"), c("engine.bounces")
	return map[string]float64{
		"sim.cycles":              c("sim.cycles"),
		"sim.events":              float64(events),
		"cpu.loads":               each("cpu", ".loads"),
		"cpu.stores":              each("cpu", ".stores"),
		"cache.l1_misses":         l1Misses,
		"cache.l1_hit_ratio":      ratio(l1Hits, l1Hits+l1Misses),
		"cache.l2_misses":         c("l2.misses"),
		"interconnect.messages":   c("xcon.messages"),
		"memctrl.reads":           each("mc", ".reads"),
		"memctrl.writes":          each("mc", ".writes"),
		"memctrl.rejected_writes": each("mc", ".rejected_writes"),
		"dram.row_hit_ratio":      ratio(rowHits, rowHits+rowMisses),
		"core.lazy_ops":           lazy,
		"core.bounces":            bounces,
		"core.bounce_ratio":       ratio(bounces, lazy),
		"core.ctt_inserts":        c("ctt.inserts"),
		"core.eager_fallbacks":    c("engine.eager_fallbacks"),
	}
}

// readGoldens returns the concatenation of the workload's golden files.
func readGoldens(w workload) ([]byte, error) {
	var all []byte
	for _, g := range w.goldens {
		b, err := os.ReadFile(g)
		if err != nil {
			return nil, fmt.Errorf("%s: golden: %w", w.name, err)
		}
		all = append(all, b...)
	}
	return all, nil
}

// childMain runs round r of a run seeded with seed, checks its output
// against the goldens, and writes the result as JSON to standard output.
// With setupOnly it stops before the first job and reports the set-up time.
func childMain(name string, seed int64, r int, profile, setupOnly bool, startNs int64) error {
	w, err := lookupWorkload(name)
	if err != nil {
		return err
	}
	p, err := prepare(w, seed, r, profile, time.Unix(0, startNs))
	if err != nil {
		return err
	}
	if setupOnly {
		return json.NewEncoder(os.Stdout).Encode(p.res)
	}
	golden, err := readGoldens(w)
	if err != nil {
		return err
	}
	out, err := p.run()
	switch {
	case err != nil:
		p.res.Error = err.Error()
	case !bytes.Equal(out, golden):
		p.res.Error = fmt.Sprintf("output differs from the golden at line %d", firstDiffLine(out, golden))
	}
	return json.NewEncoder(os.Stdout).Encode(p.res)
}

// updateGoldens rewrites the benchmark-owned goldens from one round of each
// workload that has one; any job order gives the same bytes. The results/
// goldens belong to the repository and are left alone.
func updateGoldens() error {
	for _, w := range workloads {
		if !w.owned() {
			continue
		}
		p, err := prepare(w, 1, 0, false, time.Now())
		if err != nil {
			return err
		}
		out, err := p.run()
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if err := os.WriteFile(w.goldens[0], out, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d jobs, %.1fs)\n", w.goldens[0], p.res.Jobs, p.res.WallS)
	}
	return nil
}
