// Package runner executes independent deterministic experiment jobs on a
// worker pool while keeping results in submission order, so parallel runs
// emit byte-for-byte the output of serial ones.
//
// Every figure datapoint in this repository is a self-contained simulation:
// it builds its own machine.Params, runs to completion, and returns tables.
// Jobs therefore never share state, and the only ordering that matters is
// the order results are *assembled* in — which Run pins to the order jobs
// were submitted, regardless of which worker finishes first.
package runner

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mcsquare/internal/faultinject"
	"mcsquare/internal/invariant"
	"mcsquare/internal/machine"
	"mcsquare/internal/metrics"
	"mcsquare/internal/sim"
	"mcsquare/internal/stats"
	"mcsquare/internal/timeline"
	"mcsquare/internal/txtrace"
)

// Options scales the experiments, mirroring figures.Options. Jobs produced
// by a decomposition are usually already bound to their options; the value
// passed here is forwarded for jobs that want it.
type Options struct {
	Quick bool
	// Env is the job's run environment, built fresh by the runner for each
	// attempt (any value in Config.Options is replaced). A job builds its
	// machines in it (machine.Params.Env) so the runner can read their
	// planes and metrics and close their engines, whichever goroutine
	// built them.
	Env *machine.Env
}

// Job is one independently runnable experiment. Run must be deterministic
// and self-contained: it may not read or write state shared with other
// jobs (each builds its own simulated machine).
type Job struct {
	ID  string
	Run func(o Options) []*stats.Table
}

// Metrics records per-job cost, reported on the progress line.
type Metrics struct {
	Wall time.Duration
	// SimCycles is the exact number of cycles simulated by this job: the
	// sum of sim.cycles over every machine the job built, read from the
	// job's collected registries (no process-global sampling involved).
	SimCycles uint64
	PeakRows  int // rows in the job's largest table
	NumTables int
	// Snapshot merges the final metrics of every machine the job built
	// (same-named metrics sum). Nil only if the job built none.
	Snapshot *metrics.Snapshot
}

// Result pairs a job with its output. Results are returned in submission
// order. A panicking job is recovered into a *JobError in Err so the
// remaining jobs still run; its Tables are nil.
type Result struct {
	ID      string
	Index   int
	Tables  []*stats.Table
	Err     error
	Metrics Metrics
	// Attempts counts executions of this job: 1 normally, 2 when the first
	// attempt hit a non-deterministic (infrastructure) failure and the job
	// was retried once with the same seed.
	Attempts int
	// Violations holds the invariant-oracle failures recorded by this
	// job's machines (deterministically ordered). Non-empty only when
	// Config.Invariants enables oracles and a check failed — which also
	// sets Err.
	Violations []invariant.Violation
	// Trace holds one tracer per machine the job built, in construction
	// order. Empty unless Config.Trace enabled tracing.
	Trace []*txtrace.Tracer
	// Timeline holds one finalized time-series recorder per machine the
	// job built, in construction order. Empty unless Config.Timeline
	// enabled the timeline plane.
	Timeline []*timeline.Recorder
}

// JobError is the structured error a failed job carries: the recovered
// panic value, the failing simulated process's stack when the panic came
// out of one (via sim.ProcPanic), and whether the failure is deterministic.
// Deterministic failures — a workload panic inside the seeded simulation,
// a cycle-budget trip, a liveness-watchdog trip — recur on any same-seed
// retry and are reported immediately; anything else is presumed
// infrastructural and earns one same-seed retry.
type JobError struct {
	ID            string
	Value         any    // the recovered panic value
	Stack         []byte // simulated-process stack (nil for engine-side panics)
	Deterministic bool
	Attempt       int // which attempt failed (1-based)
}

func (e *JobError) Error() string {
	kind := "infrastructure"
	if e.Deterministic {
		kind = "deterministic"
	}
	return fmt.Sprintf("job %s failed (%s, attempt %d): %v", e.ID, kind, e.Attempt, e.Value)
}

// Unwrap exposes a wrapped error panic value to errors.Is/As.
func (e *JobError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// newJobError classifies a recovered panic. A sim.ProcPanic is unwrapped
// for its stack and inner value; everything the simulator itself raises is
// deterministic by construction (seeded, single-threaded event loop).
func newJobError(id string, p any, attempt int) *JobError {
	je := &JobError{ID: id, Value: p, Attempt: attempt}
	v := p
	if pp, ok := v.(*sim.ProcPanic); ok {
		je.Stack = pp.Stack
		je.Deterministic = true // workload code replays identically per seed
		v = pp.Value
	}
	switch v.(type) {
	case *sim.CycleLimitError, *invariant.WatchdogTrip:
		je.Deterministic = true
	}
	return je
}

// Config shapes one Run call.
type Config struct {
	// Workers is the pool size; <= 0 means GOMAXPROCS. 1 reproduces a
	// fully serial run: jobs execute in submission order on the calling
	// flow's single worker.
	Workers int
	// Options is forwarded to every job.
	Options Options
	// Progress, when non-nil, receives a live one-line status ("\r"-
	// rewritten) plus a final newline. Point it at os.Stderr.
	Progress io.Writer
	// Trace configures transaction tracing for every machine the jobs
	// build. With Enabled false (the default) nothing is recorded and the
	// simulation runs the zero-cost disabled path.
	Trace txtrace.Config
	// Faults, when non-nil and active, injects the deterministic fault
	// schedule into every machine the jobs build.
	Faults *faultinject.Schedule
	// Invariants selects runtime correctness oracles for every machine the
	// jobs build; a job whose oracles record violations fails with an error
	// carrying them.
	Invariants invariant.Config
	// CycleBudget bounds the simulated cycles of every engine a job
	// builds; exceeding it panics with sim.CycleLimitError, which surfaces
	// as a deterministic *JobError. 0 means unbounded.
	CycleBudget uint64
	// Timeline configures cycle-windowed metric sampling for every machine
	// the jobs build. With Enabled false (the default) nothing is recorded
	// and the per-event cost is a single nil check.
	Timeline timeline.Config
}

// Run executes the jobs on the pool and returns one Result per job, in
// submission order.
func Run(cfg Config, jobs []Job) []Result {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	results := make([]Result, len(jobs))
	if len(jobs) == 0 {
		return results
	}

	var (
		next atomic.Int64
		done atomic.Int64
		wg   sync.WaitGroup
		pmu  sync.Mutex // serializes Progress writes
	)
	progress := func(r *Result) {
		if cfg.Progress == nil {
			return
		}
		pmu.Lock()
		defer pmu.Unlock()
		fmt.Fprintf(cfg.Progress, "\r[%d/%d] %-32s %8s  %6.1f Mcyc  ",
			done.Load(), int64(len(jobs)), r.ID,
			r.Metrics.Wall.Round(time.Millisecond),
			float64(r.Metrics.SimCycles)/1e6)
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				results[i] = runOne(i, jobs[i], cfg)
				done.Add(1)
				progress(&results[i])
			}
		}()
	}
	wg.Wait()
	if cfg.Progress != nil {
		fmt.Fprintln(cfg.Progress)
	}
	return results
}

// runOne executes a single job, retrying once — same seed, same schedule —
// when the first attempt fails non-deterministically (a presumed
// infrastructure hiccup). Deterministic failures and invariant violations
// would only recur, so they report immediately.
func runOne(index int, job Job, cfg Config) Result {
	res := runAttempt(index, job, cfg, 1)
	if je, ok := res.Err.(*JobError); ok && !je.Deterministic {
		res = runAttempt(index, job, cfg, 2)
		res.Attempts = 2
	}
	return res
}

// runAttempt executes one attempt of a job, capturing metrics and
// recovering panics into structured errors. The attempt gets a fresh run
// environment carrying the configured planes and cycle budget; every
// machine the job builds in it is recorded there, on whatever goroutine it
// was built. Snapshotting their registries afterwards yields the job's
// metrics and its exact simulated-cycle count, even with concurrent
// neighbors, and closing their engines releases the goroutines of
// processes still parked in an engine the job abandoned (bounded runs,
// panics), which would otherwise accumulate across jobs.
func runAttempt(index int, job Job, cfg Config, attempt int) (res Result) {
	res = Result{ID: job.ID, Index: index, Attempts: attempt}
	start := time.Now()
	env := machine.NewEnv(machine.Env{
		Trace:       cfg.Trace,
		Faults:      cfg.Faults,
		Invariants:  cfg.Invariants,
		Timeline:    cfg.Timeline,
		CycleBudget: cfg.CycleBudget,
	})
	// The one goroutine binding left: it exists only so an observer outside
	// this module can read the job's registries through
	// metrics.AmbientCollector from inside Job.Run. Nothing here reads it.
	release := env.Metrics().Bind()
	defer func() {
		release()
		if p := recover(); p != nil {
			res.Err = newJobError(job.ID, p, attempt)
			res.Tables = nil
		}
		oracles := env.Oracles()
		if n := oracles.TotalViolations(); n > 0 {
			res.Violations = oracles.Violations()
			if res.Err == nil {
				res.Err = fmt.Errorf("job %s: %d invariant violation(s), first: %s",
					job.ID, n, res.Violations[0])
			}
		}
		if col := env.Metrics(); len(col.Registries()) > 0 {
			snap := col.Snapshot()
			res.Metrics.Snapshot = snap
			res.Metrics.SimCycles = snap.Counter("sim.cycles")
		}
		res.Trace = env.Tracers()
		// Close trailing partial windows before the engines are torn
		// down; recorders are inert afterwards.
		res.Timeline = env.Recorders()
		for _, r := range res.Timeline {
			r.Finalize()
		}
		env.Close()
		res.Metrics.Wall = time.Since(start)
	}()
	o := cfg.Options
	o.Env = env
	res.Tables = job.Run(o)
	res.Metrics.NumTables = len(res.Tables)
	for _, tb := range res.Tables {
		if n := tb.NumRows(); n > res.Metrics.PeakRows {
			res.Metrics.PeakRows = n
		}
	}
	return res
}
