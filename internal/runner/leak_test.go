package runner

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"mcsquare/internal/faultinject"
	"mcsquare/internal/machine"
	"mcsquare/internal/sim"
	"mcsquare/internal/stats"
	"mcsquare/internal/timeline"
)

// smallMachine builds a one-core machine in env.
func smallMachine(env *machine.Env) *machine.Machine {
	p := machine.DefaultParams()
	p.Cores = 1
	p.Cache.Cores = 0 // inherit the reduced core count
	p.MemSize = 16 << 20
	p.Env = env
	return machine.New(p)
}

// waitNoLeak polls until the goroutine count returns to near its baseline.
func waitNoLeak(t *testing.T, before, slack, jobs int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+slack {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked across jobs: %d before, %d after %d jobs",
				before, runtime.NumGoroutine(), jobs)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunClosesAbandonedEngines pins the parked-goroutine fix: a job
// that abandons an engine with suspended processes (bounded run, early
// return) must not leak those goroutines past the job boundary — the
// runner closes every engine the job built.
func TestRunClosesAbandonedEngines(t *testing.T) {
	before := runtime.NumGoroutine()
	var jobs []Job
	for i := 0; i < 30; i++ {
		jobs = append(jobs, Job{
			ID: fmt.Sprintf("leak%d", i),
			Run: func(o Options) []*stats.Table {
				e := smallMachine(o.Env).Eng
				for j := 0; j < 4; j++ {
					e.Go("parked", func(p *sim.Proc) { p.Suspend() })
				}
				e.RunUntil(100) // processes park; engine is then abandoned
				return nil
			},
		})
	}
	results := Run(Config{Workers: 4}, jobs)
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("job %s: %v", r.ID, r.Err)
		}
	}
	waitNoLeak(t, before, 4, len(jobs))
}

// TestRunRecoversPanickingJobs: a workload that panics inside a simulated
// process surfaces as a structured deterministic *JobError — carrying the
// process stack, not retried — while its neighbors complete and none of
// its goroutines outlive the job.
func TestRunRecoversPanickingJobs(t *testing.T) {
	before := runtime.NumGoroutine()
	boom := errors.New("boom")
	jobs := []Job{
		{ID: "ok-before", Run: func(o Options) []*stats.Table { return nil }},
		{ID: "panics", Run: func(o Options) []*stats.Table {
			e := smallMachine(o.Env).Eng
			e.Go("worker", func(p *sim.Proc) { p.Suspend() }) // parked across the panic
			e.Go("exploder", func(p *sim.Proc) {
				p.Wait(10)
				panic(boom)
			})
			e.Drain()
			return nil
		}},
		{ID: "ok-after", Run: func(o Options) []*stats.Table { return nil }},
	}
	results := Run(Config{Workers: 1}, jobs)
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatalf("healthy neighbors failed: %v / %v", results[0].Err, results[2].Err)
	}
	r := results[1]
	var je *JobError
	if !errors.As(r.Err, &je) {
		t.Fatalf("Err = %v (%T), want *JobError", r.Err, r.Err)
	}
	if !je.Deterministic {
		t.Fatal("workload panic classified as infrastructure (would be retried)")
	}
	if r.Attempts != 1 {
		t.Fatalf("Attempts = %d, want 1 (deterministic failures must not retry)", r.Attempts)
	}
	if len(je.Stack) == 0 {
		t.Fatal("JobError carries no simulated-process stack")
	}
	if !errors.Is(r.Err, boom) {
		t.Fatalf("panic value unreachable through the error chain: %v", r.Err)
	}
	if r.Tables != nil {
		t.Fatal("failed job still returned tables")
	}
	waitNoLeak(t, before, 4, len(jobs))
}

// TestRunTimesOutLivelockedJobs: a livelocked workload is cut off by the
// per-job cycle budget as a deterministic *JobError wrapping
// *sim.CycleLimitError, with no goroutines left behind.
func TestRunTimesOutLivelockedJobs(t *testing.T) {
	before := runtime.NumGoroutine()
	jobs := []Job{
		{ID: "livelock", Run: func(o Options) []*stats.Table {
			e := smallMachine(o.Env).Eng // carries the job's cycle budget
			e.Go("spinner", func(p *sim.Proc) {
				for {
					p.Wait(100)
				}
			})
			e.Drain()
			return nil
		}},
		{ID: "bounded", Run: func(o Options) []*stats.Table {
			e := smallMachine(o.Env).Eng
			e.Go("finite", func(p *sim.Proc) { p.Wait(500) })
			e.Drain()
			return nil
		}},
	}
	results := Run(Config{Workers: 2, CycleBudget: 10_000}, jobs)
	var je *JobError
	if !errors.As(results[0].Err, &je) {
		t.Fatalf("Err = %v (%T), want *JobError", results[0].Err, results[0].Err)
	}
	if !je.Deterministic {
		t.Fatal("cycle-budget trip classified as infrastructure")
	}
	var cle *sim.CycleLimitError
	if !errors.As(results[0].Err, &cle) || cle.Limit != 10_000 {
		t.Fatalf("budget trip not surfaced as CycleLimitError: %v", results[0].Err)
	}
	if results[1].Err != nil {
		t.Fatalf("job under budget failed: %v", results[1].Err)
	}
	waitNoLeak(t, before, 4, len(jobs))
}

// TestRunRetriesInfrastructureFailures: a panic outside any simulated
// process is presumed infrastructural and earns exactly one same-seed
// retry; success on the second attempt reports Attempts=2 and no error.
func TestRunRetriesInfrastructureFailures(t *testing.T) {
	calls := 0
	jobs := []Job{{ID: "flaky", Run: func(o Options) []*stats.Table {
		calls++
		if calls == 1 {
			panic("spurious host-side failure")
		}
		return nil
	}}}
	results := Run(Config{Workers: 1}, jobs)
	if results[0].Err != nil {
		t.Fatalf("retried job still failed: %v", results[0].Err)
	}
	if results[0].Attempts != 2 || calls != 2 {
		t.Fatalf("Attempts = %d, calls = %d, want 2/2", results[0].Attempts, calls)
	}

	// A job that fails both attempts reports the second attempt's error.
	always := []Job{{ID: "dead", Run: func(o Options) []*stats.Table {
		panic("always down")
	}}}
	results = Run(Config{Workers: 1}, always)
	var je *JobError
	if !errors.As(results[0].Err, &je) || je.Attempt != 2 {
		t.Fatalf("Err = %v, want *JobError from attempt 2", results[0].Err)
	}
	if results[0].Attempts != 2 {
		t.Fatalf("Attempts = %d, want 2", results[0].Attempts)
	}
}

// TestRunEnvFollowsTheJob: a machine counts toward its job because it was
// built in the job's run environment, not because of the goroutine that
// built it. One built on a goroutine the job spawns is counted in
// SimCycles, held to the cycle budget and closed by the runner; one built
// in an Env derived with a local fault schedule or timeline still shares
// the job's metrics, but a local timeline's recorders stay out of
// Result.Timeline.
func TestRunEnvFollowsTheJob(t *testing.T) {
	// spawned runs build on a goroutine of the job's own and waits for it,
	// re-raising its panic on the job's goroutine.
	spawned := func(build func() *machine.Machine) *machine.Machine {
		var m *machine.Machine
		var failure any
		done := make(chan struct{})
		go func() {
			defer close(done)
			defer func() { failure = recover() }()
			m = build()
		}()
		<-done
		if failure != nil {
			panic(failure)
		}
		return m
	}
	finite := func(env *machine.Env) *machine.Machine {
		m := smallMachine(env)
		m.Eng.Go("finite", func(p *sim.Proc) { p.Wait(700) })
		m.Eng.Drain()
		return m
	}
	sched := faultinject.Schedule{Seed: 3, WPQRejectEvery: 5}
	local := timeline.Config{Enabled: true, WindowCycles: 100}
	cases := []struct {
		name string
		cfg  Config
		// run builds the job's machines from o; cycles is what the job
		// must be charged for them.
		run   func(o Options) (cycles uint64)
		check func(t *testing.T, r Result)
	}{
		{name: "spawned/counted", run: func(o Options) uint64 {
			m := spawned(func() *machine.Machine { return finite(o.Env) })
			return uint64(m.Eng.Now())
		}},
		{name: "spawned/budget", cfg: Config{CycleBudget: 1_000}, run: func(o Options) uint64 {
			spawned(func() *machine.Machine {
				m := smallMachine(o.Env)
				m.Eng.Go("spinner", func(p *sim.Proc) {
					for {
						p.Wait(100)
					}
				})
				m.Eng.Drain()
				return m
			})
			return 0
		}, check: func(t *testing.T, r Result) {
			var cle *sim.CycleLimitError
			if !errors.As(r.Err, &cle) || cle.Limit != 1_000 {
				t.Fatalf("spawned machine escaped the cycle budget: %v", r.Err)
			}
		}},
		{name: "spawned/closed", run: func(o Options) uint64 {
			m := spawned(func() *machine.Machine {
				m := smallMachine(o.Env)
				for j := 0; j < 4; j++ {
					m.Eng.Go("parked", func(p *sim.Proc) { p.Suspend() })
				}
				m.Eng.RunUntil(100)
				return m
			})
			return uint64(m.Eng.Now())
		}},
		{name: "derived/faults", cfg: Config{Timeline: timeline.Config{Enabled: true}},
			run: func(o Options) uint64 {
				outer := finite(o.Env)
				inner := finite(o.Env.WithFaults(&sched))
				if inner.Faults == nil || outer.Faults != nil {
					t.Error("local fault schedule not applied to the derived Env alone")
				}
				return uint64(outer.Eng.Now() + inner.Eng.Now())
			}, check: func(t *testing.T, r Result) {
				if len(r.Timeline) != 2 {
					t.Fatalf("Result.Timeline has %d recorders, want both machines'", len(r.Timeline))
				}
			}},
		{name: "derived/timeline", cfg: Config{Timeline: timeline.Config{Enabled: true}},
			run: func(o Options) uint64 {
				outer := finite(o.Env)
				inner := finite(o.Env.WithTimeline(local))
				if inner.Timeline == nil || inner.Timeline.WindowCycles() != 100 {
					t.Error("local timeline config not applied")
				}
				return uint64(outer.Eng.Now() + inner.Eng.Now())
			}, check: func(t *testing.T, r Result) {
				if len(r.Timeline) != 1 || r.Timeline[0].WindowCycles() == 100 {
					t.Fatalf("Result.Timeline = %d recorders, want only the job-level one", len(r.Timeline))
				}
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			var want uint64
			cfg := c.cfg
			cfg.Workers = 1
			r := Run(cfg, []Job{{ID: c.name, Run: func(o Options) []*stats.Table {
				want = c.run(o)
				return nil
			}}})[0]
			if c.check != nil {
				c.check(t, r)
			} else if r.Err != nil {
				t.Fatal(r.Err)
			}
			if want != 0 && r.Metrics.SimCycles != want {
				t.Fatalf("SimCycles = %d, want %d", r.Metrics.SimCycles, want)
			}
			waitNoLeak(t, before, 1, 1)
		})
	}
}
