package machine

import (
	"sync"
	"testing"

	"mcsquare/internal/faultinject"
	"mcsquare/internal/sim"
	"mcsquare/internal/timeline"
	"mcsquare/internal/txtrace"
)

// newIn builds a small default machine in env.
func newIn(env *Env) *Machine {
	p := DefaultParams()
	p.MemSize = 16 << 20
	p.Env = env
	return New(p)
}

// TestEnvFaultPlanes: an inactive schedule gives machines no plane; an
// active one gives each machine a plane numbered in build order, and the
// sink lists them all.
func TestEnvFaultPlanes(t *testing.T) {
	for _, s := range []*faultinject.Schedule{nil, {Seed: 5}} {
		if m := newIn(NewEnv(Env{Faults: s})); m.Faults != nil {
			t.Fatalf("schedule %+v gave the machine a fault plane", s)
		}
	}
	s := faultinject.Schedule{Seed: 5, CTTEvictEvery: 1}
	env := NewEnv(Env{Faults: &s})
	if env.FaultSchedule() != s {
		t.Fatal("environment lost the schedule")
	}
	m1, m2 := newIn(env), newIn(env)
	if m1.Faults == nil || m2.Faults == nil {
		t.Fatal("active schedule gave a machine no plane")
	}
	for i, m := range []*Machine{m1, m2} {
		want := faultinject.NewPlane(s, i)
		for n := 0; n < 64; n++ {
			if m.Faults.Rand(1<<20) != want.Rand(1<<20) {
				t.Fatalf("machine %d's plane is not plane %d of the schedule", i, i)
			}
		}
	}
	m1.Faults.Fire(faultinject.KindCTTEvict, 0, 0)
	m2.Faults.Fire(faultinject.KindCTTEvict, 0, 0)
	m2.Faults.Fire(faultinject.KindCTTEvict, 0, 0)
	var fired uint64
	for _, m := range env.Machines() {
		fired += m.Faults.FiredTotal()
	}
	if fired != 3 || len(env.Machines()) != 2 {
		t.Fatalf("sink lists %d machines with %d faults fired, want 2 and 3", len(env.Machines()), fired)
	}
	env.Close()
}

// TestEnvCycleBudget: the environment's budget applies to every engine
// built in it, and Close reaches every machine it recorded.
func TestEnvCycleBudget(t *testing.T) {
	env := NewEnv(Env{CycleBudget: 100})
	m := newIn(env)
	m.Eng.Go("spinner", func(p *sim.Proc) {
		for {
			p.Wait(60)
		}
	})
	func() {
		defer func() {
			if _, ok := recover().(*sim.CycleLimitError); !ok {
				t.Fatal("budget did not stop the engine with *sim.CycleLimitError")
			}
		}()
		m.Eng.Drain()
	}()
	if got := env.Machines(); len(got) != 1 || got[0] != m {
		t.Fatalf("sink holds %v", got)
	}
	env.Close()
	newIn(nil)
	if len(env.Machines()) != 1 {
		t.Fatal("a machine built without an environment was recorded")
	}
}

// TestEnvTracers: enabled tracing gives every machine its own tracer,
// listed by Tracers in build order; disabled tracing gives none.
func TestEnvTracers(t *testing.T) {
	env := NewEnv(Env{Trace: txtrace.Config{Enabled: true, BufferSpans: 64}})
	m1, m2 := newIn(env), newIn(env)
	if m1.Trace == nil || m1.Trace == m2.Trace {
		t.Fatal("machines did not get tracers of their own")
	}
	if got := env.Tracers(); len(got) != 2 || got[0] != m1.Trace || got[1] != m2.Trace {
		t.Fatalf("Tracers = %v", got)
	}
	off := NewEnv(Env{})
	if m := newIn(off); m.Trace != nil || off.Tracers() != nil {
		t.Fatal("disabled tracing handed out a tracer")
	}
}

// TestEnvWithTimeline: an Env derived with its own timeline (or fault
// schedule) shares the run's machines and metrics, but its recorders stay
// out of the run's list, and its fault planes number from 0.
func TestEnvWithTimeline(t *testing.T) {
	s := faultinject.Schedule{Seed: 9, WPQRejectEvery: 3}
	env := NewEnv(Env{Timeline: timeline.Config{Enabled: true, WindowCycles: 50}, Faults: &s})
	outer := newIn(env)
	local := env.WithTimeline(timeline.Config{Enabled: true, WindowCycles: 20})
	inner := newIn(local)
	if inner.Timeline == nil || inner.Timeline.WindowCycles() != 20 {
		t.Fatal("derived timeline config not applied")
	}
	if got := env.Recorders(); len(got) != 1 || got[0] != outer.Timeline {
		t.Fatalf("run recorders = %v, want only the outer machine's", got)
	}
	if got := local.Recorders(); len(got) != 1 || got[0] != inner.Timeline {
		t.Fatalf("derived recorders = %v", got)
	}
	if len(env.Machines()) != 2 || len(env.Metrics().Registries()) != 2 {
		t.Fatal("derived Env does not share the run's sink")
	}

	// Fault numbering: the timeline override kept the run's counter (the
	// inner machine is plane 1); a fault override restarts it at 0.
	s2 := faultinject.Schedule{Seed: 9, WPQRejectEvery: 3}
	chaos := newIn(env.WithFaults(&s2))
	for _, c := range []struct {
		m   *Machine
		idx int
	}{{outer, 0}, {inner, 1}, {chaos, 0}} {
		want := faultinject.NewPlane(s, c.idx)
		for i := 0; i < 16; i++ {
			if c.m.Faults.Rand(1<<20) != want.Rand(1<<20) {
				t.Fatalf("plane identity %d not reproduced", c.idx)
			}
		}
	}

	// Deriving from no environment still yields the override's planes.
	var none *Env
	if newIn(none.WithTimeline(timeline.Config{Enabled: true})).Timeline == nil {
		t.Fatal("WithTimeline on a nil Env built no recorder")
	}
	env.Close()
}

// TestEnvConcurrentBuilds: machines built in one Env (and Envs derived
// from it) from several goroutines at once are all recorded, each with its
// registry, and fault-plane identities stay distinct.
func TestEnvConcurrentBuilds(t *testing.T) {
	s := faultinject.Schedule{Seed: 1, CTTEvictEvery: 2}
	env := NewEnv(Env{Faults: &s, Timeline: timeline.Config{Enabled: true}})
	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e := env
			if i%2 == 1 {
				e = env.WithPlaneID(100 + i)
			}
			newIn(e)
		}(i)
	}
	wg.Wait()
	ms := env.Machines()
	if len(ms) != n || len(env.Metrics().Registries()) != n || len(env.Recorders()) != n {
		t.Fatalf("recorded %d machines, %d registries, %d recorders; want %d each",
			len(ms), len(env.Metrics().Registries()), len(env.Recorders()), n)
	}
	seen := map[uint64]bool{}
	for _, m := range ms {
		seen[m.Faults.Rand(1<<62)] = true
	}
	if len(seen) != n {
		t.Fatalf("%d distinct fault planes among %d machines", len(seen), n)
	}
	env.Close()
}
