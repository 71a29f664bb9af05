package fleet

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"mcsquare/internal/config"
	"mcsquare/internal/faultinject"
	"mcsquare/internal/machine"
)

// withResilience installs a normalized resilience block on a constructed
// fleet (syntheticFleet specs carry none).
func withResilience(f *Fleet, r config.ResilienceSpec) {
	rn := r.Normalized()
	f.Block.Resilience = &rn
}

// withStorm runs f in a run environment carrying sched, the way the
// runner and figure cells do.
func withStorm(t *testing.T, f *Fleet, sched faultinject.Schedule) {
	t.Helper()
	if !sched.Active() {
		t.Fatal("withStorm: schedule is inactive")
	}
	f.Env = machine.NewEnv(machine.Env{Faults: &sched})
}

// testStorm is a busy fleet storm: crashes roughly every 50k cycles per
// machine (10k down), brownouts half the time at 4x, probes lossy 1-in-8.
func testStorm(seed uint64) faultinject.Schedule {
	return faultinject.Schedule{
		Seed:                 seed,
		CrashMeanUpCycles:    50_000,
		CrashMeanDownCycles:  10_000,
		BrownoutMeanUpCycles: 40_000,
		BrownoutMeanCycles:   20_000,
		BrownoutFactor:       4,
		ProbeLossEvery:       8,
	}
}

// conservation asserts the fleet availability invariant.
func conservation(t *testing.T, res *Result) {
	t.Helper()
	sum := res.Completed + res.Resilience.TimedOut + res.Resilience.Shed +
		res.Dropped + res.Resilience.Failed
	if sum != res.Offered {
		t.Fatalf("conservation violated: offered %d != completed %d + timedout %d + shed %d + dropped %d + failed %d",
			res.Offered, res.Completed, res.Resilience.TimedOut,
			res.Resilience.Shed, res.Dropped, res.Resilience.Failed)
	}
}

func TestResilienceConservationUnderStorm(t *testing.T) {
	f, cal := syntheticFleet(t, "least", 4, 100)
	f.Block.Requests = 4000 // long enough that every storm kind fires
	withResilience(f, config.ResilienceSpec{
		Health:  &config.HealthSpec{Enabled: true, ProbeIntervalCycles: 5_000},
		Retry:   &config.RetrySpec{Enabled: true},
		Hedge:   &config.HedgeSpec{Enabled: true},
		Breaker: &config.BreakerSpec{Enabled: true},
		Shed:    &config.ShedSpec{Enabled: true},
	})
	withStorm(t, f, testStorm(11))
	res := f.Simulate(cal, cal.CapacityReqPerCycle()*0.8)
	if !res.ResilienceOn {
		t.Fatal("resilience plane did not engage")
	}
	conservation(t, res)
	if res.Resilience.Crashes == 0 {
		t.Fatal("storm produced no crashes")
	}
	if res.Resilience.Brownouts == 0 {
		t.Fatal("storm produced no brownouts")
	}
	if res.Resilience.ProbesSent == 0 || res.Resilience.ProbesLost == 0 {
		t.Fatalf("probe accounting: sent %d lost %d",
			res.Resilience.ProbesSent, res.Resilience.ProbesLost)
	}
	var down float64
	for _, d := range res.DowntimeCycles {
		down += d
	}
	if down <= 0 {
		t.Fatal("crashes recorded but no downtime accumulated")
	}
}

func TestResilienceDeterministicReplay(t *testing.T) {
	run := func(sched faultinject.Schedule) *Result {
		f, cal := syntheticFleet(t, "hash", 3, 100)
		withResilience(f, config.ResilienceSpec{
			Health: &config.HealthSpec{Enabled: true, ProbeIntervalCycles: 5_000},
			Retry:  &config.RetrySpec{Enabled: true},
		})
		f.Env = machine.NewEnv(machine.Env{Faults: &sched})
		return f.Simulate(cal, cal.CapacityReqPerCycle()*0.7)
	}
	sched := testStorm(23)
	a := run(sched)

	// Round-trip the schedule through its JSON form, the CI replay path.
	b, err := json.Marshal(sched)
	if err != nil {
		t.Fatal(err)
	}
	var back faultinject.Schedule
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != sched {
		t.Fatalf("storm lost in JSON round trip: %+v vs %+v", back, sched)
	}
	c := run(back)
	if a.Resilience != c.Resilience || a.Completed != c.Completed ||
		a.Dropped != c.Dropped || a.GoodputKOps() != c.GoodputKOps() {
		t.Fatalf("replayed storm diverged:\n first: %+v / completed %d\nreplay: %+v / completed %d",
			a.Resilience, a.Completed, c.Resilience, c.Completed)
	}
	conservation(t, a)
}

func TestCrashFailoverWithRetries(t *testing.T) {
	f, cal := syntheticFleet(t, "rr", 3, 100)
	withResilience(f, config.ResilienceSpec{
		Health: &config.HealthSpec{Enabled: true, ProbeIntervalCycles: 2_000, FailThreshold: 1, RestoreThreshold: 1},
		Retry:  &config.RetrySpec{Enabled: true, MaxAttempts: 4},
	})
	withStorm(t, f, faultinject.Schedule{
		Seed:                31,
		CrashMeanUpCycles:   20_000,
		CrashMeanDownCycles: 20_000,
	})
	res := f.Simulate(cal, cal.CapacityReqPerCycle()*0.6)
	conservation(t, res)
	if res.Resilience.Crashes == 0 {
		t.Fatal("no crashes under a crash-heavy storm")
	}
	if res.Resilience.Retries == 0 {
		t.Fatal("crash-flushed requests were never retried")
	}
	if res.Resilience.FailedOver == 0 {
		t.Fatal("no request completed on a retry attempt")
	}
	if res.Completed == 0 {
		t.Fatal("nothing completed despite retries")
	}
}

func TestHedgingFirstWins(t *testing.T) {
	f, cal := syntheticFleet(t, "least", 2, 100)
	withResilience(f, config.ResilienceSpec{
		// Hedge aggressively: any request not done 50 cycles after arrival
		// (service is 100) issues a duplicate.
		Hedge: &config.HedgeSpec{Enabled: true, DelayCycles: 50},
	})
	res := f.Simulate(cal, cal.CapacityReqPerCycle()*0.8)
	conservation(t, res)
	if res.Resilience.Hedges == 0 {
		t.Fatal("no hedges issued at a 50-cycle delay against 100-cycle service")
	}
	if res.Completed != res.Offered {
		t.Fatalf("hedging lost requests: completed %d of %d", res.Completed, res.Offered)
	}
	// First-wins is pairwise: each issued hedge produces exactly one
	// cancellation — the hedge itself when the primary wins, the primary
	// when the hedge wins — and wins are a subset of hedges.
	if res.Resilience.HedgeCancels != res.Resilience.Hedges {
		t.Fatalf("hedge accounting: %d cancels != %d hedges",
			res.Resilience.HedgeCancels, res.Resilience.Hedges)
	}
	if res.Resilience.HedgeWins > res.Resilience.Hedges {
		t.Fatalf("hedge accounting: %d wins > %d hedges",
			res.Resilience.HedgeWins, res.Resilience.Hedges)
	}
}

func TestLoadSheddingByPriority(t *testing.T) {
	f, cal := syntheticFleet(t, "least", 2, 100)
	// Two mix entries sharing the mvcc calibration: one sheddable
	// (priority 0), one protected (priority 1).
	f.Block.Mix = []config.MixEntry{
		{Workload: "mvcc", Weight: 0.5},
		{Workload: "kvsnap", Weight: 0.5, Priority: 1},
	}
	cal.weights = []float64{0.5, 0.5}
	for i := range cal.machines {
		cal.machines[i].samples = [][]float64{{100}, {100}}
		cal.machines[i].means = []float64{100, 100}
	}
	f.Spec.Timeline = nil
	withResilience(f, config.ResilienceSpec{
		Shed: &config.ShedSpec{Enabled: true, UtilizationHigh: 0.5, PriorityFloor: 1},
	})
	res := f.Simulate(cal, cal.CapacityReqPerCycle()*1.5)
	conservation(t, res)
	if res.Resilience.Shed == 0 {
		t.Fatal("overload shed nothing")
	}
	// Only the priority-0 entry may shed; the protected entry's requests
	// all complete or queue (queue cap is effectively unbounded here).
	mvccDone := res.PerWorkload["mvcc"]
	kvDone := res.PerWorkload["kvsnap"]
	if kvDone == 0 {
		t.Fatal("protected workload starved")
	}
	if mvccDone+kvDone != res.Completed {
		t.Fatalf("per-workload split %d+%d != completed %d", mvccDone, kvDone, res.Completed)
	}
	if mvccDone+res.Resilience.Shed+kvDone != res.Offered {
		t.Fatalf("shed requests did not come out of the sheddable tier: mvcc %d kv %d shed %d offered %d",
			mvccDone, kvDone, res.Resilience.Shed, res.Offered)
	}
}

func TestBreakerOpensOnConsecutiveFailures(t *testing.T) {
	f, cal := syntheticFleet(t, "rr", 2, 100)
	// No health checks: the balancer keeps routing to crashed machines,
	// so only the breaker can stop the bleeding.
	withResilience(f, config.ResilienceSpec{
		Retry:   &config.RetrySpec{Enabled: true},
		Breaker: &config.BreakerSpec{Enabled: true, FailThreshold: 3, OpenCycles: 30_000},
	})
	withStorm(t, f, faultinject.Schedule{
		Seed:                47,
		CrashMeanUpCycles:   15_000,
		CrashMeanDownCycles: 40_000,
	})
	res := f.Simulate(cal, cal.CapacityReqPerCycle()*0.6)
	conservation(t, res)
	if res.Resilience.BreakerOpens == 0 {
		t.Fatal("breaker never opened against a crash-heavy storm")
	}
}

func TestTimeoutsResolveRequests(t *testing.T) {
	f, cal := syntheticFleet(t, "least", 2, 100)
	withResilience(f, config.ResilienceSpec{
		// A 150-cycle budget against 100-cycle service: anything that
		// waits behind one full request times out; one retry allowed.
		Retry: &config.RetrySpec{Enabled: true, MaxAttempts: 2, TimeoutCycles: 150},
	})
	res := f.Simulate(cal, cal.CapacityReqPerCycle()*1.2)
	conservation(t, res)
	if res.Resilience.TimedOut == 0 {
		t.Fatal("overload produced no timeouts under a tight budget")
	}
	if res.Resilience.Retries == 0 {
		t.Fatal("timeouts were never retried")
	}
}

// TestLegacyPathUntouchedByDefaults pins that a default spec (no
// resilience block, no storm) reports the plane off and all counters zero.
func TestLegacyPathUntouchedByDefaults(t *testing.T) {
	f, cal := syntheticFleet(t, "least", 2, 100)
	res := f.Simulate(cal, cal.CapacityReqPerCycle()*0.5)
	if res.ResilienceOn {
		t.Fatal("resilience plane engaged without a spec block or storm")
	}
	if res.Resilience != (ResilienceStats{}) {
		t.Fatalf("legacy run accumulated resilience counters: %+v", res.Resilience)
	}
}

// --- LB routing under membership change (satellite) ---

// routeSim builds a minimal fleetSim with the health plane on for direct
// route() probing.
func routeSim(t *testing.T, lb string, n int) *fleetSim {
	t.Helper()
	f, cal := syntheticFleet(t, lb, n, 100)
	withResilience(f, config.ResilienceSpec{Health: &config.HealthSpec{Enabled: true}})
	s := &fleetSim{f: f, cal: cal, res: &Result{}, resPlane: resPlane{spec: *f.Block.Resilience}}
	s.machines = make([]machineState, n)
	for i := range s.machines {
		s.machines[i] = machineState{free: 1, up: true, member: true}
	}
	return s
}

func TestHashRoutingStableAcrossMembershipChange(t *testing.T) {
	s := routeSim(t, "hash", 5)
	keys := make([]uint64, 300)
	for i := range keys {
		keys[i] = uint64(i)*0x9e3779b97f4a7c15 + 7
	}
	before := make([]int, len(keys))
	for i, k := range keys {
		m, ok := s.route(&attempt{rs: &reqState{req: request{hashKey: k}}}, 0)
		if !ok {
			t.Fatal("no route with all members healthy")
		}
		before[i] = m
	}
	// Machine 2 leaves the ring: survivors' keys must not move.
	s.machines[2].member = false
	moved := 0
	for i, k := range keys {
		m, ok := s.route(&attempt{rs: &reqState{req: request{hashKey: k}}}, 0)
		if !ok {
			t.Fatal("no route with four members")
		}
		if before[i] == 2 {
			if m == 2 {
				t.Fatalf("key %d still routed to the departed machine", k)
			}
			moved++
			continue
		}
		if m != before[i] {
			t.Fatalf("key %d remapped %d -> %d though its machine survived", k, before[i], m)
		}
	}
	if moved == 0 {
		t.Fatal("no key ever mapped to the departed machine; test is vacuous")
	}
}

// TestHashRoutingPlaneOffIsRendezvous pins the one hash policy: with every
// mitigation off and no storm, key k goes to rendezvousPick(k, all
// machines), the choice a health-checked fleet makes while every machine
// is a member. The keys are recovered by replaying the fleet stream's
// per-arrival draws (gap, workload, service sample, key).
func TestHashRoutingPlaneOffIsRendezvous(t *testing.T) {
	const n = 5
	f, cal := syntheticFleet(t, "hash", n, 100)
	res := f.Simulate(cal, cal.CapacityReqPerCycle()*0.3)
	if res.ResilienceOn || res.Completed != res.Offered {
		t.Fatalf("want a plane-off run that completes everything: %+v", res)
	}
	all := []int{0, 1, 2, 3, 4}
	want := make([]uint64, n)
	rnd := f.rng()
	for i := uint64(0); i < res.Offered; i++ {
		rnd.ExpFloat64()
		rnd.Float64()
		rnd.Intn(1 << 30)
		want[rendezvousPick(rnd.Uint64(), all)]++
	}
	if !reflect.DeepEqual(res.Served, want) {
		t.Fatalf("served per machine %v, want rendezvous placement %v", res.Served, want)
	}
}

func TestRendezvousPickProperties(t *testing.T) {
	cases := []struct {
		name    string
		members []int
	}{
		{"all", []int{0, 1, 2, 3}},
		{"sparse", []int{1, 3}},
		{"single", []int{2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for k := uint64(0); k < 200; k++ {
				m := rendezvousPick(k*2654435761, tc.members)
				found := false
				for _, c := range tc.members {
					if c == m {
						found = true
					}
				}
				if !found {
					t.Fatalf("key %d picked non-member %d from %v", k, m, tc.members)
				}
				if m2 := rendezvousPick(k*2654435761, tc.members); m2 != m {
					t.Fatalf("pick not deterministic: %d vs %d", m, m2)
				}
			}
		})
	}
}

func TestLeastNeverRoutesToEjectedMachine(t *testing.T) {
	s := routeSim(t, "least", 3)
	// Machine 0 is idle (outstanding 0) but ejected: least must pass it
	// over even though it would win on load.
	s.machines[0].member = false
	s.machines[1].busy = 1
	s.machines[2].busy = 2
	for i := 0; i < 50; i++ {
		m, ok := s.route(&attempt{rs: &reqState{req: request{hashKey: uint64(i)}}}, 0)
		if !ok {
			t.Fatal("no route with two members")
		}
		if m == 0 {
			t.Fatal("least routed to an ejected machine")
		}
		if m != 1 {
			t.Fatalf("least picked machine %d, want the least-loaded member 1", m)
		}
	}
}

func TestRoundRobinSkipsEjectedMachine(t *testing.T) {
	s := routeSim(t, "rr", 3)
	s.machines[1].member = false
	var got []int
	for i := 0; i < 6; i++ {
		m, ok := s.route(&attempt{rs: &reqState{req: request{}}}, 0)
		if !ok {
			t.Fatal("no route")
		}
		got = append(got, m)
	}
	want := []int{0, 2, 0, 2, 0, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rr rotation %v, want %v", got, want)
		}
	}
}

// --- satellite: depth accounting semantics and the n==0 guard ---

// TestMeanQueueDepthSemantics pins the documented depth accounting: depth
// is sampled at arrival instants, counts only waiting (queued) requests,
// and excludes the one in service. Trace arrivals every 10 cycles against
// 100-cycle service on one single-server machine: the first arrival
// starts, later ones queue, so the samples are 0,0,1,2,... until the
// first completion.
func TestMeanQueueDepthSemantics(t *testing.T) {
	f, cal := syntheticFleet(t, "least", 1, 100)
	f.Block.Requests = 4
	f.Block.Arrival = config.ArrivalSpec{Process: "trace", GapsCycles: []float64{10}}
	res := f.Simulate(cal, 1) // trace arrivals ignore the rate
	if res.Offered != 4 {
		t.Fatalf("offered %d, want 4", res.Offered)
	}
	// Samples at t=10,20,30,40: depths 0 (starts), 0 (enters service
	// queue... busy, queues: depth sampled before placement = 0), 1, 2.
	if want := (0.0 + 0 + 1 + 2) / 4; res.MeanQueueDepth != want {
		t.Fatalf("MeanQueueDepth = %v, want %v (queued-only, arrival-instant sampling)",
			res.MeanQueueDepth, want)
	}
	if res.MaxQueueDepth != 2 {
		t.Fatalf("MaxQueueDepth = %d, want 2 (the busy request is not depth)", res.MaxQueueDepth)
	}
}

// TestZeroRequestsGuard pins the explicit n<=0 guard: a Requests=0 block
// (reachable when a caller mutates the normalized block, or if the quick
// shrink ever rounds to zero) returns an empty result instead of
// dividing by zero or indexing arrivals[0].
func TestZeroRequestsGuard(t *testing.T) {
	f, cal := syntheticFleet(t, "least", 2, 100)
	f.Block.Requests = 0
	res := f.Simulate(cal, cal.CapacityReqPerCycle()*0.5)
	if res.Offered != 0 || res.Completed != 0 || res.Dropped != 0 {
		t.Fatalf("zero-request run produced traffic: %+v", res)
	}
	if res.MeanQueueDepth != 0 || res.DurationCycles != 0 {
		t.Fatalf("zero-request run produced rates: depth %v duration %v",
			res.MeanQueueDepth, res.DurationCycles)
	}
	// Rate 0 takes the same guard.
	f.Block.Requests = 100
	if res := f.Simulate(cal, 0); res.Offered != 0 {
		t.Fatalf("zero-rate run offered %d", res.Offered)
	}
}

// --- timeline integration ---

// TestTimelineResilienceColumns checks that the windowed outcomes sum to
// the run totals, with the outcome columns exported only when the run's
// ResilienceOn: under a storm with retries, and with every mitigation off
// under an overload that drops at the door.
func TestTimelineResilienceColumns(t *testing.T) {
	const header = "window,start,end,arrivals,completed,dropped,goodput_kops,mean_depth,max_depth,p50_ms,p99_ms"
	cases := []struct {
		name    string
		setup   func(t *testing.T, f *Fleet)
		load    float64 // offered load as a multiple of capacity
		columns string  // outcome columns appended to the CSV header
	}{
		{"storm", func(t *testing.T, f *Fleet) {
			withResilience(f, config.ResilienceSpec{
				Retry: &config.RetrySpec{Enabled: true, MaxAttempts: 2, TimeoutCycles: 150},
			})
			withStorm(t, f, testStorm(59))
		}, 0.8, ",timed_out,shed,failed,retries,hedges"},
		{"plane-off-overload", func(t *testing.T, f *Fleet) { f.Block.QueueCap = 4 }, 3, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, cal := syntheticFleet(t, "least", 3, 100)
			f.Spec.Timeline = &config.TimelineSpec{Enabled: true, WindowCycles: 10_000}
			tc.setup(t, f)
			res := f.Simulate(cal, cal.CapacityReqPerCycle()*tc.load)
			conservation(t, res)
			if res.ResilienceOn != (tc.columns != "") {
				t.Fatalf("ResilienceOn = %v", res.ResilienceOn)
			}
			if tc.columns == "" && res.Dropped == 0 {
				t.Fatal("the overload dropped nothing")
			}
			tl := res.Timeline
			var buf bytes.Buffer
			if err := tl.WriteCSV(&buf); err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(buf.String(), header+tc.columns+"\n") {
				t.Fatalf("CSV header wrong:\n%s", buf.String()[:min(len(buf.String()), 200)])
			}
			var to, sh, fl, dr, cp uint64
			for i := range tl.Windows {
				w := &tl.Windows[i]
				to += w.TimedOut
				sh += w.Shed
				fl += w.Failed
				dr += w.Dropped
				cp += w.Completed
			}
			if to != res.Resilience.TimedOut || sh != res.Resilience.Shed ||
				fl != res.Resilience.Failed || dr != res.Dropped || cp != res.Completed {
				t.Fatalf("windowed outcomes (to %d sh %d fl %d dr %d cp %d) != totals (%d %d %d %d %d)",
					to, sh, fl, dr, cp,
					res.Resilience.TimedOut, res.Resilience.Shed, res.Resilience.Failed,
					res.Dropped, res.Completed)
			}
		})
	}
}
