package fleet

import (
	"reflect"
	"testing"

	"mcsquare/internal/config"
	"mcsquare/internal/faultinject"
	"mcsquare/internal/machine"
)

// testSpec is a small fleet over the two cheapest workload families.
func testSpec() config.MachineSpec {
	spec := config.Default()
	spec.Fleet = &config.FleetSpec{
		Machines: 2,
		Requests: 400,
		QueueCap: 8,
		Mix: []config.MixEntry{
			{Workload: "mvcc", Weight: 0.6},
			{Workload: "protobuf", Weight: 0.4},
		},
	}
	return spec
}

func TestRunDeterminism(t *testing.T) {
	run := func() *Result {
		res, err := Run(testSpec(), Options{Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Completed == 0 {
		t.Fatal("no requests completed")
	}
	if a.Offered != b.Offered || a.Completed != b.Completed || a.Dropped != b.Dropped {
		t.Fatalf("counts diverged: %+v vs %+v", a, b)
	}
	if !reflect.DeepEqual(a.Served, b.Served) {
		t.Fatalf("per-machine served diverged: %v vs %v", a.Served, b.Served)
	}
	if !reflect.DeepEqual(a.Latencies.Samples(), b.Latencies.Samples()) {
		t.Fatal("latency sample streams diverged across identical runs")
	}
	if a.GoodputKOps() <= 0 || a.PercentileMs(99) <= 0 {
		t.Fatalf("degenerate operating point: goodput=%v p99=%v", a.GoodputKOps(), a.PercentileMs(99))
	}
}

// TestCalibrationOrderIndependence pins the chaos-replay guarantee: in a
// run environment with a fault schedule, calibrating machines in reverse
// order yields the same per-machine service model as calibrating in natural
// order, because plane identity is pinned to the stable machine index.
func TestCalibrationOrderIndependence(t *testing.T) {
	sched := faultinject.FromSeed(7)
	calibrate := func(order []int) [][]float64 {
		env := machine.NewEnv(machine.Env{Faults: &sched})
		f, err := New(testSpec(), Options{Quick: true, Env: env})
		if err != nil {
			t.Fatal(err)
		}
		out := make([][]float64, len(f.Specs))
		for _, i := range order {
			mc, err := f.calibrateMachine(i, f.Specs[i], "mc2")
			if err != nil {
				t.Fatal(err)
			}
			// Flatten the machine's sample vectors for comparison.
			for _, v := range mc.samples {
				out[i] = append(out[i], v...)
			}
		}
		for _, m := range env.Machines() {
			if m.Faults == nil {
				t.Fatal("calibration machine built without the environment's fault plane")
			}
		}
		return out
	}
	forward := calibrate([]int{0, 1})
	reverse := calibrate([]int{1, 0})
	for i := range forward {
		if len(forward[i]) == 0 {
			t.Fatalf("machine %d: empty calibration", i)
		}
		if !reflect.DeepEqual(forward[i], reverse[i]) {
			t.Fatalf("machine %d: service model depends on instantiation order", i)
		}
	}
}

// syntheticFleet builds a Fleet + Calibration with hand-authored service
// times, bypassing the simulator, for load-balancer unit tests.
func syntheticFleet(t *testing.T, lb string, machines int, service float64) (*Fleet, *Calibration) {
	t.Helper()
	spec := config.Default()
	spec.Fleet = &config.FleetSpec{
		Machines:          machines,
		Requests:          1000,
		QueueCap:          1 << 20,
		ServersPerMachine: 1,
		LB:                lb,
		Mix:               []config.MixEntry{{Workload: "mvcc", Weight: 1}},
	}
	f, err := New(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cal := &Calibration{Mechanism: "baseline", weights: []float64{1}}
	for i := 0; i < machines; i++ {
		cal.machines = append(cal.machines, machineCalib{
			samples: [][]float64{{service}},
			means:   []float64{service},
			servers: 1,
		})
	}
	return f, cal
}

func TestRoundRobinSpreadsEvenly(t *testing.T) {
	f, cal := syntheticFleet(t, "rr", 4, 100)
	res := f.Simulate(cal, cal.CapacityReqPerCycle()*0.5)
	if res.Completed != res.Offered || res.Dropped != 0 {
		t.Fatalf("lost requests: %+v", res)
	}
	for i, n := range res.Served {
		if n != res.Offered/4 {
			t.Fatalf("rr: machine %d served %d of %d", i, n, res.Offered)
		}
	}
}

func TestLeastOutstandingAvoidsBusyMachine(t *testing.T) {
	f, cal := syntheticFleet(t, "least", 2, 100)
	// Machine 1 is 10x slower: least-outstanding should shift load to 0.
	cal.machines[1].samples = [][]float64{{1000}}
	cal.machines[1].means = []float64{1000}
	res := f.Simulate(cal, cal.CapacityReqPerCycle()*0.8)
	if res.Served[0] <= res.Served[1] {
		t.Fatalf("least: slow machine served more: %v", res.Served)
	}
}

func TestHashRoutingIsSticky(t *testing.T) {
	f, cal := syntheticFleet(t, "hash", 4, 100)
	a := f.Simulate(cal, cal.CapacityReqPerCycle()*0.5)
	b := f.Simulate(cal, cal.CapacityReqPerCycle()*0.5)
	if !reflect.DeepEqual(a.Served, b.Served) {
		t.Fatalf("hash routing not deterministic: %v vs %v", a.Served, b.Served)
	}
	spread := 0
	for _, n := range a.Served {
		if n > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Fatalf("hash routing collapsed onto %d machine(s): %v", spread, a.Served)
	}
}

func TestOverloadDropsAndQueues(t *testing.T) {
	f, cal := syntheticFleet(t, "rr", 2, 100)
	f.Block.QueueCap = 4
	res := f.Simulate(cal, cal.CapacityReqPerCycle()*3)
	if res.Dropped == 0 {
		t.Fatalf("3x overload with QueueCap=4 dropped nothing: %+v", res)
	}
	if res.Completed+res.Dropped != res.Offered {
		t.Fatalf("request conservation: %d + %d != %d", res.Completed, res.Dropped, res.Offered)
	}
	if res.MeanQueueDepth <= 0 || res.MaxQueueDepth == 0 {
		t.Fatalf("overload built no queue: %+v", res)
	}
	// Under light load the same fleet queues nothing and drops nothing.
	light := f.Simulate(cal, cal.CapacityReqPerCycle()*0.1)
	if light.Dropped != 0 {
		t.Fatalf("light load dropped %d", light.Dropped)
	}
}

func TestTraceArrivals(t *testing.T) {
	f, cal := syntheticFleet(t, "rr", 2, 100)
	f.Block.Arrival = config.ArrivalSpec{Process: "trace", GapsCycles: []float64{50, 150}}
	res := f.Simulate(cal, 1.0/100)
	if res.Completed != res.Offered {
		t.Fatalf("trace arrivals lost requests: %+v", res)
	}
	// Gaps average 100 cycles at service 100 on 2 machines: no queueing, so
	// every latency is exactly the service time.
	if res.Latencies.Max() != 100 {
		t.Fatalf("trace max latency = %v, want pure service time 100", res.Latencies.Max())
	}
}

func TestHeterogeneousGroups(t *testing.T) {
	spec := config.Default()
	spec.Fleet = &config.FleetSpec{
		Groups: []config.FleetGroup{
			{Count: 2},
			{Count: 1, Set: []string{"Lazy.CTTCapacity=512"}},
		},
		Mix: []config.MixEntry{{Workload: "mvcc", Weight: 1}},
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	f, err := New(spec, Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Specs) != 3 {
		t.Fatalf("expanded %d machines, want 3", len(f.Specs))
	}
	if f.Specs[0].Lazy.CTTCapacity == f.Specs[2].Lazy.CTTCapacity {
		t.Fatal("group override did not differentiate machine 2")
	}
	if f.Specs[2].Lazy.CTTCapacity != 512 {
		t.Fatalf("machine 2 CTTCapacity = %d, want 512", f.Specs[2].Lazy.CTTCapacity)
	}
	bad := spec
	bad.Fleet = &config.FleetSpec{Groups: []config.FleetGroup{{Count: 1, Set: []string{"NoSuchField=1"}}}}
	if _, err := New(bad, Options{}); err == nil {
		t.Fatal("unknown group override did not error")
	}
}

func TestFleetValidation(t *testing.T) {
	spec := config.Default()
	spec.Fleet = &config.FleetSpec{LB: "random"}
	if err := spec.Validate(); err == nil {
		t.Fatal("unknown LB policy validated")
	}
	spec.Fleet = &config.FleetSpec{Arrival: config.ArrivalSpec{Process: "trace"}}
	if err := spec.Validate(); err == nil {
		t.Fatal("trace arrivals without gaps validated")
	}
	spec.Fleet = &config.FleetSpec{Mix: []config.MixEntry{{Workload: "redis", Weight: 1}}}
	if err := spec.Validate(); err == nil {
		t.Fatal("unknown mix workload validated")
	}
	spec.Fleet = &config.FleetSpec{Machines: 3}
	if err := spec.Validate(); err != nil {
		t.Fatalf("partial fleet block failed validation: %v", err)
	}
}
