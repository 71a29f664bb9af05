package fleet

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"

	"mcsquare/internal/config"
)

// refHeap is the container/heap event queue the typed eventHeap replaced,
// kept here only as the differential reference.
type refHeap []event

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// TestEventHeapMatchesContainerHeap drives the typed heap and the
// container/heap reference with the same seeded stream of interleaved
// pushes and pops, drawing times from a small set so exact ties on at are
// common. Both must pop the identical (at, seq, kind) sequence, and every
// slot the typed heap vacates must be zeroed.
func TestEventHeapMatchesContainerHeap(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 42} {
		rnd := rand.New(rand.NewSource(seed))
		var got eventHeap
		var ref refHeap
		var seq uint64
		popped := 0
		pop := func() {
			g := got.pop()
			w := heap.Pop(&ref).(event)
			if g.at != w.at || g.seq != w.seq || g.kind != w.kind {
				t.Fatalf("seed %d pop %d: got (%v, %d, %d), want (%v, %d, %d)",
					seed, popped, g.at, g.seq, g.kind, w.at, w.seq, w.kind)
			}
			if tail := got[len(got):cap(got)]; len(tail) > 0 && tail[0] != (event{}) {
				t.Fatalf("seed %d pop %d: vacated slot not zeroed: %+v", seed, popped, tail[0])
			}
			popped++
		}
		for i := 0; i < 20_000; i++ {
			if len(got) > 0 && rnd.Intn(5) < 2 {
				pop()
				continue
			}
			e := event{at: float64(rnd.Intn(64)), seq: seq, kind: evKind(rnd.Intn(int(evProbe) + 1))}
			if rnd.Intn(4) == 0 {
				e.at += 0.5 // some non-integral times between the ties
			}
			seq++
			got.push(e)
			heap.Push(&ref, e)
		}
		for len(got) > 0 {
			pop()
		}
		if ref.Len() != 0 {
			t.Fatalf("seed %d: reference still holds %d events", seed, ref.Len())
		}
	}
}

// stormFleet is a four-machine synthetic fleet with every mitigation on
// under testStorm, bound for the rest of the test.
func stormFleet(t *testing.T) (*Fleet, *Calibration) {
	t.Helper()
	f, cal := syntheticFleet(t, "least", 4, 100)
	withResilience(f, config.ResilienceSpec{
		Health:  &config.HealthSpec{Enabled: true, ProbeIntervalCycles: 5_000},
		Retry:   &config.RetrySpec{Enabled: true},
		Hedge:   &config.HedgeSpec{Enabled: true},
		Breaker: &config.BreakerSpec{Enabled: true},
		Shed:    &config.ShedSpec{Enabled: true},
	})
	withStorm(t, f, testStorm(11))
	return f, cal
}

// TestSimulateAllocationPin keeps the queueing loop allocation-free per
// request: events move by value through a typed heap, request and attempt
// state come from slabs, and the machine queues and routing buffer are
// reused. What remains is per run (the arrival stream, the Result) or
// amortized (histogram and heap growth, one slab chunk per 1024
// requests). Boxing events into a container/heap again, or allocating
// each request's state on its own, costs at least one allocation per
// request and fails here.
func TestSimulateAllocationPin(t *testing.T) {
	const requests = 100_000
	cases := []struct {
		name  string
		fleet func(*testing.T) (*Fleet, *Calibration)
		limit float64 // allocations per request
	}{
		// Measured 0.0019 (legacy) and 0.0040 (storm) per request.
		{"legacy", func(t *testing.T) (*Fleet, *Calibration) { return syntheticFleet(t, "least", 4, 100) }, 0.005},
		{"storm", stormFleet, 0.01},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, cal := tc.fleet(t)
			f.Block.Requests = requests
			rate := cal.CapacityReqPerCycle() * 0.8
			var res *Result
			allocs := testing.AllocsPerRun(2, func() { res = f.Simulate(cal, rate) })
			if res.Offered != requests || res.Completed == 0 {
				t.Fatalf("degenerate run: offered %d completed %d", res.Offered, res.Completed)
			}
			perReq := allocs / requests
			t.Logf("%.0f allocations per run, %.4f per request", allocs, perReq)
			if perReq > tc.limit {
				t.Fatalf("Simulate allocates %.4f times per request, want at most %v", perReq, tc.limit)
			}
		})
	}
}

// TestNoCompletionDuration: a fleet that completes nothing (no servers,
// no queue) spans zero cycles and reports zero goodput, not a negative
// duration and "-0".
func TestNoCompletionDuration(t *testing.T) {
	f, cal := syntheticFleet(t, "least", 2, 100)
	f.Block.QueueCap = 0
	for i := range cal.machines {
		cal.machines[i].servers = 0
	}
	res := f.Simulate(cal, 0.01)
	if res.Offered == 0 || res.Completed != 0 || res.Dropped != res.Offered {
		t.Fatalf("expected every request dropped: offered %d completed %d dropped %d",
			res.Offered, res.Completed, res.Dropped)
	}
	if res.DurationCycles < 0 {
		t.Fatalf("DurationCycles = %v, want >= 0", res.DurationCycles)
	}
	if got := fmt.Sprint(res.GoodputKOps()); got != "0" {
		t.Fatalf("GoodputKOps prints %q, want \"0\"", got)
	}
}
