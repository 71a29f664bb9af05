package fleet

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
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

// TestTimerQueuesMatchHeap schedules a seeded mix of fixed-delay timers
// (evTimeout and evHedge at the clock plus a constant) and events at
// arbitrary later times, the way the loop does, with the clock following
// the pops. The eventQueue (heap plus two timer FIFOs) must pop exactly
// the sequence a single eventHeap over every event pops, including when a
// pop is limited to events due by a given time.
func TestTimerQueuesMatchHeap(t *testing.T) {
	const timeoutDelay, hedgeDelay = 40, 12.5
	for _, seed := range []int64{1, 2, 3, 42} {
		rnd := rand.New(rand.NewSource(seed))
		var got eventQueue
		var ref eventHeap
		var seq uint64
		now, popped, timers := 0.0, 0, 0
		for i := 0; i < 20_000; i++ {
			if len(ref) > 0 && rnd.Intn(5) < 2 {
				limit := math.Inf(1)
				if rnd.Intn(2) == 0 {
					limit = now + float64(rnd.Intn(48))
				}
				g, ok := got.popDue(limit)
				if want := ref[0].at <= limit; ok != want {
					t.Fatalf("seed %d pop %d: popDue(%v) reported %v, reference head at %v", seed, popped, limit, ok, ref[0].at)
				}
				if !ok {
					continue
				}
				w := ref.pop()
				if g.at != w.at || g.seq != w.seq || g.kind != w.kind {
					t.Fatalf("seed %d pop %d: got (%v, %d, %d), want (%v, %d, %d)",
						seed, popped, g.at, g.seq, g.kind, w.at, w.seq, w.kind)
				}
				now = g.at
				popped++
				continue
			}
			e := event{seq: seq, kind: evKind(rnd.Intn(int(evProbe) + 1))}
			switch e.kind {
			case evTimeout:
				e.at = now + timeoutDelay
				timers++
			case evHedge:
				e.at = now + hedgeDelay
				timers++
			default:
				e.at = now + float64(rnd.Intn(64)) // ties with the timers are common
			}
			seq++
			got.push(e)
			ref.push(e)
		}
		for len(ref) > 0 {
			g, ok := got.popDue(math.Inf(1))
			w := ref.pop()
			if !ok || g.seq != w.seq {
				t.Fatalf("seed %d drain pop %d: got (%v, %d, ok %v), want (%v, %d)", seed, popped, g.at, g.seq, ok, w.at, w.seq)
			}
			popped++
		}
		if _, ok := got.popDue(math.Inf(1)); ok {
			t.Fatalf("seed %d: queue still holds events after the reference drained", seed)
		}
		if timers < 2000 {
			t.Fatalf("seed %d: only %d timer events scheduled", seed, timers)
		}
	}
}

// TestTimerFIFORejectsOutOfOrderPush: a fixed-delay timer scheduled
// before the last one of its kind still waiting would pop out of order,
// so push panics instead.
func TestTimerFIFORejectsOutOfOrderPush(t *testing.T) {
	for _, kind := range []evKind{evTimeout, evHedge} {
		var q eventQueue
		q.push(event{at: 100, seq: 0, kind: kind})
		q.push(event{at: 100, seq: 1, kind: kind}) // equal times keep seq order
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("kind %d: out-of-order timer push did not panic", kind)
				}
			}()
			q.push(event{at: 99, seq: 2, kind: kind})
		}()
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
// request and its heap footprint tied to the requests in flight: events
// move by value through a typed heap and two timer FIFOs, request and
// attempt state come from slabs and go back on their free lists, the
// machine queues and routing buffer are reused, each arrival is drawn as
// the loop reaches it, and the latency array is reserved once. What
// remains is per run (the Result, the storm streams, the latency array's
// 8 bytes per request) or bounded by the requests in flight (slab chunks,
// heap and queue buffers). Boxing events into a container/heap again, or
// allocating each request's state on its own, costs at least one
// allocation per request; a slab that never reuses request state, or a
// second copy of every latency, costs dozens of bytes per request.
func TestSimulateAllocationPin(t *testing.T) {
	const requests = 100_000
	cases := []struct {
		name  string
		fleet func(*testing.T) (*Fleet, *Calibration)
		limit float64 // allocations per request
	}{
		// Measured 0.0005 (plane-off) and 0.0018 (storm) per request.
		{"plane-off", func(t *testing.T) (*Fleet, *Calibration) { return syntheticFleet(t, "least", 4, 100) }, 0.005},
		{"storm", stormFleet, 0.01},
	}
	// Heap bytes per request, both cases; measured 9.3 and 10.6.
	const bytesLimit = 16
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
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			f.Simulate(cal, rate)
			runtime.ReadMemStats(&after)
			bytesPerReq := float64(after.TotalAlloc-before.TotalAlloc) / requests
			t.Logf("%.1f heap bytes per request", bytesPerReq)
			if bytesPerReq > bytesLimit {
				t.Fatalf("Simulate allocates %.1f heap bytes per request, want at most %d", bytesPerReq, bytesLimit)
			}
		})
	}
}

// TestSimulateRecyclesRequestState: once Simulate drains, every request
// state and attempt the slabs ever carved is back on a free list, and the
// slabs carved about as many as were in flight at once, not one per
// request. The storm cases crash machines with attempts in service, and
// time out, retry and hedge attempts. In stormFleet, shedding and open
// breakers keep the queues of crashing machines empty; with both off,
// crashes also flush attempts waiting in machine queues.
func TestSimulateRecyclesRequestState(t *testing.T) {
	const requests = 20_000
	cases := []struct {
		name  string
		fleet func(*testing.T) (*Fleet, *Calibration)
	}{
		{"plane-off", func(t *testing.T) (*Fleet, *Calibration) { return syntheticFleet(t, "least", 4, 100) }},
		{"storm", stormFleet},
		{"storm-queued", func(t *testing.T) (*Fleet, *Calibration) {
			f, cal := stormFleet(t)
			f.Block.Resilience.Shed, f.Block.Resilience.Breaker = nil, nil
			return f, cal
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, cal := tc.fleet(t)
			f.Block.Requests = requests
			s := f.simulate(cal, cal.CapacityReqPerCycle()*0.9)
			res := s.res
			if res.Offered != requests || res.Completed == 0 {
				t.Fatalf("degenerate run: offered %d completed %d", res.Offered, res.Completed)
			}
			if res.ResilienceOn {
				rz := res.Resilience
				if rz.Crashes == 0 || rz.Retries == 0 || rz.Hedges == 0 || rz.HedgeCancels == 0 {
					t.Fatalf("storm run skipped a path: %+v", rz)
				}
				if s.attempts.carved == 0 {
					t.Fatal("no retry or hedge attempt was carved")
				}
			}
			t.Logf("carved %d request states and %d attempts for %d requests",
				s.reqs.carved, s.attempts.carved, requests)
			if n := len(s.reqs.free); n != s.reqs.carved {
				t.Fatalf("%d of %d request states not recycled", s.reqs.carved-n, s.reqs.carved)
			}
			if n := len(s.attempts.free); n != s.attempts.carved {
				t.Fatalf("%d of %d attempts not recycled", s.attempts.carved-n, s.attempts.carved)
			}
			if s.reqs.carved > requests/4 {
				t.Fatalf("carved %d request states for %d requests: state is not reused", s.reqs.carved, requests)
			}
		})
	}
}

// TestHandleRejectsUnreferencedRequest: a request-scoped event whose
// request has no references left names recycled state, so handling it
// panics instead of acting on whatever request reuses the slot.
func TestHandleRejectsUnreferencedRequest(t *testing.T) {
	f, cal := syntheticFleet(t, "least", 2, 100)
	s := f.simulate(cal, cal.CapacityReqPerCycle()*0.5)
	for _, kind := range []evKind{evComplete, evTimeout, evHedge, evRetry} {
		rs := s.reqs.get()
		rs.first.rs = rs     // a live-looking request, but refs is 0
		var recycled attempt // a recycled attempt: zeroed, no request
		for _, a := range []*attempt{&rs.first, &recycled} {
			func() {
				defer func() {
					r := recover()
					if msg, _ := r.(string); !strings.Contains(msg, "no references left") {
						t.Fatalf("kind %d: handle recovered %v, want a no-references panic", kind, r)
					}
				}()
				s.handle(event{at: 1, kind: kind, a: a})
			}()
		}
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
