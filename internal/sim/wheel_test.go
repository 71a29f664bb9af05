package sim

import (
	"math/rand"
	"reflect"
	"testing"
)

// wheelProgram draws offsets across three wheel spans, weighted toward
// the boundary: 63 is the wheel's last slot, 64 and 65 the heap's first
// cycles. A child at now+64 (heap) and one scheduled a cycle later at
// now+1+63 (wheel) come due together, so heap and wheel events share a
// cycle and must resolve by seq.
var wheelProgram = program{
	limit: 4000,
	offset: func(rng *rand.Rand) Cycle {
		switch rng.Intn(10) {
		case 0, 1, 2:
			return 0
		case 3:
			return wheelSlots - 1
		case 4:
			return wheelSlots
		case 5:
			return wheelSlots + 1
		default:
			return Cycle(rng.Intn(3*wheelSlots + 1))
		}
	},
}

// TestWheelMatchesReference drives the engine and the reference with the
// same random programs across the wheel/heap boundary, stopping at random
// RunUntil limits and seeding new roots at each stop. Dispatch order and
// every OnAdvance step must match the reference's time steps.
func TestWheelMatchesReference(t *testing.T) {
	ties := 0
	for trial := 0; trial < 12; trial++ {
		var nextA int
		es := &engineSched{e: NewEngine(), rng: rand.New(rand.NewSource(int64(trial))), prog: wheelProgram}
		es.next = &nextA
		var engHops []hop
		es.e.OnAdvance(func(from, to Cycle) { engHops = append(engHops, hop{from, to}) })

		var nextB int
		rs := &refSchedDriver{r: &refSched{}, rng: rand.New(rand.NewSource(int64(trial))), prog: wheelProgram}
		rs.next = &nextB
		rs.heapFirst = map[Cycle]bool{}
		var refHops []hop
		rs.r.advance = func(from, to Cycle) { refHops = append(refHops, hop{from, to}) }

		// Stops: new roots at the current cycle's offsets, then a bounded
		// run that may end between events, mid-span of pending wheel ones.
		stops := rand.New(rand.NewSource(int64(1000 + trial)))
		for stop := 0; stop < 40; stop++ {
			for roots := 1 + stops.Intn(4); roots > 0; roots-- {
				off := wheelProgram.offset(stops)
				nextA++
				es.schedule(es.e.Now()+off, nextA)
				nextB++
				rs.schedule(rs.r.now+off, nextB)
			}
			limit := es.e.Now() + Cycle(stops.Intn(4*wheelSlots))
			es.e.RunUntil(limit)
			rs.r.runUntil(limit)
			if es.e.Now() != rs.r.now || es.e.Pending() != len(rs.r.events) {
				t.Fatalf("trial %d stop %d: engine at cycle %d with %d pending, reference at %d with %d",
					trial, stop, es.e.Now(), es.e.Pending(), rs.r.now, len(rs.r.events))
			}
		}
		es.e.Drain()
		rs.r.run()
		checkSameOrder(t, trial, es.log(), rs.log())
		if !reflect.DeepEqual(engHops, refHops) {
			t.Fatalf("trial %d: OnAdvance steps differ from the reference's time steps", trial)
		}
		if es.e.Pending() != 0 {
			t.Fatalf("trial %d: %d events pending after Drain", trial, es.e.Pending())
		}
		ties += rs.ties
	}
	if ties == 0 {
		t.Fatal("no heap event shared a cycle with a later-scheduled wheel event")
	}
	t.Logf("%d heap/wheel same-cycle ties", ties)
}

// TestWheelSteadyStateAllocations pins the queue at zero allocations once
// warm, for a mix of same-cycle, wheel and heap delays, and pins the
// wheel's node slab to the peak number of pending wheel events: a design
// that gave each slot its own storage would grow every slot to the
// largest burst it saw.
func TestWheelSteadyStateAllocations(t *testing.T) {
	t.Run("Mix", func(t *testing.T) {
		e := NewEngine()
		delays := []Cycle{0, 1, 4, 24, 44, 63, 64, 65, 200, 0, 3}
		k := 0
		var tick func()
		tick = func() {
			k++
			e.After(delays[k%len(delays)], tick)
		}
		for i := 0; i < 8; i++ {
			e.After(Cycle(i), tick)
		}
		for i := 0; i < 10000; i++ {
			e.Step()
		}
		if got := testing.AllocsPerRun(1000, func() { e.Step() }); got != 0 {
			t.Fatalf("warm Step with mixed delays: %v allocs, want 0", got)
		}
	})
	t.Run("Slab", func(t *testing.T) {
		e := NewEngine()
		const burst = 1000
		nop := func() {}
		// Every cycle c for a few wheel spans schedules a same-slot burst
		// due c%8 cycles later, so bursts land in every slot.
		var bursts func()
		bursts = func() {
			c := e.Now()
			for i := 0; i < burst; i++ {
				e.After(c%8, nop)
			}
			if c < 4*wheelSlots {
				e.After(1, bursts)
			}
		}
		e.At(0, bursts)
		peak := 0
		for e.Step() {
			peak = max(peak, e.inWheel)
		}
		if peak < burst {
			t.Fatalf("peak pending %d, want at least one burst (%d)", peak, burst)
		}
		if c := cap(e.nodes); c > 2*peak {
			t.Fatalf("node slab capacity %d for a peak of %d pending wheel events, want at most %d",
				c, peak, 2*peak)
		}
	})
}
