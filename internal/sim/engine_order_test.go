package sim

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// refSched is a trivially-correct reference scheduler: a flat slice
// scanned for the minimum (when, seq) on every pop. The randomized tests
// below drive it and the real engine with identical programs and require
// identical dispatch orders — pinning the split-queue engine (timing wheel
// + heap) to the semantics of a single priority queue.
type refSched struct {
	now      Cycle
	seq      uint64
	events   []event
	executed uint64               // events dispatched, as Engine.Executed
	advance  func(from, to Cycle) // mirrors Engine.OnAdvance when set
}

func (r *refSched) at(when Cycle, fn func()) {
	if when < r.now {
		panic("ref: scheduling in the past")
	}
	r.seq++
	r.events = append(r.events, event{when: when, seq: r.seq, fn: fn})
}

// advanceTo moves time forward to when, reporting the step.
func (r *refSched) advanceTo(when Cycle) {
	if when > r.now && r.advance != nil {
		r.advance(r.now, when)
	}
	r.now = when
}

// dispatch runs every event due at or before limit.
func (r *refSched) dispatch(limit Cycle) {
	for len(r.events) > 0 {
		best := 0
		for i := 1; i < len(r.events); i++ {
			if r.events[i].before(&r.events[best]) {
				best = i
			}
		}
		ev := r.events[best]
		if ev.when > limit {
			return
		}
		r.events = append(r.events[:best], r.events[best+1:]...)
		r.advanceTo(ev.when)
		r.executed++
		ev.fn()
	}
}

// runUntil is Engine.RunUntil's contract: run every event due at or
// before limit, then move time to limit.
func (r *refSched) runUntil(limit Cycle) {
	r.dispatch(limit)
	r.advanceTo(limit)
}

func (r *refSched) run() { r.dispatch(math.MaxUint64) }

// scheduler abstracts the engine vs the reference for the fuzz driver.
type scheduler interface {
	schedule(when Cycle, id int)
	log() []int
}

// program is what a randomized test varies: how far ahead a fired event
// schedules its children, and how many events a trial may create.
type program struct {
	offset func(rng *rand.Rand) Cycle
	limit  int
}

type engineSched struct {
	e     *Engine
	rng   *rand.Rand
	prog  program
	order []int
	next  *int
}

func (s *engineSched) schedule(when Cycle, id int) {
	s.e.At(when, func() { s.fire(id) })
}

func (s *engineSched) fire(id int) {
	s.order = append(s.order, id)
	spawnChildren(s, s.rng, s.prog, s.e.Now(), s.next)
}

func (s *engineSched) log() []int { return s.order }

type refSchedDriver struct {
	r     *refSched
	rng   *rand.Rand
	prog  program
	order []int
	next  *int

	// heapFirst, when non-nil, maps a cycle to whether an event routed to
	// the engine's heap (scheduled a wheel span or more ahead) is due then;
	// ties counts the events scheduled later for the same future cycle
	// within the span, which the engine's wheel and heap must order by seq.
	heapFirst map[Cycle]bool
	ties      int
}

func (s *refSchedDriver) schedule(when Cycle, id int) {
	s.r.at(when, func() { s.fire(id) })
	if s.heapFirst == nil || when == s.r.now {
		return
	}
	if when-s.r.now >= wheelSlots {
		s.heapFirst[when] = true
	} else if s.heapFirst[when] {
		s.ties++
	}
}

func (s *refSchedDriver) fire(id int) {
	s.order = append(s.order, id)
	spawnChildren(s, s.rng, s.prog, s.r.now, s.next)
}

func (s *refSchedDriver) log() []int { return s.order }

// spawnChildren schedules 0–3 children per fired event at offsets drawn
// by the program, until the program's event budget is spent.
func spawnChildren(s scheduler, rng *rand.Rand, prog program, now Cycle, next *int) {
	if *next > prog.limit {
		return
	}
	n := rng.Intn(4)
	for i := 0; i < n; i++ {
		off := prog.offset(rng)
		*next++
		s.schedule(now+off, *next)
	}
}

// sameCycleProgram biases offsets heavily toward the same cycle, the hot
// After(0) pattern, so wheel slots fill with long same-cycle chains.
var sameCycleProgram = program{
	limit: 4000,
	offset: func(rng *rand.Rand) Cycle {
		switch rng.Intn(8) {
		case 0, 1, 2, 3:
			return 0
		case 4, 5:
			return 1
		default:
			return Cycle(rng.Intn(50))
		}
	},
}

// checkSameOrder fails the test if the two dispatch logs differ.
func checkSameOrder(t *testing.T, trial int, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("trial %d: engine fired %d events, reference %d", trial, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("trial %d: dispatch order diverges at %d: engine %d, reference %d",
				trial, i, got[i], want[i])
		}
	}
}

// TestSameCycleOrderingMatchesReference cross-checks the engine's
// dispatch order against the reference scheduler over randomized
// programs: same seed, same spawning decisions, same (cycle, seq) order
// required. Every offset it draws is below the wheel's span, so it pins
// the wheel's slot lists; TestWheelMatchesReference covers the heap
// boundary. Run under -race in CI like the rest of the suite.
func TestSameCycleOrderingMatchesReference(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		seedRoots := func(s scheduler, rng *rand.Rand, next *int) {
			roots := 5 + rng.Intn(10)
			for i := 0; i < roots; i++ {
				*next++
				s.schedule(Cycle(rng.Intn(20)), *next)
			}
		}

		var nextA int
		es := &engineSched{e: NewEngine(), rng: rand.New(rand.NewSource(int64(trial))), prog: sameCycleProgram}
		es.next = &nextA
		seedRoots(es, es.rng, &nextA)
		es.e.Drain()

		var nextB int
		rs := &refSchedDriver{r: &refSched{}, rng: rand.New(rand.NewSource(int64(trial))), prog: sameCycleProgram}
		rs.next = &nextB
		seedRoots(rs, rs.rng, &nextB)
		rs.r.run()

		checkSameOrder(t, trial, es.log(), rs.log())
	}
}

func TestEngineCloseReleasesParkedProcs(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		e := NewEngine()
		for j := 0; j < 5; j++ {
			e.Go("parked", func(p *Proc) { p.Suspend() })
		}
		// Let every process start and park; the engine is then abandoned
		// mid-run, the scenario that used to leak the goroutines.
		e.RunUntil(10)
		e.Close()
	}
	waitNoLeak(t, before, 2)
}

func TestEngineCloseSemantics(t *testing.T) {
	e := NewEngine()
	var p *Proc
	p = e.Go("s", func(p *Proc) { p.Suspend() })
	e.RunUntil(5)
	e.Close()
	e.Close() // idempotent
	if !p.Finished() {
		t.Fatal("released process not marked finished")
	}
	e.At(100, func() { t.Fatal("event ran on closed engine") }) // no-op
	if e.Step() {
		t.Fatal("Step on closed engine reported work")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Go on closed engine did not panic")
		}
	}()
	e.Go("late", func(p *Proc) {})
}

// TestStepDrivenRunFlushesEvents pins the flush cadence of bare Step()
// loops: executed events must reach SimulatedEvents while the loop runs,
// never more than cycleFlushPeriod cycles behind, even though the caller
// never invokes Drain or RunUntil.
func TestStepDrivenRunFlushesEvents(t *testing.T) {
	e := NewEngine()
	const span, gap = 4 * cycleFlushPeriod, 64
	for c := Cycle(0); c <= span; c += gap {
		e.At(c, func() {})
	}
	before := SimulatedEvents()
	for e.Step() {
		if e.Now() < cycleFlushPeriod {
			continue
		}
		// Every event at or before Now()-cycleFlushPeriod has been published.
		want := uint64((e.Now()-cycleFlushPeriod)/gap + 1)
		if got := SimulatedEvents() - before; got < want {
			t.Fatalf("at cycle %d a Step-driven run had published %d events, want at least %d",
				e.Now(), got, want)
		}
	}
}
