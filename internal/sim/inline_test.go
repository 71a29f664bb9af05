//go:build go1.23

package sim

import (
	"errors"
	"fmt"
	"iter"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// waiter is what a mix's process body calls: a *Proc on the engine, a
// refProc on the reference.
type waiter interface {
	Now() Cycle
	Wait(delay Cycle)
	WaitUntil(when Cycle)
	Suspend()
}

// refProc is a process of the reference scheduler: a coroutine that parks
// on every Wait, so each of its wakeups is an event in the reference's
// single queue.
type refProc struct {
	r        *refSched
	next     func() (struct{}, bool)
	stop     func()
	yield    func(struct{}) bool
	resumeFn func()
}

func goRefProc(r *refSched, body func(w waiter)) *refProc {
	p := &refProc{r: r}
	p.resumeFn = func() { p.next() }
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		body(p)
	})
	r.at(r.now, p.resumeFn)
	return p
}

func (p *refProc) Now() Cycle { return p.r.now }

func (p *refProc) Wait(delay Cycle) {
	p.r.at(p.r.now+delay, p.resumeFn)
	p.yield(struct{}{})
}

func (p *refProc) WaitUntil(when Cycle) {
	if when > p.r.now {
		p.r.at(when, p.resumeFn)
		p.yield(struct{}{})
	}
}

func (p *refProc) Suspend() { p.yield(struct{}{}) }

func (p *refProc) Resume() { p.r.at(p.r.now, p.resumeFn) }

// stamp is one trace entry: a plain event's id (positive) or a process
// step's (negative), with the cycle it ran at.
type stamp struct {
	cycle Cycle
	id    int
}

// mixEvents bounds the plain events (roots, ties and children) a mix
// schedules; Suspend's resume events come on top.
const mixEvents = 600

// mix is one seeded program of processes and plain events. It is run once
// on the engine and once on the reference, each with its own generator
// seeded alike, so the two draw the same choices for as long as they run
// the same steps in the same order.
type mix struct {
	rng    *rand.Rand
	now    func() Cycle
	at     func(when Cycle, fn func())
	resume []func() // Resume of each process
	trace  []stamp
	nextID int
	limit  Cycle // the running RunUntil's limit, MaxUint64 otherwise
	ahead  int   // process steps that saw Now() past limit
}

func (m *mix) log(id int) { m.trace = append(m.trace, stamp{m.now(), id}) }

// delay draws a wait or an event offset in [0, 70], weighted toward the
// same cycle, the next one and the wheel's last slots and the heap's
// first cycles.
func (m *mix) delay() Cycle {
	switch m.rng.Intn(8) {
	case 0:
		return 0
	case 1, 2:
		return 1
	case 3:
		return Cycle(2 + m.rng.Intn(6))
	case 4:
		return Cycle(wheelSlots - 2 + m.rng.Intn(5))
	default:
		return Cycle(m.rng.Intn(71))
	}
}

// plain schedules a plain event at when, while the budget lasts. It logs
// its id and may schedule a child.
func (m *mix) plain(when Cycle) {
	if m.nextID >= mixEvents {
		return
	}
	m.nextID++
	id := m.nextID
	m.at(when, func() {
		m.log(id)
		if m.rng.Intn(3) == 0 {
			m.plain(m.now() + m.delay())
		}
	})
}

// body is process idx: steps rounds of Wait, WaitUntil (some in the past,
// so no-ops) and Suspend, with plain events scheduled around the wakeups,
// many exactly at the wakeup's cycle and ahead of it in seq.
func (m *mix) body(w waiter, idx, steps int) {
	for s := 0; s < steps; s++ {
		m.log(-(idx*10_000 + s + 1))
		now := w.Now()
		if now > m.limit {
			m.ahead++
		}
		switch m.rng.Intn(10) {
		case 0, 1, 2, 3:
			d := m.delay()
			if m.rng.Intn(3) == 0 {
				m.plain(now + d) // due with the wakeup, scheduled first: runs first
			}
			w.Wait(d)
		case 4, 5:
			for k := m.rng.Intn(3); k >= 0; k-- {
				m.plain(now + m.delay())
			}
			w.Wait(m.delay())
		case 6, 7:
			when := now + m.delay()
			if m.rng.Intn(4) == 0 {
				when = now - min(now, Cycle(m.rng.Intn(3)))
			}
			if when >= now && m.rng.Intn(3) == 0 {
				m.plain(when)
			}
			w.WaitUntil(when)
		case 8:
			m.nextID++
			id := m.nextID
			m.at(now+m.delay(), func() {
				m.log(id)
				m.resume[idx]()
			})
			w.Suspend()
		case 9:
			w.Wait(0)
		}
	}
}

// mixPair is one mix built on the engine and on the reference.
type mixPair struct {
	e          *Engine
	em         *mix
	engHops    []hop
	inlineHops int // OnAdvance calls made from inside a process: inline wakeups

	r       *refSched
	rm      *mix
	refHops []hop
	refProc []*refProc
}

func newMixPair(seed int64) *mixPair {
	mp := &mixPair{e: NewEngine(), r: &refSched{}}
	mp.em = &mix{rng: rand.New(rand.NewSource(seed)), now: mp.e.Now, at: mp.e.At, limit: math.MaxUint64}
	mp.rm = &mix{rng: rand.New(rand.NewSource(seed)), now: func() Cycle { return mp.r.now }, at: mp.r.at,
		limit: math.MaxUint64}
	mp.e.OnAdvance(func(from, to Cycle) {
		mp.engHops = append(mp.engHops, hop{from, to})
		if mp.e.running != nil {
			mp.inlineHops++
		}
	})
	mp.r.advance = func(from, to Cycle) { mp.refHops = append(mp.refHops, hop{from, to}) }

	shape := rand.New(rand.NewSource(^seed))
	for i, n := 0, 1+shape.Intn(4); i < n; i++ {
		steps := 20 + shape.Intn(60)
		p := mp.e.Go(fmt.Sprint("p", i), func(p *Proc) { mp.em.body(p, i, steps) })
		mp.em.resume = append(mp.em.resume, p.Resume)
		rp := goRefProc(mp.r, func(w waiter) { mp.rm.body(w, i, steps) })
		mp.rm.resume = append(mp.rm.resume, rp.Resume)
		mp.refProc = append(mp.refProc, rp)
	}
	for k := shape.Intn(6); k > 0; k-- {
		off := Cycle(shape.Intn(100))
		mp.em.plain(off)
		mp.rm.plain(off)
	}
	return mp
}

// setLimit records the limit of the RunUntil about to run on both sides.
func (mp *mixPair) setLimit(limit Cycle) { mp.em.limit, mp.rm.limit = limit, limit }

// close releases both sides' processes.
func (mp *mixPair) close() {
	mp.e.Close()
	for _, p := range mp.refProc {
		p.stop()
	}
}

// check requires the engine to match the reference so far: the same
// (cycle, id) trace, Executed, Now and OnAdvance steps, and no process
// step past a RunUntil limit.
func (mp *mixPair) check(t *testing.T, where string) {
	t.Helper()
	got, want := mp.em.trace, mp.rm.trace
	for i := 0; i < min(len(got), len(want)); i++ {
		if got[i] != want[i] {
			t.Fatalf("%s: trace diverges at entry %d: engine %+v, reference %+v", where, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: engine traced %d entries, reference %d", where, len(got), len(want))
	}
	if mp.e.Executed() != mp.r.executed || mp.e.Now() != mp.r.now {
		t.Fatalf("%s: engine executed %d at cycle %d, reference %d at cycle %d",
			where, mp.e.Executed(), mp.e.Now(), mp.r.executed, mp.r.now)
	}
	if !reflect.DeepEqual(mp.engHops, mp.refHops) {
		t.Fatalf("%s: OnAdvance steps differ from the reference's time steps", where)
	}
	if mp.em.ahead != 0 {
		t.Fatalf("%s: %d process steps saw Now() past the RunUntil limit", where, mp.em.ahead)
	}
}

// ties counts trace entries where a plain event runs just before a process
// step of the same cycle: an event due with a wakeup and scheduled before
// it.
func ties(tr []stamp) int {
	n := 0
	for i := 1; i < len(tr); i++ {
		if tr[i].cycle == tr[i-1].cycle && tr[i-1].id > 0 && tr[i].id < 0 {
			n++
		}
	}
	return n
}

// TestInlineWaitMatchesReference replays seeded mixes of processes
// (Wait(0..70), WaitUntil, Suspend/Resume pairs) and plain events, many
// due exactly at a waiter's wakeup, on the engine and on a single-queue
// reference whose processes always park. Driven by Drain, by RunUntil
// stops, by bare Step and into a cycle budget, the engine must match the
// reference's trace, Executed, Now and OnAdvance steps: a wakeup that
// continues inline changes nothing but the cost.
func TestInlineWaitMatchesReference(t *testing.T) {
	const trials = 24
	t.Run("Drain", func(t *testing.T) {
		inline, tied := 0, 0
		for seed := int64(1); seed <= trials; seed++ {
			mp := newMixPair(seed)
			mp.e.Drain()
			mp.r.run()
			mp.check(t, fmt.Sprintf("seed %d", seed))
			inline += mp.inlineHops
			tied += ties(mp.rm.trace)
			mp.close()
		}
		if inline == 0 || tied == 0 {
			t.Fatalf("mixes made %d inline time advances and %d event/wakeup ties, want both", inline, tied)
		}
		t.Logf("%d inline time advances, %d event/wakeup ties", inline, tied)
	})
	t.Run("RunUntil", func(t *testing.T) {
		inline := 0
		for seed := int64(1); seed <= trials; seed++ {
			mp := newMixPair(seed)
			stops := rand.New(rand.NewSource(seed + 1000))
			for stop := 0; mp.e.Pending() > 0; stop++ {
				if stop > 10_000 {
					t.Fatalf("seed %d: mix still running after %d stops", seed, stop)
				}
				limit := mp.e.Now() + Cycle(stops.Intn(150))
				mp.setLimit(limit)
				mp.e.RunUntil(limit)
				mp.r.runUntil(limit)
				mp.check(t, fmt.Sprintf("seed %d stop %d (limit %d)", seed, stop, limit))
			}
			inline += mp.inlineHops
			mp.close()
		}
		if inline == 0 {
			t.Fatal("no wakeup continued inline under RunUntil")
		}
	})
	t.Run("Step", func(t *testing.T) {
		for seed := int64(1); seed <= trials; seed++ {
			mp := newMixPair(seed)
			for {
				before := mp.e.Executed()
				if !mp.e.Step() {
					break
				}
				if n := mp.e.Executed() - before; n != 1 {
					t.Fatalf("seed %d: one bare Step ran %d events at cycle %d", seed, n, mp.e.Now())
				}
			}
			mp.r.run()
			mp.check(t, fmt.Sprintf("seed %d", seed))
			if mp.inlineHops != 0 {
				t.Fatalf("seed %d: %d time advances inside a process under bare Step", seed, mp.inlineHops)
			}
			mp.close()
		}
	})
	t.Run("CycleBudget", func(t *testing.T) {
		tripped := 0
		for seed := int64(1); seed <= trials; seed++ {
			mp := newMixPair(seed)
			budget := Cycle(50 + rand.New(rand.NewSource(seed+2000)).Intn(400))
			mp.e.SetCycleLimit(budget)
			v := func() (v any) {
				defer func() { v = recover() }()
				mp.e.Drain()
				return nil
			}()
			mp.r.dispatch(budget)
			where := fmt.Sprintf("seed %d budget %d", seed, budget)
			if len(mp.r.events) == 0 {
				if v != nil {
					t.Fatalf("%s: the run fits the budget but Drain panicked: %v", where, v)
				}
				mp.check(t, where)
				mp.close()
				continue
			}
			tripped++
			next := Cycle(math.MaxUint64)
			for _, ev := range mp.r.events {
				next = min(next, ev.when)
			}
			var cle *CycleLimitError
			if err, ok := v.(error); !ok || !errors.As(err, &cle) {
				t.Fatalf("%s: Drain panicked with %T (%v), want *CycleLimitError", where, v, v)
			}
			if _, wrapped := v.(*ProcPanic); wrapped || cle.Limit != budget || cle.Now != next {
				t.Fatalf("%s: recovered %T (%v), want *CycleLimitError{Limit: %d, Now: %d} unwrapped",
					where, v, v, budget, next)
			}
			// The engine moved to the cycle it refused; the reference, which
			// has not dispatched it, is compared as it stands at the budget.
			mp.r.now = next
			mp.check(t, where)
			mp.close()
		}
		if tripped == 0 {
			t.Fatal("no mix reached its cycle budget")
		}
	})
}

// BenchmarkWaitInline times a Wait whose wakeup is the next event: a lone
// process under Drain, where every Wait(1) continues inline. The
// proc/wait-wakeup probe of the bench package times the parked round
// trip.
func BenchmarkWaitInline(b *testing.B) {
	b.ReportAllocs()
	n := b.N
	e := NewEngine()
	defer e.Close()
	b.ResetTimer()
	e.Go("w", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Wait(1)
		}
	})
	e.Drain()
}
