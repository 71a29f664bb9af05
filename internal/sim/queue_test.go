package sim

import (
	"math/rand"
	"reflect"
	"testing"
)

// checkQueue runs random Push/Pop/Waiting/Reset sequences against a plain
// slice: after every step the queue holds the slice's values in its order,
// and every buffer slot outside the live window is zero, so the queue
// keeps nothing alive. mk makes the value for an id and id recovers it.
func checkQueue[T any](t *testing.T, mk func(id int) T, id func(T) int) {
	t.Helper()
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q Queue[T]
		var ref []int
		next := 0
		for step := 0; step < 2000; step++ {
			switch r := rng.Intn(100); {
			case r < 55:
				q.Push(mk(next))
				ref = append(ref, next)
				next++
			case r < 97:
				if len(ref) == 0 {
					continue
				}
				if got := id(q.Pop()); got != ref[0] {
					t.Fatalf("seed %d step %d: Pop = %d, want %d", seed, step, got, ref[0])
				}
				ref = ref[1:]
			default:
				q.Reset()
				ref = ref[:0]
			}
			if q.Len() != len(ref) {
				t.Fatalf("seed %d step %d: Len = %d, want %d", seed, step, q.Len(), len(ref))
			}
			w := q.Waiting()
			if len(w) != len(ref) {
				t.Fatalf("seed %d step %d: Waiting holds %d values, want %d", seed, step, len(w), len(ref))
			}
			for i, v := range w {
				if got := id(v); got != ref[i] {
					t.Fatalf("seed %d step %d: Waiting()[%d] = %d, want %d", seed, step, i, got, ref[i])
				}
			}
			full := q.buf[:cap(q.buf)]
			for i := range full {
				if (i < q.head || i >= len(q.buf)) && !reflect.ValueOf(&full[i]).Elem().IsZero() {
					t.Fatalf("seed %d step %d: vacated slot %d (live window [%d,%d)) not zeroed", seed, step, i, q.head, len(q.buf))
				}
			}
		}
	}
}

func TestQueueMatchesSlice(t *testing.T) {
	t.Run("func", func(t *testing.T) {
		ran := -1
		checkQueue(t,
			func(id int) func() { return func() { ran = id } },
			func(fn func()) int { fn(); return ran })
	})
	t.Run("struct", func(t *testing.T) {
		type event struct {
			at  float64
			seq uint64
			p   *int
		}
		checkQueue(t,
			func(id int) event { return event{at: float64(id), seq: uint64(id), p: new(int)} },
			func(e event) int { return int(e.seq) })
	})
}

// TestQueueNeverEmptyReusesBuffer keeps a queue non-empty through 100k
// push/pop pairs, the pattern of a streaming copy's MSHR overflow queue,
// which never drains. Once warm the queue allocates nothing, its buffer
// stays a small multiple of its depth, and callbacks come out in the
// order they went in.
func TestQueueNeverEmptyReusesBuffer(t *testing.T) {
	const depth, ids = 8, 64
	last := -1
	fns := make([]func(), ids)
	for i := range fns {
		fns[i] = func() { last = i }
	}
	var q Queue[func()]
	pushed, popped := 0, 0
	pair := func() {
		q.Push(fns[pushed%ids])
		pushed++
		q.Pop()()
		if last != popped%ids {
			t.Fatalf("pop %d ran callback %d, want %d", popped, last, popped%ids)
		}
		popped++
	}
	for ; pushed < depth; pushed++ {
		q.Push(fns[pushed%ids])
	}
	for i := 0; i < 1000; i++ {
		pair()
	}
	if got := testing.AllocsPerRun(100_000, pair); got != 0 {
		t.Fatalf("push/pop pair on a never-empty queue: %v allocs, want 0", got)
	}
	if q.Len() != depth {
		t.Fatalf("Len = %d after balanced pairs, want %d", q.Len(), depth)
	}
	if c := cap(q.buf); c > 4*depth {
		t.Fatalf("buffer capacity %d for a queue %d deep, want at most %d", c, depth, 4*depth)
	}
	for q.Len() > 0 {
		q.Pop()()
		if last != popped%ids {
			t.Fatalf("draining pop %d ran callback %d, want %d", popped, last, popped%ids)
		}
		popped++
	}
}

// TestPoolReuse checks that Get hands back the most recently Put object
// first, reports fresh only when the list is empty, and allocates nothing
// once warm.
func TestPoolReuse(t *testing.T) {
	type req struct{ id int }
	var p Pool[req]
	var objs []*req
	for i := 0; i < 4; i++ {
		v, fresh := p.Get()
		if !fresh || v.id != 0 {
			t.Fatalf("Get %d on an empty pool: fresh=%v id=%d, want a fresh zero object", i, fresh, v.id)
		}
		v.id = i + 1
		objs = append(objs, v)
	}
	for _, v := range objs {
		p.Put(v)
	}
	for i := len(objs) - 1; i >= 0; i-- {
		v, fresh := p.Get()
		if fresh || v != objs[i] {
			t.Fatalf("Get after Puts: got %p (fresh=%v), want object %d (%p)", v, fresh, i, objs[i])
		}
	}
	if v, fresh := p.Get(); !fresh || v.id != 0 {
		t.Fatalf("Get on a drained pool: fresh=%v id=%d, want a fresh zero object", fresh, v.id)
	}
	for _, v := range objs {
		p.Put(v)
	}
	cycle := func() {
		a, _ := p.Get()
		b, _ := p.Get()
		p.Put(b)
		p.Put(a)
	}
	if got := testing.AllocsPerRun(10_000, cycle); got != 0 {
		t.Fatalf("Get/Put on a warm pool: %v allocs, want 0", got)
	}
}
