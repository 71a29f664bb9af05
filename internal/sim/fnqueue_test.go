package sim

import "testing"

// TestFnQueueNeverEmptyReusesBuffer keeps a queue non-empty through 100k
// push/pop pairs, the pattern of a streaming copy's MSHR overflow queue,
// which never drains. Once warm the queue allocates nothing, its buffer
// stays a small multiple of its depth, and callbacks come out in the
// order they went in.
func TestFnQueueNeverEmptyReusesBuffer(t *testing.T) {
	const depth, ids = 8, 64
	last := -1
	fns := make([]func(), ids)
	for i := range fns {
		fns[i] = func() { last = i }
	}
	var q FnQueue
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
	if c := cap(q.fns); c > 4*depth {
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
