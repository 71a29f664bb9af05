package sim

// FnQueue is an allocation-friendly FIFO of callbacks, for the waiter
// queues every back-pressured component keeps (RPQ/WPQ slots, MSHR
// overflow, BPQ slots). Pop advances a head index instead of reslicing,
// the backing array is reused once drained, and Push slides the live tail
// to the front when the array is full and at least half spent, so a queue
// that never drains (a streaming copy's MSHR overflow) stops regrowing
// too — the old `q = q[1:]` idiom leaked capacity forward and reallocated
// on every refill.
//
// The zero value is an empty queue.
type FnQueue struct {
	fns  []func()
	head int
}

// Len reports the number of queued callbacks.
func (q *FnQueue) Len() int { return len(q.fns) - q.head }

// Push appends fn.
func (q *FnQueue) Push(fn func()) {
	if len(q.fns) == cap(q.fns) && q.head > 0 && 2*q.head >= len(q.fns) {
		n := copy(q.fns, q.fns[q.head:])
		clear(q.fns[n:])
		q.fns = q.fns[:n]
		q.head = 0
	}
	q.fns = append(q.fns, fn)
}

// Pop removes and returns the oldest callback. It panics on an empty
// queue (callers always gate on Len, mirroring the slice idiom).
func (q *FnQueue) Pop() func() {
	fn := q.fns[q.head]
	q.fns[q.head] = nil // release for GC
	q.head++
	if q.head == len(q.fns) {
		q.fns = q.fns[:0]
		q.head = 0
	}
	return fn
}
