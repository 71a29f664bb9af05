package sim

// Queue is an allocation-friendly FIFO: the waiter queues every
// back-pressured component keeps (RPQ/WPQ/BPQ slots, MSHR overflow), the
// controller's buffered writes and the fleet loop's timer and machine
// queues. Pop advances a head index instead of reslicing, the backing
// array is reused once drained, and Push slides the live tail to the front
// when the array is full and at least half spent, so a queue that never
// drains (a streaming copy's MSHR overflow) stops regrowing too. Every
// vacated slot is zeroed so the queue keeps nothing alive.
//
// The zero value is an empty queue.
type Queue[T any] struct {
	buf  []T
	head int
}

// Len reports the number of queued values.
func (q *Queue[T]) Len() int { return len(q.buf) - q.head }

// Push appends v.
func (q *Queue[T]) Push(v T) {
	if len(q.buf) == cap(q.buf) && q.head > 0 && 2*q.head >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, v)
}

// Pop removes and returns the oldest value. It panics on an empty queue
// (callers gate on Len).
func (q *Queue[T]) Pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return v
}

// Waiting returns the queued values, oldest first. The slice aliases the
// queue's buffer and is valid until the next Push, Pop or Reset.
func (q *Queue[T]) Waiting() []T { return q.buf[q.head:] }

// Reset empties the queue, keeping its buffer.
func (q *Queue[T]) Reset() {
	clear(q.buf)
	q.buf = q.buf[:0]
	q.head = 0
}
