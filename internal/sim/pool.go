package sim

// Pool is a LIFO free list of *T, for the request objects the memory path
// recycles (cache misses and writes, controller reads and writes, CTT
// bounces, held BPQ writes, core ops). A request's steps are method values
// bound once, when Get first allocates it, so a warm pool makes the path
// allocation-free. Each machine is single-threaded, so a plain slice
// suffices.
//
// The zero value is an empty pool.
type Pool[T any] struct {
	free []*T
}

// Get returns the most recently Put object, or a new zero one. fresh
// reports the latter, so the caller binds the object's method values.
func (p *Pool[T]) Get() (v *T, fresh bool) {
	if n := len(p.free); n > 0 {
		v = p.free[n-1]
		p.free = p.free[:n-1]
		return v, false
	}
	return new(T), true
}

// Put returns v to the pool for reuse.
func (p *Pool[T]) Put(v *T) { p.free = append(p.free, v) }
