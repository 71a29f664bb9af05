package metrics

import (
	"bytes"
	"runtime"
	"strconv"
	"sync"
)

// Collector gathers the registries of a run: a run environment
// (machine.Env) holds one, and every machine built in it hands over its
// registry. Summing the collected "sim.cycles" counters afterwards gives
// exact per-job cycle attribution — the replacement for sampling the
// process-wide total.
type Collector struct {
	mu   sync.Mutex
	regs []*Registry
}

func NewCollector() *Collector { return &Collector{} }

// Add records a registry. Safe to call from any goroutine.
func (c *Collector) Add(r *Registry) {
	c.mu.Lock()
	c.regs = append(c.regs, r)
	c.mu.Unlock()
}

// Registries returns the collected registries in registration order.
func (c *Collector) Registries() []*Registry {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*Registry(nil), c.regs...)
}

// Snapshot merges a snapshot of every collected registry: same-named
// metrics (cpu0.loads on two machines) sum, which is the per-job
// aggregate the runner reports.
func (c *Collector) Snapshot() *Snapshot {
	s := NewSnapshot()
	c.SnapshotInto(s)
	return s
}

// SnapshotInto is the reuse-friendly Snapshot: dst is cleared and refilled
// with the merged reading, reusing its map storage. Steady-state calls on
// a stable registry set are allocation-free, which makes per-window
// sampling affordable.
func (c *Collector) SnapshotInto(dst *Snapshot) {
	if dst.Values == nil {
		dst.Values = make(map[string]Value)
	}
	clear(dst.Values)
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range c.regs {
		r.addInto(dst)
	}
}

// ambient maps goroutine id → bound collector. It is the one goroutine
// binding left in the repository, and exists only for an observer outside
// this module (the benchmark's job wrapper) that reads the running job's
// registries through AmbientCollector from inside Job.Run: the runner binds
// each job's collector around the job. Nothing in this module looks it up.
// Bind/lookup happen only at job boundaries, so a plain mutexed map is
// fine.
var (
	ambientMu sync.Mutex
	ambient   = map[uint64]*Collector{}
)

// Bind attaches c to the calling goroutine and returns a release func
// that restores whatever was bound before.
func (c *Collector) Bind() (release func()) {
	id := goid()
	ambientMu.Lock()
	prev, had := ambient[id]
	ambient[id] = c
	ambientMu.Unlock()
	return func() {
		ambientMu.Lock()
		if had {
			ambient[id] = prev
		} else {
			delete(ambient, id)
		}
		ambientMu.Unlock()
	}
}

// AmbientCollector returns the collector bound to the calling goroutine,
// or nil if none is.
func AmbientCollector() *Collector {
	id := goid()
	ambientMu.Lock()
	c := ambient[id]
	ambientMu.Unlock()
	return c
}

// goid parses the calling goroutine's id from its stack header
// ("goroutine 123 [running]:"). Called only at bind and lookup points;
// the few-microsecond cost is irrelevant there.
func goid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	s := buf[:n]
	s = bytes.TrimPrefix(s, []byte("goroutine "))
	if i := bytes.IndexByte(s, ' '); i > 0 {
		s = s[:i]
	}
	id, err := strconv.ParseUint(string(s), 10, 64)
	if err != nil {
		panic("metrics: cannot parse goroutine id from stack header")
	}
	return id
}
