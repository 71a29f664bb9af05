package fleet

import (
	"fmt"
	"math"
	"strconv"

	"mcsquare/internal/machine"
	"mcsquare/internal/metrics"
	"mcsquare/internal/stats"
)

// Result is one simulated operating point of the fleet.
type Result struct {
	Mechanism string
	Machines  int
	Clock     stats.Clock

	OfferedReqPerCycle float64
	CapacityKOps       float64

	Offered   uint64 // requests generated
	Completed uint64 // requests served to completion
	Dropped   uint64 // requests rejected by a full queue (after any retries)

	// Latencies is end-to-end request latency in cycles (queueing + service),
	// in completion order. PerWorkload counts the completions by workload
	// name (mix entries naming the same workload share one count).
	Latencies   *stats.Histogram
	PerWorkload map[string]uint64

	// MeanQueueDepth is the fleet-wide queued-request count averaged over
	// arrival instants; MaxQueueDepth is its per-arrival maximum. The depth
	// deliberately counts only waiting requests, not the ones occupying
	// servers: it is a queueing-delay signal (how much of the fleet's
	// latency is waiting, not service), and sampling at arrival instants
	// weights it exactly the way arriving requests experience it (PASTA).
	// Requests in service are visible separately through utilization
	// (busy servers) and the latency histograms.
	MeanQueueDepth float64
	MaxQueueDepth  int

	// Served counts completions per machine (stable machine index).
	Served []uint64

	// DurationCycles spans the first arrival to the last completion; 0
	// when nothing completed.
	DurationCycles float64

	// Timeline is the run's windowed telemetry (goodput, queue depth, p99,
	// time-to-first-SLO-violation per window). Nil unless the spec's
	// Timeline block enables it.
	Timeline *Timeline

	// ResilienceOn records whether a mitigation was enabled or a fleet
	// fault storm was active. When false the counters below stay zero.
	ResilienceOn bool
	// Resilience is the availability accounting; the conservation
	// invariant holds: Offered == Completed + TimedOut + Shed + Dropped +
	// Failed.
	Resilience ResilienceStats
	// DowntimeCycles is each machine's total crashed time.
	DowntimeCycles []float64
}

// OfferedKOps is the offered load in thousands of requests per second.
func (r *Result) OfferedKOps() float64 {
	return r.OfferedReqPerCycle * r.Clock.CyclesPerSecond() / 1e3
}

// GoodputKOps is the completed-request throughput in thousands of requests
// per second over the run's duration.
func (r *Result) GoodputKOps() float64 {
	if r.DurationCycles == 0 {
		return 0
	}
	return float64(r.Completed) / r.DurationCycles * r.Clock.CyclesPerSecond() / 1e3
}

// PercentileMs reads the end-to-end latency percentile in milliseconds at
// the fleet's clock.
func (r *Result) PercentileMs(p float64) float64 {
	return r.Latencies.Percentile(p) / (float64(r.Clock.CyclesPerSecond()) / 1e3)
}

// Unavailability is the fraction of offered requests that did not
// complete, whatever the reason (dropped, timed out, shed, failed).
func (r *Result) Unavailability() float64 {
	if r.Offered == 0 {
		return 0
	}
	return float64(r.Offered-r.Completed) / float64(r.Offered)
}

// request is one generated arrival. Its random draws (gap, workload,
// service sample index, hash key) happen as it arrives, from a stream
// nothing else draws from, so the stream is identical no matter which
// machines end up serving it.
type request struct {
	arrive  float64
	wl      int    // mix entry index
	sample  int    // index into the serving machine's sample vector
	hashKey uint64 // consistent-hash routing key
}

// reqState tracks one request across its attempts. With every
// mitigation off a request has exactly one attempt that either completes
// or is dropped at the door, and everything here stays trivial.
//
// A request state lives while the request is in flight. refs counts what
// still names it: scheduled request-scoped events (evComplete, evTimeout,
// evHedge, evRetry) whose attempt belongs to it, machine-queue slots
// holding one of its attempts, and the arrival that is placing it. An
// attempt in service needs no count of its own, because its evComplete
// is still pending. Once the request is resolved and refs falls to 0,
// unref hands the state and its retry and hedge attempts back to the
// slabs' free lists.
type reqState struct {
	req          request
	attempts     int // primary + retry attempts issued
	hedges       int // hedge attempts issued
	inflight     int // live (queued or serving) attempts
	refs         int // pending events, queue slots and the placing arrival
	retryPending bool
	resolved     bool
	lastCause    outcome // why the latest attempt failed
	// first is the primary attempt, embedded so the common single-attempt
	// request needs no second object. Retry and hedge attempts chain off
	// it through attempt.next in issue order; last is the chain's tail.
	first attempt
	last  *attempt
}

// attempt is one placement of a request onto a machine. done marks it
// finished or cancelled (timed out, lost a hedge race, crash-flushed);
// a cancelled attempt's scheduled completion still frees its server.
type attempt struct {
	rs    *reqState
	next  *attempt // the request's next attempt in issue order
	m     int
	epoch uint64 // the machine epoch the attempt started in
	hedge bool
	done  bool
}

// slab hands out pointers into chunked backing arrays, so per-request
// state costs one allocation per slabChunk objects instead of one each.
// put zeroes an object that is done with and keeps it on a free list,
// which get drains before carving the current chunk, so the slab grows
// with the objects live at once, not with every object ever handed out.
type slab[T any] struct {
	chunk  []T  // the current chunk's uncarved rest
	free   []*T // zeroed objects handed back by put
	carved int  // objects ever carved from chunks
}

const slabChunk = 1024

func (s *slab[T]) get() *T {
	if n := len(s.free) - 1; n >= 0 {
		p := s.free[n]
		s.free = s.free[:n]
		return p
	}
	if len(s.chunk) == 0 {
		s.chunk = make([]T, slabChunk)
	}
	p := &s.chunk[0]
	s.chunk = s.chunk[1:]
	s.carved++
	return p
}

func (s *slab[T]) put(p *T) {
	var zero T
	*p = zero
	s.free = append(s.free, p)
}

// evKind orders the event loop's work. With every mitigation off and an
// inert storm only evComplete is ever scheduled.
type evKind uint8

const (
	evComplete evKind = iota
	evTimeout
	evHedge
	evRetry
	evCrash
	evRecover
	evBrownStart
	evBrownEnd
	evProbe
)

// requestScoped reports whether events of kind k carry an attempt of a
// request, and so hold a reference to its reqState.
func (k evKind) requestScoped() bool { return k <= evRetry }

// event is one scheduled occurrence on the fleet timebase. Request-scoped
// events (evHedge, evRetry) carry the request's primary attempt, so one
// pointer serves every kind and the event stays four words.
type event struct {
	at   float64
	seq  uint64   // tie-break: scheduling order
	a    *attempt // evComplete / evTimeout; &rs.first for evHedge / evRetry
	m    int32    // machine, for machine-scoped events
	kind evKind
}

// before orders events by time, then by scheduling order.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventHeap is a binary min-heap of events in (at, seq) order. Events move
// by value through a hole on both sift-up and sift-down, so scheduling
// boxes nothing; seq is unique, so the pop order is fully determined.
type eventHeap []event

// push inserts ev (sift-up with a hole).
func (h *eventHeap) push(ev event) {
	q := append(*h, event{})
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if q[p].before(&ev) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = ev
	*h = q
}

// pop removes and returns the minimum (sift-down with a hole), zeroing
// the vacated slot so it pins no request state.
func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{}
	q = q[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && q[r].before(&q[c]) {
				c = r
			}
			if last.before(&q[c]) {
				break
			}
			q[i] = q[c]
			i = c
		}
		q[i] = last
	}
	*h = q
	return top
}

// fifo is a queue that reuses its buffer. Dequeue advances a head index
// and enqueue compacts the live tail to the front once at least half the
// buffer is spent, so the backing array is reused instead of regrown.
type fifo[T any] struct {
	buf  []T
	head int
}

func (q *fifo[T]) len() int { return len(q.buf) - q.head }

func (q *fifo[T]) push(v T) {
	if len(q.buf) == cap(q.buf) && q.head > 0 && 2*q.head >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, v)
}

func (q *fifo[T]) pop() T {
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

// waiting returns the queued values in FIFO order.
func (q *fifo[T]) waiting() []T { return q.buf[q.head:] }

// reset empties the queue, keeping its buffer.
func (q *fifo[T]) reset() {
	clear(q.buf)
	q.buf = q.buf[:0]
	q.head = 0
}

// eventQueue is the loop's pending events. evTimeout fires at dispatch
// time plus the run's timeout and evHedge at arrival or hedge time plus
// the run's hedge delay; both delays are fixed for a run and the loop's
// clock never goes back, so each kind is scheduled in (at, seq) order and
// waits in a FIFO of its own. Everything else (completions, retries after
// their backoff, storm and probe events) goes on the heap. Popping takes
// the least (at, seq) among the heap root and the two FIFO heads, the
// order one heap over every event would give.
type eventQueue struct {
	heap     eventHeap
	timeouts fifo[event]
	hedges   fifo[event]
}

// push schedules e, which already carries its seq. It panics if e would
// leave a timer FIFO out of order.
func (q *eventQueue) push(e event) {
	switch e.kind {
	case evTimeout:
		pushTimer(&q.timeouts, e)
	case evHedge:
		pushTimer(&q.hedges, e)
	default:
		q.heap.push(e)
	}
}

func pushTimer(t *fifo[event], e event) {
	if w := t.waiting(); len(w) > 0 && e.before(&w[len(w)-1]) {
		panic(fmt.Sprintf("fleet: kind-%d timer at %v scheduled behind one at %v", e.kind, e.at, w[len(w)-1].at))
	}
	t.push(e)
}

// popDue removes and returns the earliest pending event if it falls at or
// before limit.
func (q *eventQueue) popDue(limit float64) (event, bool) {
	var first *event
	var from *fifo[event] // nil: the heap
	if len(q.heap) > 0 {
		first = &q.heap[0]
	}
	if t := &q.timeouts; t.len() > 0 && (first == nil || t.buf[t.head].before(first)) {
		first, from = &t.buf[t.head], t
	}
	if t := &q.hedges; t.len() > 0 && (first == nil || t.buf[t.head].before(first)) {
		first, from = &t.buf[t.head], t
	}
	if first == nil || first.at > limit {
		return event{}, false
	}
	if from != nil {
		return from.pop(), true
	}
	return q.heap.pop(), true
}

// machineState is one machine's runtime queueing and health state.
type machineState struct {
	free     int // idle servers
	busy     int
	queue    fifo[*attempt] // cancelled attempts are skipped at dequeue
	inflight []*attempt     // attempts currently occupying servers

	// Health state; only storms and mitigations act on it.
	up      bool
	browned bool
	epoch   uint64 // bumped on crash to invalidate stale completions
	downAt  float64

	member     bool // health-checked LB membership
	okProbes   int
	failProbes int
	probeCount uint64

	consecFails int
	brState     breakerState
	brOpenUntil float64
	brHalfOpen  int // trial requests admitted while half-open
}

func (m *machineState) outstanding() int { return m.busy + m.queue.len() }

// fleetSim is the event loop's working state, bundled so the handlers can
// live as methods instead of a wall of closures.
type fleetSim struct {
	f   *Fleet
	cal *Calibration
	res *Result
	resPlane

	machines     []machineState
	pending      eventQueue
	seq          uint64
	rrNext       int
	lastDone     float64
	unresolved   int // requests arrived but not yet resolved
	arrivalsLeft int

	reqs     slab[reqState]
	attempts slab[attempt]  // retry and hedge attempts
	members  []int          // route's candidate buffer, reused per dispatch
	perWL    []uint64       // completions by mix entry, summed into res.PerWorkload
	noWindow TimelineWindow // absorbs window counts when the timeline is off
}

// Simulate drives the calibrated fleet with an open-loop arrival stream at
// the given offered rate (requests per cycle) and returns the operating
// point. The whole pass is a single-threaded seeded event loop:
// byte-identical output for identical inputs. The fleet block's
// Resilience mitigations and the fleet storm of the run environment's
// fault schedule run inside the same loop; one that is off schedules no
// event and draws no randomness.
func (f *Fleet) Simulate(cal *Calibration, rate float64) *Result {
	return f.simulate(cal, rate).res
}

// simulate runs Simulate's loop and returns its drained working state.
func (f *Fleet) simulate(cal *Calibration, rate float64) *fleetSim {
	res := &Result{
		Mechanism:          cal.Mechanism,
		Machines:           len(f.Specs),
		Clock:              f.Clock,
		OfferedReqPerCycle: rate,
		CapacityKOps:       f.CapacityKOps(cal),
		Latencies:          &stats.Histogram{},
		PerWorkload:        map[string]uint64{},
		Served:             make([]uint64, len(f.Specs)),
		DowntimeCycles:     make([]float64, len(f.Specs)),
	}
	s := &fleetSim{f: f, cal: cal, res: res, resPlane: f.newResPlane(cal), perWL: make([]uint64, len(f.Block.Mix))}
	for _, mx := range f.Block.Mix {
		res.PerWorkload[mx.Workload] = 0
	}
	n := f.Block.Requests
	if f.Quick {
		n = (n + 3) / 4
	}
	res.ResilienceOn = s.spec.EnabledAny() || s.storm.FleetActive()
	res.Timeline = f.newTimeline(res) // nil unless the spec enables it
	// The explicit n guard keeps the mean-depth division safe even if the
	// quick-scale shrink above ever changes: past this point n > 0.
	if n <= 0 || rate <= 0 {
		return s
	}
	res.Latencies.Grow(n)

	rnd := f.rng()
	cum := make([]float64, len(cal.weights))
	sum := 0.0
	for i, w := range cal.weights {
		sum += w
		cum[i] = sum
	}
	res.Offered = uint64(n)

	s.machines = make([]machineState, len(cal.machines))
	for i := range s.machines {
		s.machines[i].free = cal.machines[i].servers
		s.machines[i].up = true
		s.machines[i].member = true
	}
	s.arrivalsLeft = n
	s.scheduleStorm()

	depthSum, now, first := 0.0, 0.0, 0.0
	for i := 0; i < n; i++ {
		// Each arrival makes its random draws here, in order; the storm
		// draws from its own per-machine streams, so this sequence is
		// identical whatever runs alongside it.
		switch f.Block.Arrival.Process {
		case "trace":
			gaps := f.Block.Arrival.GapsCycles
			now += gaps[i%len(gaps)]
		default: // poisson: exponential gaps at the offered rate
			now += rnd.ExpFloat64() / rate
		}
		u := rnd.Float64() * sum
		wl := 0
		for u > cum[wl] && wl < len(cum)-1 {
			wl++
		}
		r := request{arrive: now, wl: wl, sample: rnd.Intn(1 << 30), hashKey: rnd.Uint64()}
		if i == 0 {
			first = now
		}
		// Events scheduled before (or exactly at) this arrival land first,
		// so balancer state reflects them — and the order is still
		// deterministic because the queue breaks time ties by schedule order.
		s.drain(r.arrive)
		depth := 0
		for m := range s.machines {
			depth += s.machines[m].queue.len()
		}
		depthSum += float64(depth)
		if depth > res.MaxQueueDepth {
			res.MaxQueueDepth = depth
		}
		s.arrive(r)
		s.arrivalsLeft--
		res.Timeline.arrival(r.arrive, depth)
	}
	s.drain(math.Inf(1))
	// Defensive: the loop above drains every live attempt, so nothing
	// should remain unresolved; if it ever does, account it as failed so
	// the conservation invariant (which tests assert) still closes.
	s.sweepUnresolved()
	res.MeanQueueDepth = depthSum / float64(n)
	for i, mx := range f.Block.Mix {
		res.PerWorkload[mx.Workload] += s.perWL[i]
	}
	if res.Completed > 0 {
		// With nothing completed lastDone never moved off 0; the span
		// stays 0 instead of going negative.
		res.DurationCycles = s.lastDone - first
	}
	res.Timeline.finalize()
	res.publishMetrics(f.Env)
	return s
}

// drain handles every pending event due at or before limit, in order.
func (s *fleetSim) drain(limit float64) {
	for {
		e, ok := s.pending.popDue(limit)
		if !ok {
			return
		}
		s.handle(e)
	}
}

// arrive admits, sheds, or places one arriving request. It holds a
// reference to the request state while it does.
func (s *fleetSim) arrive(r request) {
	rs := s.reqs.get()
	rs.req = r
	rs.refs = 1
	s.unresolved++
	if s.shouldShed(r.wl) {
		s.resolve(rs, outShed, r.arrive)
	} else {
		rs.attempts = 1
		s.dispatch(s.newAttempt(rs, false), r.arrive)
		if s.hedgeDelay > 0 && !rs.resolved {
			s.push(event{at: r.arrive + s.hedgeDelay, kind: evHedge, a: &rs.first})
		}
	}
	s.unref(rs)
}

// resolve settles rs for good with outcome o at fleet time at. Every
// caller holds a reference to rs, so its state is recycled by unref.
func (s *fleetSim) resolve(rs *reqState, o outcome, at float64) {
	rs.resolved = true
	s.unresolved--
	s.count(o, rs, at)
}

// unref drops one reference to rs. A resolved request that nothing names
// any more goes back on the free list with its retry and hedge attempts;
// every attempt is done by then, and no event or queue slot holds one.
func (s *fleetSim) unref(rs *reqState) {
	rs.refs--
	if rs.refs > 0 || !rs.resolved {
		return
	}
	for a := rs.first.next; a != nil; {
		next := a.next
		s.attempts.put(a)
		a = next
	}
	s.reqs.put(rs)
}

// count records one outcome of request rs at fleet time at, both in the
// Result totals and in the Timeline window covering at. Nothing else
// tallies outcomes, so the windows always sum to the totals.
func (s *fleetSim) count(o outcome, rs *reqState, at float64) {
	r, tl := s.res, s.res.Timeline
	w := &s.noWindow
	if tl != nil {
		w = tl.win(at)
	}
	switch o {
	case outCompleted:
		lat := at - rs.req.arrive
		r.Completed++
		w.Completed++
		r.Latencies.Add(lat)
		s.perWL[rs.req.wl]++
		if tl != nil {
			w.lat.Add(lat)
		}
	case outDropped:
		r.Dropped++
		w.Dropped++
	case outTimedOut:
		r.Resilience.TimedOut++
		w.TimedOut++
	case outShed:
		r.Resilience.Shed++
		w.Shed++
	case outFailed:
		r.Resilience.Failed++
		w.Failed++
	case outRetry:
		r.Resilience.Retries++
		w.Retries++
	case outHedge:
		r.Resilience.Hedges++
		w.Hedges++
	}
}

// handle routes one popped event to its handler, then drops the
// reference a request-scoped event holds.
func (s *fleetSim) handle(e event) {
	var rs *reqState
	if e.kind.requestScoped() {
		if rs = e.a.rs; rs == nil || rs.refs <= 0 {
			panic(fmt.Sprintf("fleet: kind-%d event at %v for a request with no references left", e.kind, e.at))
		}
	}
	switch e.kind {
	case evComplete:
		s.complete(e)
	case evTimeout:
		s.timeout(e)
	case evHedge:
		s.hedge(e)
	case evRetry:
		s.retry(e)
	case evCrash:
		s.crash(e)
	case evRecover:
		s.recover(e)
	case evBrownStart:
		s.brownStart(e)
	case evBrownEnd:
		s.brownEnd(e)
	case evProbe:
		s.probe(e)
	}
	if rs != nil {
		s.unref(rs)
	}
}

// push schedules an event, stamping the deterministic tie-break sequence;
// a request-scoped event takes a reference to its request.
func (s *fleetSim) push(e event) {
	e.seq = s.seq
	s.seq++
	if e.kind.requestScoped() {
		e.a.rs.refs++
	}
	s.pending.push(e)
}

// newAttempt issues one more live attempt for rs: the embedded primary
// first, then slab-allocated retries and hedges chained in issue order.
func (s *fleetSim) newAttempt(rs *reqState, hedge bool) *attempt {
	a := &rs.first
	if rs.last != nil {
		a = s.attempts.get()
		rs.last.next = a
	}
	rs.last = a
	a.rs, a.hedge = rs, hedge
	rs.inflight++
	return a
}

// moreWork reports whether anything can still need servicing; recurring
// events (storm transitions, probes) reschedule themselves only while it
// holds, so the heap always drains.
func (s *fleetSim) moreWork() bool {
	return s.arrivalsLeft > 0 || s.unresolved > 0
}

// service reads the calibrated service time for a request on machine m.
func (s *fleetSim) service(m int, r request) float64 {
	v := s.cal.machines[m].samples[r.wl]
	return v[r.sample%len(v)]
}

// scheduleStorm seeds the initial crash/brownout transitions and the
// health-probe tick, for whichever of them the run has on.
func (s *fleetSim) scheduleStorm() {
	if mean := s.storm.CrashMeanUpCycles; mean > 0 {
		for m := range s.machines {
			s.push(event{at: s.crashRng[m].ExpFloat64() * mean, kind: evCrash, m: int32(m)})
		}
	}
	if mean := s.storm.BrownoutMeanUpCycles; mean > 0 {
		for m := range s.machines {
			s.push(event{at: s.brownRng[m].ExpFloat64() * mean, kind: evBrownStart, m: int32(m)})
		}
	}
	if hc := s.spec.Health; hc != nil && hc.Enabled {
		s.push(event{at: hc.ProbeIntervalCycles, kind: evProbe})
	}
}

// dispatch routes one attempt through the LB and places it: start, queue,
// or fail.
func (s *fleetSim) dispatch(a *attempt, now float64) {
	m, ok := s.route(a, now)
	if !ok {
		// No member machine the breakers will admit: the attempt has no
		// destination and fails immediately.
		s.attemptFail(a, now, outFailed)
		return
	}
	a.m = m
	st := &s.machines[m]
	if st.brState == brHalfOpen {
		st.brHalfOpen++
	}
	if !st.up {
		// The balancer cannot see a crash the health checks have not
		// caught yet; the placement fails on arrival at the machine.
		s.recordFailure(m, now)
		s.attemptFail(a, now, outFailed)
		return
	}
	if s.timeoutCyc > 0 {
		s.push(event{at: now + s.timeoutCyc, kind: evTimeout, m: int32(m), a: a})
	}
	switch {
	case st.free > 0:
		s.start(now, m, a)
	case st.queue.len() < s.f.Block.QueueCap:
		st.queue.push(a)
		a.rs.refs++
	default:
		s.recordFailure(m, now)
		s.attemptFail(a, now, outDropped)
	}
}

// route picks the destination machine among the members the circuit
// breakers admit (all machines while health checks and breakers are off).
// The hash policy uses rendezvous hashing, so membership churn does not
// remap survivors.
func (s *fleetSim) route(a *attempt, now float64) (int, bool) {
	n := len(s.machines)
	members := s.members[:0]
	for i := range s.machines {
		if s.machines[i].member && s.breakerAllows(i, now) {
			members = append(members, i)
		}
	}
	s.members = members
	if len(members) == 0 {
		return 0, false
	}
	switch s.f.Block.LB {
	case "rr":
		// Advance past non-members so the rotation only lands on
		// routable machines.
		for range s.machines {
			m := s.rrNext % n
			s.rrNext++
			for _, c := range members {
				if c == m {
					return m, true
				}
			}
		}
		return members[0], true
	case "hash":
		return rendezvousPick(a.rs.req.hashKey, members), true
	default: // least outstanding, ties to the lowest index
		best, bestOut := -1, math.MaxInt
		for _, i := range members {
			if out := s.machines[i].outstanding(); out < bestOut {
				best, bestOut = i, out
			}
		}
		return best, true
	}
}

// start occupies one server of m with the attempt and schedules its
// completion; brownouts inflate the calibrated service time.
func (s *fleetSim) start(at float64, m int, a *attempt) {
	st := &s.machines[m]
	st.free--
	st.busy++
	svc := s.service(m, a.rs.req)
	if st.browned {
		svc *= s.brownFactor
	}
	a.epoch = st.epoch
	st.inflight = append(st.inflight, a)
	s.push(event{at: at + svc, kind: evComplete, m: int32(m), a: a})
}

// complete handles a service completion: resolve the request (first
// attempt wins), free the server, and pull the next queued attempt.
func (s *fleetSim) complete(e event) {
	m := int(e.m)
	a := e.a
	st := &s.machines[m]
	if a.epoch != st.epoch {
		return // the machine crashed since; its server pool was reset
	}
	st.free++
	st.busy--
	s.removeInflight(st, a)
	if !a.done {
		a.done = true
		rs := a.rs
		rs.inflight--
		s.recordSuccess(m)
		if !rs.resolved {
			s.res.Served[m]++
			s.lastDone = max(s.lastDone, e.at)
			if rs.attempts > 1 {
				s.res.Resilience.FailedOver++
			}
			if a.hedge {
				s.res.Resilience.HedgeWins++
			}
			s.cancelSiblings(rs, a)
			s.resolve(rs, outCompleted, e.at)
		}
	}
	for st.queue.len() > 0 {
		next := st.queue.pop()
		if next.done {
			s.unref(next.rs) // cancelled while waiting; skip to the next
			continue
		}
		s.start(e.at, m, next) // its completion now holds the request
		s.unref(next.rs)
		break
	}
}

// removeInflight drops a from the machine's serving list.
func (s *fleetSim) removeInflight(st *machineState, a *attempt) {
	for i, x := range st.inflight {
		if x == a {
			last := len(st.inflight) - 1
			copy(st.inflight[i:], st.inflight[i+1:])
			st.inflight[last] = nil
			st.inflight = st.inflight[:last]
			return
		}
	}
}

// cancelSiblings marks the request's other live attempts cancelled after
// a first-wins completion; their servers drain on their own schedule.
func (s *fleetSim) cancelSiblings(rs *reqState, winner *attempt) {
	for l := &rs.first; l != nil; l = l.next {
		if l != winner && !l.done {
			l.done = true
			rs.inflight--
			s.res.Resilience.HedgeCancels++
		}
	}
}

// timeout expires one attempt. The work it may still occupy a server
// with is not reclaimed — the machine finishes it obliviously — but the
// request moves on: retry if budget remains, else resolve.
func (s *fleetSim) timeout(e event) {
	a := e.a
	if a.done || a.rs.resolved {
		return
	}
	s.recordFailure(a.m, e.at)
	s.attemptFail(a, e.at, outTimedOut)
}

// attemptFail marks one live attempt dead and escalates.
func (s *fleetSim) attemptFail(a *attempt, now float64, cause outcome) {
	a.done = true
	a.rs.inflight--
	s.retryOrResolve(a.rs, now, cause)
}

// retryOrResolve decides a failed attempt's request fate: schedule a
// backoff retry while budget remains, wait on still-live siblings, or
// resolve the request as failed.
func (s *fleetSim) retryOrResolve(rs *reqState, now float64, cause outcome) {
	rs.lastCause = cause
	if rs.resolved {
		return
	}
	if !rs.retryPending && rs.attempts < s.retryBudget() {
		rs.retryPending = true
		s.count(outRetry, rs, now)
		s.push(event{at: now + s.backoff(rs.attempts+1), kind: evRetry, a: &rs.first})
		return
	}
	if rs.inflight > 0 || rs.retryPending {
		return // a hedge (or an already-scheduled retry) may still win
	}
	s.resolve(rs, rs.lastCause, now)
}

// retry re-issues a request through the LB after its backoff.
func (s *fleetSim) retry(e event) {
	rs := e.a.rs
	rs.retryPending = false
	if rs.resolved {
		return
	}
	rs.attempts++
	s.dispatch(s.newAttempt(rs, false), e.at)
}

// hedge issues a duplicate attempt for a still-unresolved request.
func (s *fleetSim) hedge(e event) {
	rs := e.a.rs
	if rs.resolved || rs.inflight == 0 {
		return // already decided, or nothing outstanding to duplicate
	}
	h := s.spec.Hedge
	if rs.hedges >= h.MaxHedges {
		return
	}
	rs.hedges++
	s.count(outHedge, rs, e.at)
	s.dispatch(s.newAttempt(rs, true), e.at)
	if !rs.resolved && rs.hedges < h.MaxHedges {
		s.push(event{at: e.at + s.hedgeDelay, kind: evHedge, a: &rs.first})
	}
}

// crash takes a machine down: every queued and in-service attempt fails
// over (or out), the server pool resets, and the epoch bump invalidates
// the stale completions still pending.
func (s *fleetSim) crash(e event) {
	m := int(e.m)
	st := &s.machines[m]
	if !st.up {
		return
	}
	st.up = false
	st.epoch++
	st.downAt = e.at
	s.res.Resilience.Crashes++
	// Flushing only schedules retries or resolves requests; nothing here
	// places an attempt, so both lists can be walked in place and then
	// emptied with their buffers kept.
	for _, a := range st.inflight {
		if !a.done {
			s.recordFailure(m, e.at)
			s.attemptFail(a, e.at, outFailed)
		}
	}
	clear(st.inflight)
	st.inflight = st.inflight[:0]
	for _, a := range st.queue.waiting() {
		if !a.done {
			s.attemptFail(a, e.at, outFailed)
		}
		s.unref(a.rs)
	}
	st.queue.reset()
	st.busy = 0
	st.free = s.cal.machines[m].servers
	if s.moreWork() {
		s.push(event{at: e.at + s.crashRng[m].ExpFloat64()*s.storm.CrashMeanDownCycles, kind: evRecover, m: e.m})
	}
}

// recover brings a crashed machine back up (health checks readmit it on
// their own schedule; without them it serves again immediately).
func (s *fleetSim) recover(e event) {
	m := int(e.m)
	st := &s.machines[m]
	st.up = true
	s.res.DowntimeCycles[m] += e.at - st.downAt
	if s.moreWork() {
		s.push(event{at: e.at + s.crashRng[m].ExpFloat64()*s.storm.CrashMeanUpCycles, kind: evCrash, m: e.m})
	}
}

// brownStart begins a brownout window: new service starts on the machine
// run brownFactor times slower until it ends.
func (s *fleetSim) brownStart(e event) {
	m := int(e.m)
	st := &s.machines[m]
	st.browned = true
	s.res.Resilience.Brownouts++
	s.push(event{at: e.at + s.brownRng[m].ExpFloat64()*s.storm.BrownoutMeanCycles, kind: evBrownEnd, m: e.m})
}

// brownEnd closes the window and schedules the next one.
func (s *fleetSim) brownEnd(e event) {
	m := int(e.m)
	s.machines[m].browned = false
	if s.moreWork() {
		s.push(event{at: e.at + s.brownRng[m].ExpFloat64()*s.storm.BrownoutMeanUpCycles, kind: evBrownStart, m: e.m})
	}
}

// probe runs one global health-check tick over every machine in stable
// index order, applying the storm's counter-based probe loss and the
// fail/restore membership thresholds.
func (s *fleetSim) probe(e event) {
	hc := s.spec.Health
	for m := range s.machines {
		st := &s.machines[m]
		st.probeCount++
		s.res.Resilience.ProbesSent++
		lost := false
		if every := s.storm.ProbeLossEvery; every > 0 {
			lost = (st.probeCount-1)%every == s.probePhase[m]
			if lost {
				s.res.Resilience.ProbesLost++
			}
		}
		if st.up && !lost {
			st.okProbes++
			st.failProbes = 0
			if !st.member && st.okProbes >= hc.RestoreThreshold {
				st.member = true
			}
		} else {
			st.failProbes++
			st.okProbes = 0
			if st.member && st.failProbes >= hc.FailThreshold {
				st.member = false
			}
		}
	}
	if s.moreWork() {
		s.push(event{at: e.at + hc.ProbeIntervalCycles, kind: evProbe})
	}
}

// shouldShed applies admission control at an arrival instant: during
// overload (busy servers over member capacity at or past the threshold),
// mix entries below the priority floor are turned away.
func (s *fleetSim) shouldShed(wl int) bool {
	sh := s.spec.Shed
	if sh == nil || !sh.Enabled {
		return false
	}
	if s.priorities[wl] >= sh.PriorityFloor {
		return false
	}
	busy, capacity := 0, 0
	for i := range s.machines {
		if !s.machines[i].member {
			continue
		}
		busy += s.machines[i].busy
		capacity += s.cal.machines[i].servers
	}
	if capacity == 0 {
		return true // no member capacity at all
	}
	return float64(busy)/float64(capacity) >= sh.UtilizationHigh
}

// recordFailure feeds the per-machine circuit breaker (and its
// consecutive-failure counter) after a failed placement or timeout.
func (s *fleetSim) recordFailure(m int, now float64) {
	st := &s.machines[m]
	st.consecFails++
	br := s.spec.Breaker
	if br == nil || !br.Enabled {
		return
	}
	switch st.brState {
	case brHalfOpen:
		st.brState = brOpen
		st.brOpenUntil = now + br.OpenCycles
		st.brHalfOpen = 0
		s.res.Resilience.BreakerOpens++
	case brClosed:
		if st.consecFails >= br.FailThreshold {
			st.brState = brOpen
			st.brOpenUntil = now + br.OpenCycles
			s.res.Resilience.BreakerOpens++
		}
	}
}

// recordSuccess resets the failure streak and closes a half-open breaker.
func (s *fleetSim) recordSuccess(m int) {
	st := &s.machines[m]
	st.consecFails = 0
	if st.brState == brHalfOpen {
		st.brState = brClosed
		st.brHalfOpen = 0
	}
}

// breakerAllows reports whether the machine's breaker admits a request
// now, transitioning open → half-open once the open window elapses.
func (s *fleetSim) breakerAllows(m int, now float64) bool {
	br := s.spec.Breaker
	if br == nil || !br.Enabled {
		return true
	}
	st := &s.machines[m]
	switch st.brState {
	case brOpen:
		if now < st.brOpenUntil {
			return false
		}
		st.brState = brHalfOpen
		st.brHalfOpen = 0
		return true
	case brHalfOpen:
		return st.brHalfOpen < br.HalfOpenProbes
	}
	return true
}

// sweepUnresolved closes the conservation invariant if any request
// somehow survived the drain (it should not; see Simulate).
func (s *fleetSim) sweepUnresolved() {
	if s.unresolved == 0 {
		return
	}
	s.res.Resilience.Failed += uint64(s.unresolved)
	s.unresolved = 0
}

// publishMetrics registers the run's counters and SLO histogram with the
// run environment's metrics collector, under the fleet scope. A run
// without an environment skips this.
func (r *Result) publishMetrics(env *machine.Env) {
	col := env.Metrics()
	if col == nil {
		return
	}
	reg := metrics.NewRegistry()
	r.PublishInto(reg)
	col.Add(reg)
}

// PublishInto registers the result's fleet.* metrics on reg: the run
// counters, derived gauges, latency histogram, per-machine served
// counters, and — under fleet.resilience — the availability accounting
// (the conformance counter audit walks these against the struct fields).
func (r *Result) PublishInto(reg *metrics.Registry) {
	s := reg.Scope("fleet")
	s.Counter("offered", &r.Offered)
	s.Counter("completed", &r.Completed)
	s.Counter("dropped", &r.Dropped)
	s.Gauge("goodput_kops", r.GoodputKOps)
	s.Gauge("mean_queue_depth", func() float64 { return r.MeanQueueDepth })
	s.Histogram("latency_cycles", r.Latencies)
	for i := range r.Served {
		s.Scope("machine").CounterFunc(
			"served_"+strconv.Itoa(i), func() uint64 { return r.Served[i] })
	}
	rs := s.Scope("resilience")
	rs.Counter("timed_out", &r.Resilience.TimedOut)
	rs.Counter("shed", &r.Resilience.Shed)
	rs.Counter("failed", &r.Resilience.Failed)
	rs.Counter("failed_over", &r.Resilience.FailedOver)
	rs.Counter("retries", &r.Resilience.Retries)
	rs.Counter("hedges", &r.Resilience.Hedges)
	rs.Counter("hedge_wins", &r.Resilience.HedgeWins)
	rs.Counter("hedge_cancels", &r.Resilience.HedgeCancels)
	rs.Counter("probes_sent", &r.Resilience.ProbesSent)
	rs.Counter("probes_lost", &r.Resilience.ProbesLost)
	rs.Counter("breaker_opens", &r.Resilience.BreakerOpens)
	rs.Counter("crashes", &r.Resilience.Crashes)
	rs.Counter("brownouts", &r.Resilience.Brownouts)
	for i := range r.DowntimeCycles {
		s.Scope("machine").Gauge(
			"downtime_cycles_"+strconv.Itoa(i), func() float64 { return r.DowntimeCycles[i] })
	}
}
