package fleet

import (
	"math"
	"math/rand"
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
	// in completion order; PerWorkload splits it by mix entry.
	Latencies   *stats.Histogram
	PerWorkload map[string]*stats.Histogram

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

	// ResilienceOn records whether the fault-tolerance plane ran: a
	// mitigation was enabled or a fleet fault storm was active. When false
	// the counters below stay zero and the event loop took the exact
	// legacy path.
	ResilienceOn bool
	// Resilience is the availability accounting; with ResilienceOn the
	// conservation invariant holds:
	// Offered == Completed + TimedOut + Shed + Dropped + Failed.
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

// request is one generated arrival. Its random draws (workload, service
// sample index, hash key) happen at generation time in arrival order, so
// the stream is identical no matter which machines end up serving it.
type request struct {
	arrive  float64
	wl      int    // mix entry index
	sample  int    // index into the serving machine's sample vector
	hashKey uint64 // consistent-hash routing key
}

// reqState tracks one request across its attempts. With the resilience
// plane off a request has exactly one attempt that either completes or is
// dropped at the door, and everything here stays trivial.
type reqState struct {
	req          request
	attempts     int // primary + retry attempts issued
	hedges       int // hedge attempts issued
	inflight     int // live (queued or serving) attempts
	retryPending bool
	resolved     bool
	lastCause    outcomeCause
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

// release unlinks a resolved request from its retry and hedge attempts.
// Every attempt is done by then, and handlers read a done attempt's rs
// no more. The links would otherwise chain slab chunks together: each
// attempt chunk points into the request chunks of its attempts, and
// those point into older attempt chunks, so one live chunk would keep
// every earlier one reachable.
func (rs *reqState) release() {
	for a := rs.first.next; a != nil; {
		next := a.next
		a.rs, a.next = nil, nil
		a = next
	}
	rs.first.next, rs.last = nil, nil
}

// slab hands out pointers into chunked backing arrays, so per-request
// state costs one allocation per slabChunk objects instead of one each.
// Only the current chunk is referenced from here: a spent chunk is freed
// once no event or request points into it any more.
type slab[T any] struct{ free []T }

const slabChunk = 1024

func (s *slab[T]) alloc() *T {
	if len(s.free) == 0 {
		s.free = make([]T, slabChunk)
	}
	p := &s.free[0]
	s.free = s.free[1:]
	return p
}

// evKind orders the event loop's work. Only evComplete exists on the
// legacy path; everything else belongs to the resilience plane.
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

// attemptFIFO is a machine's wait queue. Dequeue advances a head index and
// enqueue compacts the live tail to the front once at least half the
// buffer is spent, so the backing array is reused instead of regrown.
type attemptFIFO struct {
	buf  []*attempt
	head int
}

func (q *attemptFIFO) len() int { return len(q.buf) - q.head }

func (q *attemptFIFO) push(a *attempt) {
	if len(q.buf) == cap(q.buf) && q.head > 0 && 2*q.head >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, a)
}

func (q *attemptFIFO) pop() *attempt {
	a := q.buf[q.head]
	q.buf[q.head] = nil
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return a
}

// waiting returns the queued attempts in FIFO order.
func (q *attemptFIFO) waiting() []*attempt { return q.buf[q.head:] }

// reset empties the queue, keeping its buffer.
func (q *attemptFIFO) reset() {
	clear(q.buf)
	q.buf = q.buf[:0]
	q.head = 0
}

// machineState is one machine's runtime queueing and health state.
type machineState struct {
	free  int // idle servers
	busy  int
	queue attemptFIFO // cancelled attempts are skipped at dequeue

	// Resilience-plane state; untouched (zero) on the legacy path.
	up       bool
	browned  bool
	epoch    uint64     // bumped on crash to invalidate stale completions
	inflight []*attempt // attempts currently occupying servers
	downAt   float64

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
	rp  *resPlane // nil = legacy path

	machines     []machineState
	pending      eventHeap
	seq          uint64
	rrNext       int
	lastDone     float64
	unresolved   int // requests arrived but not yet resolved
	arrivalsLeft int

	reqs     slab[reqState]
	attempts slab[attempt]      // retry and hedge attempts
	members  []int              // route's candidate buffer, reused per dispatch
	perWL    []*stats.Histogram // res.PerWorkload resolved by mix entry
}

// Simulate drives the calibrated fleet with an open-loop arrival stream at
// the given offered rate (requests per cycle) and returns the operating
// point. The whole pass is a single-threaded seeded event loop:
// byte-identical output for identical inputs. When the fleet block's
// Resilience spec enables a mitigation, or the fault schedule of the
// fleet's run environment carries a fleet storm, the loop additionally
// runs the fault-tolerance plane; otherwise it executes the exact legacy
// sequence of operations.
func (f *Fleet) Simulate(cal *Calibration, rate float64) *Result {
	res := &Result{
		Mechanism:          cal.Mechanism,
		Machines:           len(f.Specs),
		Clock:              f.Clock,
		OfferedReqPerCycle: rate,
		CapacityKOps:       f.CapacityKOps(cal),
		Latencies:          &stats.Histogram{},
		PerWorkload:        map[string]*stats.Histogram{},
		Served:             make([]uint64, len(f.Specs)),
		DowntimeCycles:     make([]float64, len(f.Specs)),
	}
	s := &fleetSim{f: f, cal: cal, res: res, perWL: make([]*stats.Histogram, len(f.Block.Mix))}
	for i, mx := range f.Block.Mix {
		h := res.PerWorkload[mx.Workload]
		if h == nil {
			h = &stats.Histogram{}
			res.PerWorkload[mx.Workload] = h
		}
		s.perWL[i] = h
	}
	n := f.Block.Requests
	if f.Quick {
		n = (n + 3) / 4
	}
	s.rp = f.newResPlane(cal)
	res.ResilienceOn = s.rp != nil
	res.Timeline = f.newTimeline() // nil unless the spec enables it
	if res.Timeline != nil {
		res.Timeline.Resilience = res.ResilienceOn
	}
	// The explicit n guard keeps the mean-depth division and the
	// first-arrival index safe even if the quick-scale shrink above ever
	// changes: past this point len(arrivals) > 0.
	if n <= 0 || rate <= 0 {
		return res
	}

	rnd := f.rng()
	cum := make([]float64, len(cal.weights))
	sum := 0.0
	for i, w := range cal.weights {
		sum += w
		cum[i] = sum
	}

	// The arrival stream: every random draw happens here, in order. The
	// resilience plane draws from its own per-machine streams, so this
	// sequence is identical with the plane on or off.
	arrivals := make([]request, n)
	now := 0.0
	for i := range arrivals {
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
		arrivals[i] = request{arrive: now, wl: wl, sample: rnd.Intn(1 << 30), hashKey: rnd.Uint64()}
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

	depthSum := 0.0
	for _, r := range arrivals {
		// Events scheduled before (or exactly at) this arrival land first,
		// so balancer state reflects them — and the order is still
		// deterministic because the heap breaks time ties by schedule order.
		for len(s.pending) > 0 && s.pending[0].at <= r.arrive {
			s.handle(s.pending.pop())
		}
		depth := 0
		for i := range s.machines {
			depth += s.machines[i].queue.len()
		}
		depthSum += float64(depth)
		if depth > res.MaxQueueDepth {
			res.MaxQueueDepth = depth
		}
		dropped := s.arrive(r)
		s.arrivalsLeft--
		res.Timeline.arrival(r.arrive, depth, dropped)
	}
	for len(s.pending) > 0 {
		s.handle(s.pending.pop())
	}
	// Defensive: the loop above drains every live attempt, so nothing
	// should remain unresolved; if it ever does, account it as failed so
	// the conservation invariant (which tests assert) still closes.
	s.sweepUnresolved()
	res.MeanQueueDepth = depthSum / float64(len(arrivals))
	if res.Completed > 0 {
		// With nothing completed lastDone never moved off 0; the span
		// stays 0 instead of going negative.
		res.DurationCycles = s.lastDone - arrivals[0].arrive
	}
	res.Timeline.finalize()
	res.publishMetrics(f.Env)
	return res
}

// arrive admits, sheds, or places one arriving request. The returned flag
// reports a legacy at-the-door queue drop (for the timeline's
// arrival-instant accounting); with the plane on, drops resolve later.
func (s *fleetSim) arrive(r request) bool {
	rs := s.reqs.alloc()
	rs.req = r
	s.unresolved++
	if s.rp != nil && s.shouldShed(r.wl) {
		rs.resolved = true
		s.unresolved--
		s.res.Resilience.Shed++
		s.res.Timeline.shed(r.arrive)
		return false
	}
	rs.attempts = 1
	dropped := s.dispatch(s.newAttempt(rs, false), r.arrive)
	if s.rp != nil && s.rp.hedgeDelay > 0 && !rs.resolved {
		s.push(event{at: r.arrive + s.rp.hedgeDelay, kind: evHedge, a: &rs.first})
	}
	return dropped
}

// handle routes one popped event to its handler.
func (s *fleetSim) handle(e event) {
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
}

// push schedules an event, stamping the deterministic tie-break sequence.
func (s *fleetSim) push(e event) {
	e.seq = s.seq
	s.seq++
	s.pending.push(e)
}

// newAttempt issues one more live attempt for rs: the embedded primary
// first, then slab-allocated retries and hedges chained in issue order.
func (s *fleetSim) newAttempt(rs *reqState, hedge bool) *attempt {
	a := &rs.first
	if rs.last != nil {
		a = s.attempts.alloc()
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

// expo draws one exponential duration with the given mean from a
// per-machine storm stream.
func (s *fleetSim) expo(m int, rngs []*rand.Rand, mean float64) float64 {
	return rngs[m].ExpFloat64() * mean
}

// scheduleStorm seeds the initial crash/brownout transitions and the
// health-probe tick. No-op on the legacy path.
func (s *fleetSim) scheduleStorm() {
	if s.rp == nil {
		return
	}
	if s.rp.storm.CrashMeanUpCycles > 0 {
		for m := range s.machines {
			s.push(event{at: s.expo(m, s.rp.crashRng, s.rp.storm.CrashMeanUpCycles), kind: evCrash, m: int32(m)})
		}
	}
	if s.rp.storm.BrownoutMeanUpCycles > 0 {
		for m := range s.machines {
			s.push(event{at: s.expo(m, s.rp.brownRng, s.rp.storm.BrownoutMeanUpCycles), kind: evBrownStart, m: int32(m)})
		}
	}
	if s.rp.healthEnabled() {
		s.push(event{at: s.rp.spec.Health.ProbeIntervalCycles, kind: evProbe})
	}
}

// dispatch routes one attempt through the LB and places it: start, queue,
// or fail. Returns true only for a legacy at-the-door drop.
func (s *fleetSim) dispatch(a *attempt, now float64) bool {
	m, ok := s.route(a, now)
	if !ok {
		// No member machine the breakers will admit: the attempt has no
		// destination and fails immediately.
		s.attemptFail(a, now, causeFailed)
		return false
	}
	a.m = m
	st := &s.machines[m]
	if s.rp != nil {
		if st.brState == brHalfOpen {
			st.brHalfOpen++
		}
		if !st.up {
			// The balancer cannot see a crash the health checks have not
			// caught yet; the placement fails on arrival at the machine.
			s.recordFailure(m, now)
			s.attemptFail(a, now, causeFailed)
			return false
		}
		if s.rp.timeoutCyc > 0 {
			s.push(event{at: now + s.rp.timeoutCyc, kind: evTimeout, m: int32(m), a: a})
		}
	}
	switch {
	case st.free > 0:
		s.start(now, m, a)
	case st.queue.len() < s.f.Block.QueueCap:
		st.queue.push(a)
	default:
		if s.rp == nil {
			s.res.Dropped++
			a.rs.resolved = true
			s.unresolved--
			return true
		}
		s.recordFailure(m, now)
		s.attemptFail(a, now, causeDropped)
	}
	return false
}

// route picks the destination machine. On the legacy path this is the
// original policy over all machines; with the plane on, only members the
// circuit breakers admit are candidates (hash switches from key % n to
// rendezvous hashing so membership churn does not remap survivors).
func (s *fleetSim) route(a *attempt, now float64) (int, bool) {
	n := len(s.machines)
	if s.rp == nil {
		switch s.f.Block.LB {
		case "rr":
			m := s.rrNext % n
			s.rrNext++
			return m, true
		case "hash":
			return int(a.rs.req.hashKey % uint64(n)), true
		default: // least outstanding, ties to the lowest index
			best, bestOut := 0, math.MaxInt
			for i := range s.machines {
				if out := s.machines[i].outstanding(); out < bestOut {
					best, bestOut = i, out
				}
			}
			return best, true
		}
	}
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
	default:
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
		svc *= s.rp.brownFactor
	}
	a.epoch = st.epoch
	if s.rp != nil {
		st.inflight = append(st.inflight, a)
	}
	s.push(event{at: at + svc, kind: evComplete, m: int32(m), a: a})
}

// complete handles a service completion: resolve the request (first
// attempt wins), free the server, and pull the next queued attempt.
func (s *fleetSim) complete(e event) {
	m := int(e.m)
	a := e.a
	st := &s.machines[m]
	if s.rp != nil && a.epoch != st.epoch {
		return // the machine crashed since; its server pool was reset
	}
	st.free++
	st.busy--
	if s.rp != nil {
		s.removeInflight(st, a)
	}
	if !a.done {
		a.done = true
		rs := a.rs
		rs.inflight--
		s.recordSuccess(m)
		if !rs.resolved {
			rs.resolved = true
			s.unresolved--
			s.res.Completed++
			s.res.Served[m]++
			lat := e.at - rs.req.arrive
			s.res.Latencies.Add(lat)
			s.res.Timeline.completion(e.at, lat)
			s.perWL[rs.req.wl].Add(lat)
			if e.at > s.lastDone {
				s.lastDone = e.at
			}
			if rs.attempts > 1 {
				s.res.Resilience.FailedOver++
			}
			if a.hedge {
				s.res.Resilience.HedgeWins++
			}
			s.cancelSiblings(rs, a)
			rs.release()
		}
	}
	for st.queue.len() > 0 {
		next := st.queue.pop()
		if next.done {
			continue // cancelled while waiting; skip to the next
		}
		s.start(e.at, m, next)
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
	a.done = true
	a.rs.inflight--
	s.recordFailure(a.m, e.at)
	s.retryOrResolve(a.rs, e.at, causeTimeout)
}

// attemptFail marks one attempt dead at issue time and escalates.
func (s *fleetSim) attemptFail(a *attempt, now float64, cause outcomeCause) {
	a.done = true
	a.rs.inflight--
	s.retryOrResolve(a.rs, now, cause)
}

// retryOrResolve decides a failed attempt's request fate: schedule a
// backoff retry while budget remains, wait on still-live siblings, or
// resolve the request as failed.
func (s *fleetSim) retryOrResolve(rs *reqState, now float64, cause outcomeCause) {
	rs.lastCause = cause
	if rs.resolved {
		return
	}
	if !rs.retryPending && rs.attempts < s.rp.retryBudget() {
		rs.retryPending = true
		s.res.Resilience.Retries++
		s.res.Timeline.retry(now)
		s.push(event{at: now + s.rp.backoff(rs.attempts+1), kind: evRetry, a: &rs.first})
		return
	}
	if rs.inflight > 0 || rs.retryPending {
		return // a hedge (or an already-scheduled retry) may still win
	}
	s.resolveFailure(rs, now, rs.lastCause)
}

// resolveFailure finalizes a request that will never complete.
func (s *fleetSim) resolveFailure(rs *reqState, now float64, cause outcomeCause) {
	rs.resolved = true
	rs.release()
	s.unresolved--
	switch cause {
	case causeDropped:
		s.res.Dropped++
	case causeTimeout:
		s.res.Resilience.TimedOut++
	default:
		s.res.Resilience.Failed++
	}
	s.res.Timeline.failure(now, cause)
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
	h := s.rp.spec.Hedge
	if rs.hedges >= h.MaxHedges {
		return
	}
	rs.hedges++
	s.res.Resilience.Hedges++
	s.res.Timeline.hedge(e.at)
	s.dispatch(s.newAttempt(rs, true), e.at)
	if !rs.resolved && rs.hedges < h.MaxHedges {
		s.push(event{at: e.at + s.rp.hedgeDelay, kind: evHedge, a: &rs.first})
	}
}

// crash takes a machine down: every queued and in-service attempt fails
// over (or out), the server pool resets, and the epoch bump invalidates
// the stale completions still in the heap.
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
			a.done = true
			a.rs.inflight--
			s.recordFailure(m, e.at)
			s.retryOrResolve(a.rs, e.at, causeFailed)
		}
	}
	clear(st.inflight)
	st.inflight = st.inflight[:0]
	for _, a := range st.queue.waiting() {
		if !a.done {
			a.done = true
			a.rs.inflight--
			s.retryOrResolve(a.rs, e.at, causeFailed)
		}
	}
	st.queue.reset()
	st.busy = 0
	st.free = s.cal.machines[m].servers
	if s.moreWork() {
		s.push(event{at: e.at + s.expo(m, s.rp.crashRng, s.rp.storm.CrashMeanDownCycles), kind: evRecover, m: e.m})
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
		s.push(event{at: e.at + s.expo(m, s.rp.crashRng, s.rp.storm.CrashMeanUpCycles), kind: evCrash, m: e.m})
	}
}

// brownStart begins a brownout window: new service starts on the machine
// run brownFactor times slower until it ends.
func (s *fleetSim) brownStart(e event) {
	m := int(e.m)
	st := &s.machines[m]
	st.browned = true
	s.res.Resilience.Brownouts++
	s.push(event{at: e.at + s.expo(m, s.rp.brownRng, s.rp.storm.BrownoutMeanCycles), kind: evBrownEnd, m: e.m})
}

// brownEnd closes the window and schedules the next one.
func (s *fleetSim) brownEnd(e event) {
	m := int(e.m)
	s.machines[m].browned = false
	if s.moreWork() {
		s.push(event{at: e.at + s.expo(m, s.rp.brownRng, s.rp.storm.BrownoutMeanUpCycles), kind: evBrownStart, m: e.m})
	}
}

// probe runs one global health-check tick over every machine in stable
// index order, applying the storm's counter-based probe loss and the
// fail/restore membership thresholds.
func (s *fleetSim) probe(e event) {
	hc := s.rp.spec.Health
	for m := range s.machines {
		st := &s.machines[m]
		st.probeCount++
		s.res.Resilience.ProbesSent++
		lost := false
		if every := s.rp.storm.ProbeLossEvery; every > 0 {
			lost = (st.probeCount-1)%every == s.rp.probePhase[m]
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
	sh := s.rp.spec.Shed
	if sh == nil || !sh.Enabled {
		return false
	}
	if s.rp.priorities[wl] >= sh.PriorityFloor {
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
	if s.rp == nil {
		return
	}
	st := &s.machines[m]
	st.consecFails++
	br := s.rp.spec.Breaker
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
	if s.rp == nil {
		return
	}
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
	br := s.rp.spec.Breaker
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
