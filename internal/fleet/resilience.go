package fleet

import (
	"fmt"
	"math"
	"math/rand"

	"mcsquare/internal/config"
	"mcsquare/internal/faultinject"
	"mcsquare/internal/stats"
)

// ResilienceStats is the fleet's availability accounting.
// Together with Result.Completed and Result.Dropped it satisfies the fleet
// conservation invariant: Offered == Completed + TimedOut + Shed + Dropped
// + Failed. Hedge duplicates are extra attempts, not extra requests, and
// are accounted separately (Hedges issued, HedgeWins, HedgeCancels).
type ResilienceStats struct {
	TimedOut     uint64 // requests that exhausted their attempt budget on timeouts
	Shed         uint64 // arrivals turned away by admission control
	Failed       uint64 // requests that exhausted their budget on hard failures
	FailedOver   uint64 // completed requests that needed more than one attempt
	Retries      uint64 // retry attempts scheduled
	Hedges       uint64 // hedge attempts issued
	HedgeWins    uint64 // requests whose hedge attempt completed first
	HedgeCancels uint64 // sibling attempts cancelled by a first-wins completion
	ProbesSent   uint64 // health probes sent (per machine per tick)
	ProbesLost   uint64 // probes dropped by the storm's probe-loss schedule
	BreakerOpens uint64 // circuit-breaker open (and half-open reopen) transitions
	Crashes      uint64 // machine crash events
	Brownouts    uint64 // machine brownout-window starts
}

// ResilienceSummary renders the availability accounting the way mcsim's
// -fleet mode prints it: one block of outcome, storm, and attempt lines.
// Empty unless ResilienceOn, so default runs print nothing new.
func (r *Result) ResilienceSummary() string {
	if !r.ResilienceOn {
		return ""
	}
	var down float64
	for _, d := range r.DowntimeCycles {
		down += d
	}
	s := &r.Resilience
	return fmt.Sprintf(
		"  resilience: unavailability %.4f (timed out %d, shed %d, failed %d; failed over %d)\n"+
			"  storm: crashes %d, brownouts %d, downtime %.0f cycles; probes %d sent / %d lost; breaker opens %d\n"+
			"  attempts: retries %d, hedges %d (wins %d, cancels %d)",
		r.Unavailability(), s.TimedOut, s.Shed, s.Failed, s.FailedOver,
		s.Crashes, s.Brownouts, down, s.ProbesSent, s.ProbesLost, s.BreakerOpens,
		s.Retries, s.Hedges, s.HedgeWins, s.HedgeCancels)
}

// breakerState is one machine's circuit-breaker position.
type breakerState uint8

const (
	brClosed breakerState = iota
	brOpen
	brHalfOpen
)

// outcome is one thing that happens to a request: a final resolution
// (completed, dropped, timed out, shed, failed) or an extra attempt
// (retry, hedge). fleetSim.count records each in the Result and the
// Timeline; a failed attempt keeps its cause as the request's lastCause.
type outcome uint8

const (
	outCompleted outcome = iota
	outDropped           // queue full
	outTimedOut          // per-attempt timeout expired
	outShed              // turned away by admission control
	outFailed            // machine down / no routable destination
	outRetry
	outHedge
)

// resPlane is the per-run fault-tolerance runtime: the normalized spec,
// the fleet storm, calibration-derived timeout and hedge delays, and the
// seeded per-machine storm streams (only while the storm is active).
// Every run has one; a mitigation that is off, or a storm kind that is
// inert, schedules no event and draws no randomness.
type resPlane struct {
	spec  config.ResilienceSpec
	storm faultinject.Schedule

	priorities  []int   // per mix entry, for load shedding
	timeoutCyc  float64 // per-attempt timeout (0 = none)
	hedgeDelay  float64 // hedge delay from arrival (0 = none)
	brownFactor float64 // service-time multiplier while browned

	crashRng   []*rand.Rand // per-machine crash up/down stream
	brownRng   []*rand.Rand // per-machine brownout stream
	probePhase []uint64     // per-machine probe-loss phase
}

// newResPlane derives the run's fault-tolerance runtime from the fleet
// block and the fault schedule of the fleet's run environment.
func (f *Fleet) newResPlane(cal *Calibration) resPlane {
	var spec config.ResilienceSpec
	if f.Block.Resilience != nil {
		spec = *f.Block.Resilience
	}
	storm := f.Env.FaultSchedule()
	rp := resPlane{spec: spec, storm: storm}
	for _, mx := range f.Block.Mix {
		rp.priorities = append(rp.priorities, mx.Priority)
	}
	if rt := spec.Retry; rt != nil && rt.Enabled {
		rp.timeoutCyc = rt.TimeoutCycles
		if rp.timeoutCyc == 0 {
			rp.timeoutCyc = rt.TimeoutP99Mult * cal.p99Service()
		}
	}
	if h := spec.Hedge; h != nil && h.Enabled {
		rp.hedgeDelay = h.DelayCycles
		if rp.hedgeDelay == 0 {
			rp.hedgeDelay = h.DelayP99Mult * cal.p99Service()
		}
	}
	rp.brownFactor = storm.BrownoutFactor
	if rp.brownFactor <= 1 {
		rp.brownFactor = 4
	}

	if !storm.FleetActive() {
		return rp
	}
	n := len(cal.machines)
	rp.crashRng = make([]*rand.Rand, n)
	rp.brownRng = make([]*rand.Rand, n)
	rp.probePhase = make([]uint64, n)
	for m := 0; m < n; m++ {
		rp.crashRng[m] = rand.New(rand.NewSource(int64(storm.FleetStreamSeed(m, 0))))
		rp.brownRng[m] = rand.New(rand.NewSource(int64(storm.FleetStreamSeed(m, 1))))
		if storm.ProbeLossEvery > 0 {
			rp.probePhase[m] = storm.FleetStreamSeed(m, 2) % storm.ProbeLossEvery
		}
	}
	return rp
}

// p99Service is the calibrated service-time p99 across the fleet, the
// unit of the timeout and hedge delays a spec gives as multiples.
func (c *Calibration) p99Service() float64 {
	var all stats.Histogram
	n := 0
	for _, mc := range c.machines {
		for _, v := range mc.samples {
			n += len(v)
		}
	}
	all.Grow(n)
	for _, mc := range c.machines {
		for _, v := range mc.samples {
			for _, x := range v {
				all.Add(x)
			}
		}
	}
	return all.Percentile(99)
}

// retryBudget returns the attempt cap (1 = no retries).
func (rp *resPlane) retryBudget() int {
	if rt := rp.spec.Retry; rt != nil && rt.Enabled {
		return rt.MaxAttempts
	}
	return 1
}

// backoff returns the delay before retry number attempt (the second
// attempt is number 2): exponential from the base, capped.
func (rp *resPlane) backoff(attempt int) float64 {
	rt := rp.spec.Retry
	d := rt.BackoffBaseCycles * math.Pow(2, float64(attempt-2))
	if d > rt.BackoffMaxCycles {
		d = rt.BackoffMaxCycles
	}
	return d
}

// mix64 is the SplitMix64 avalanche, duplicated here for rendezvous
// hashing (faultinject keeps its copy unexported).
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rendezvousPick maps a request key onto one of the member machine
// indices by highest random weight. Unlike key % n, removing one member
// never remaps a key that was assigned to a survivor — the property the
// hash LB needs so membership churn only moves traffic that had nowhere
// else to go.
func rendezvousPick(key uint64, members []int) int {
	best, bestW := -1, uint64(0)
	for _, m := range members {
		w := mix64(key ^ (uint64(m)+1)*0x9e3779b97f4a7c15)
		if best < 0 || w > bestW {
			best, bestW = m, w
		}
	}
	return best
}
