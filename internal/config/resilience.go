package config

// ResilienceSpec is the fleet block's fault-tolerance plane: health-checked
// LB membership, per-request timeouts with budgeted retries, hedged
// requests, per-machine circuit breakers, and utilization-triggered load
// shedding. Every sub-block is optional and default-off, so a spec without
// one (or with Enabled false everywhere) simulates exactly as before; the
// seeded fault storm (faultinject.Schedule's fleet fields) degrades
// machines whether or not any mitigation here is switched on.
type ResilienceSpec struct {
	Health  *HealthSpec  `json:",omitempty"`
	Retry   *RetrySpec   `json:",omitempty"`
	Hedge   *HedgeSpec   `json:",omitempty"`
	Breaker *BreakerSpec `json:",omitempty"`
	Shed    *ShedSpec    `json:",omitempty"`
}

// HealthSpec drives LB membership from periodic health probes: a machine
// leaves the serving set after FailThreshold consecutive failed probes and
// rejoins after RestoreThreshold consecutive successes. With health checks
// off, the balancer keeps routing to crashed machines (requests fail on
// arrival) — the naive-balancer failure mode the resilience figures show.
type HealthSpec struct {
	Enabled bool
	// ProbeIntervalCycles is the global probe period; all machines are
	// probed on the same tick in stable index order. Zero inherits 25000.
	ProbeIntervalCycles float64 `json:",omitempty"`
	// FailThreshold consecutive lost-or-down probes eject a machine; zero
	// inherits 3.
	FailThreshold int `json:",omitempty"`
	// RestoreThreshold consecutive successful probes re-admit it; zero
	// inherits 2.
	RestoreThreshold int `json:",omitempty"`
}

// RetrySpec bounds per-attempt latency and retries failed or timed-out
// requests through the load balancer with exponential backoff.
type RetrySpec struct {
	Enabled bool
	// MaxAttempts caps total attempts per request (first try included);
	// zero inherits 3.
	MaxAttempts int `json:",omitempty"`
	// TimeoutCycles is the absolute per-attempt timeout (queueing +
	// service); zero derives TimeoutP99Mult times the calibrated p99
	// service time.
	TimeoutCycles float64 `json:",omitempty"`
	// TimeoutP99Mult scales the calibrated p99 service time into the
	// derived timeout; zero inherits 4.
	TimeoutP99Mult float64 `json:",omitempty"`
	// BackoffBaseCycles is the first retry delay, doubled per attempt up
	// to BackoffMaxCycles; zeros inherit 1000 and 16000.
	BackoffBaseCycles float64 `json:",omitempty"`
	BackoffMaxCycles  float64 `json:",omitempty"`
}

// HedgeSpec issues a duplicate attempt for requests still unresolved after
// a p99-based delay; the first completion wins and the loser is cancelled
// (its server time is still spent — hedging trades work for tail latency).
type HedgeSpec struct {
	Enabled bool
	// DelayCycles is the absolute hedge delay from arrival; zero derives
	// DelayP99Mult times the calibrated p99 service time.
	DelayCycles float64 `json:",omitempty"`
	// DelayP99Mult scales the calibrated p99 into the derived delay; zero
	// inherits 1.
	DelayP99Mult float64 `json:",omitempty"`
	// MaxHedges caps duplicate attempts per request; zero inherits 1.
	MaxHedges int `json:",omitempty"`
}

// BreakerSpec is a per-machine circuit breaker: FailThreshold consecutive
// failures open it for OpenCycles, after which HalfOpenProbes trial
// requests decide between closing and re-opening.
type BreakerSpec struct {
	Enabled bool
	// FailThreshold consecutive failures trip the breaker; zero inherits 5.
	FailThreshold int `json:",omitempty"`
	// OpenCycles is how long an open breaker rejects traffic before going
	// half-open; zero inherits 50000.
	OpenCycles float64 `json:",omitempty"`
	// HalfOpenProbes is how many trial requests a half-open breaker admits;
	// zero inherits 1.
	HalfOpenProbes int `json:",omitempty"`
}

// ShedSpec is admission control: when fleet utilization (busy servers over
// member capacity) reaches UtilizationHigh, arrivals whose mix entry's
// Priority is below PriorityFloor are shed at the door instead of queued.
type ShedSpec struct {
	Enabled bool
	// UtilizationHigh is the shedding threshold in (0, 1]; zero inherits 0.9.
	UtilizationHigh float64 `json:",omitempty"`
	// PriorityFloor is the lowest Mix priority still admitted during
	// overload; zero inherits 1 (so default-priority-0 traffic sheds).
	PriorityFloor int `json:",omitempty"`
}

// DefaultResilience is the all-mechanisms-on block figureResilience runs
// under (every threshold at its Normalized default).
func DefaultResilience() ResilienceSpec {
	r := ResilienceSpec{
		Health:  &HealthSpec{Enabled: true},
		Retry:   &RetrySpec{Enabled: true},
		Hedge:   &HedgeSpec{Enabled: true},
		Breaker: &BreakerSpec{Enabled: true},
		Shed:    &ShedSpec{Enabled: true},
	}
	return r.Normalized()
}

// Normalized returns a copy with zero-valued knobs of present sub-blocks
// filled from the defaults above, mirroring FleetSpec.Normalized. Absent
// sub-blocks stay absent (and off).
func (r ResilienceSpec) Normalized() ResilienceSpec {
	if h := r.Health; h != nil {
		hh := *h
		if hh.ProbeIntervalCycles == 0 {
			hh.ProbeIntervalCycles = 25_000
		}
		if hh.FailThreshold == 0 {
			hh.FailThreshold = 3
		}
		if hh.RestoreThreshold == 0 {
			hh.RestoreThreshold = 2
		}
		r.Health = &hh
	}
	if t := r.Retry; t != nil {
		tt := *t
		if tt.MaxAttempts == 0 {
			tt.MaxAttempts = 3
		}
		if tt.TimeoutP99Mult == 0 {
			tt.TimeoutP99Mult = 4
		}
		if tt.BackoffBaseCycles == 0 {
			tt.BackoffBaseCycles = 1_000
		}
		if tt.BackoffMaxCycles == 0 {
			tt.BackoffMaxCycles = 16_000
		}
		r.Retry = &tt
	}
	if h := r.Hedge; h != nil {
		hh := *h
		if hh.DelayP99Mult == 0 {
			hh.DelayP99Mult = 1
		}
		if hh.MaxHedges == 0 {
			hh.MaxHedges = 1
		}
		r.Hedge = &hh
	}
	if b := r.Breaker; b != nil {
		bb := *b
		if bb.FailThreshold == 0 {
			bb.FailThreshold = 5
		}
		if bb.OpenCycles == 0 {
			bb.OpenCycles = 50_000
		}
		if bb.HalfOpenProbes == 0 {
			bb.HalfOpenProbes = 1
		}
		r.Breaker = &bb
	}
	if s := r.Shed; s != nil {
		ss := *s
		if ss.UtilizationHigh == 0 {
			ss.UtilizationHigh = 0.9
		}
		if ss.PriorityFloor == 0 {
			ss.PriorityFloor = 1
		}
		r.Shed = &ss
	}
	return r
}

// EnabledAny reports whether any mitigation mechanism is switched on. A
// nil spec (or one with every sub-block absent or disabled) runs no
// mitigation, and the fleet's result reports ResilienceOn only if a fleet
// storm is active.
func (r *ResilienceSpec) EnabledAny() bool {
	if r == nil {
		return false
	}
	return (r.Health != nil && r.Health.Enabled) ||
		(r.Retry != nil && r.Retry.Enabled) ||
		(r.Hedge != nil && r.Hedge.Enabled) ||
		(r.Breaker != nil && r.Breaker.Enabled) ||
		(r.Shed != nil && r.Shed.Enabled)
}

// validate appends the resilience block's field errors, checking the
// normalized form so partial blocks validate the way they will run.
func (r *ResilienceSpec) validate(v *validator) {
	n := r.Normalized()
	if h := n.Health; h != nil {
		if h.ProbeIntervalCycles < 0 {
			v.errf("Fleet.Resilience.Health.ProbeIntervalCycles", "must not be negative, have %g", r.Health.ProbeIntervalCycles)
		}
		if h.FailThreshold < 1 {
			v.errf("Fleet.Resilience.Health.FailThreshold", "must be at least 1, have %d", r.Health.FailThreshold)
		}
		if h.RestoreThreshold < 1 {
			v.errf("Fleet.Resilience.Health.RestoreThreshold", "must be at least 1, have %d", r.Health.RestoreThreshold)
		}
	}
	if t := n.Retry; t != nil {
		if t.MaxAttempts < 1 {
			v.errf("Fleet.Resilience.Retry.MaxAttempts", "must be at least 1, have %d", r.Retry.MaxAttempts)
		}
		if t.TimeoutCycles < 0 {
			v.errf("Fleet.Resilience.Retry.TimeoutCycles", "must not be negative, have %g", r.Retry.TimeoutCycles)
		}
		if t.TimeoutP99Mult < 0 {
			v.errf("Fleet.Resilience.Retry.TimeoutP99Mult", "must not be negative, have %g", r.Retry.TimeoutP99Mult)
		}
		if t.BackoffBaseCycles < 0 {
			v.errf("Fleet.Resilience.Retry.BackoffBaseCycles", "must not be negative, have %g", r.Retry.BackoffBaseCycles)
		}
		if t.BackoffMaxCycles < t.BackoffBaseCycles {
			v.errf("Fleet.Resilience.Retry.BackoffMaxCycles", "must be at least BackoffBaseCycles (%g), have %g", t.BackoffBaseCycles, r.Retry.BackoffMaxCycles)
		}
	}
	if h := n.Hedge; h != nil {
		if h.DelayCycles < 0 {
			v.errf("Fleet.Resilience.Hedge.DelayCycles", "must not be negative, have %g", r.Hedge.DelayCycles)
		}
		if h.DelayP99Mult < 0 {
			v.errf("Fleet.Resilience.Hedge.DelayP99Mult", "must not be negative, have %g", r.Hedge.DelayP99Mult)
		}
		if h.MaxHedges < 1 {
			v.errf("Fleet.Resilience.Hedge.MaxHedges", "must be at least 1, have %d", r.Hedge.MaxHedges)
		}
	}
	if b := n.Breaker; b != nil {
		if b.FailThreshold < 1 {
			v.errf("Fleet.Resilience.Breaker.FailThreshold", "must be at least 1, have %d", r.Breaker.FailThreshold)
		}
		if b.OpenCycles < 0 {
			v.errf("Fleet.Resilience.Breaker.OpenCycles", "must not be negative, have %g", r.Breaker.OpenCycles)
		}
		if b.HalfOpenProbes < 1 {
			v.errf("Fleet.Resilience.Breaker.HalfOpenProbes", "must be at least 1, have %d", r.Breaker.HalfOpenProbes)
		}
	}
	if s := n.Shed; s != nil {
		if s.UtilizationHigh <= 0 || s.UtilizationHigh > 1 {
			v.errf("Fleet.Resilience.Shed.UtilizationHigh", "must be in (0, 1], have %g", r.Shed.UtilizationHigh)
		}
		if s.PriorityFloor < 0 {
			v.errf("Fleet.Resilience.Shed.PriorityFloor", "must not be negative, have %d", r.Shed.PriorityFloor)
		}
	}
}
