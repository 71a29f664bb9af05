// Package interconnect models the link between the cache hierarchy and the
// memory controllers (the paper's Fig 1): a point-to-point latency per hop
// plus an optional shared-bandwidth constraint, and the broadcast facility
// MCLAZY packets and CTT updates use (§III-B1 step 3).
//
// With BytesPerCycle = 0 (the default) the link is latency-only, matching
// the fixed-hop model the rest of the simulator was calibrated with. A
// finite bandwidth serializes transfers, which the channel-scaling study
// uses to show interconnect saturation.
package interconnect

import (
	"mcsquare/internal/faultinject"
	"mcsquare/internal/sim"
	"mcsquare/internal/txtrace"
)

// Config shapes one link direction.
type Config struct {
	// HopLatency is charged to every message.
	HopLatency sim.Cycle
	// BytesPerCycle caps throughput; 0 means unconstrained.
	BytesPerCycle float64
}

// Stats counts link activity.
type Stats struct {
	Messages   uint64
	Bytes      uint64
	Broadcasts uint64
	// QueueCycles accumulates time messages waited for bandwidth.
	QueueCycles uint64
	Retries     uint64 // retransmissions after injected packet drops
	DupPackets  uint64 // injected duplicate packets (receiver discards)
}

// maxSendRetries bounds the retransmission backoff loop; the final
// attempt always delivers, so an injected drop burst degrades latency but
// never loses a message.
const maxSendRetries = 4

// Bus is one shared link. All methods run in engine (event) context.
type Bus struct {
	eng  *sim.Engine
	cfg  Config
	busy sim.Cycle // cycle until which the link is transmitting
	tr   *txtrace.Tracer
	flt  *faultinject.Plane

	Stats Stats
}

// New creates a bus.
func New(eng *sim.Engine, cfg Config) *Bus {
	return &Bus{eng: eng, cfg: cfg}
}

// Config returns the link configuration.
func (b *Bus) Config() Config { return b.cfg }

// SetTracer attaches the transaction tracer (nil disables).
func (b *Bus) SetTracer(t *txtrace.Tracer) { b.tr = t }

// SetFaults attaches the machine's fault-injection plane (nil disables).
func (b *Bus) SetFaults(p *faultinject.Plane) { b.flt = p }

// Send delivers a message of the given size: fn runs after the hop latency
// plus any bandwidth-induced queueing.
//
// tx is the transaction-trace id (0 when untraced): traced messages record
// one xcon.hop span covering latency plus queueing.
func (b *Bus) Send(bytes uint64, tx txtrace.Tx, fn func()) {
	b.Stats.Messages++
	b.Stats.Bytes += bytes
	delay := b.transferDelay(bytes)
	if b.flt != nil {
		delay += b.faultDelay(bytes)
	}
	if tx != 0 {
		now := b.eng.Now()
		b.tr.Complete(tx, txtrace.StageXConHop, 0, uint64(now), uint64(now+delay), 0)
	}
	b.eng.After(delay, fn)
}

// transferDelay charges one transmission of the given size: hop latency
// plus any bandwidth-induced queueing (advancing the link's busy horizon).
func (b *Bus) transferDelay(bytes uint64) sim.Cycle {
	delay := b.cfg.HopLatency
	if b.cfg.BytesPerCycle > 0 {
		now := b.eng.Now()
		start := max(now, b.busy)
		xfer := sim.Cycle(float64(bytes) / b.cfg.BytesPerCycle)
		if xfer == 0 {
			xfer = 1
		}
		b.busy = start + xfer
		queued := (start - now) + xfer
		b.Stats.QueueCycles += uint64(start - now)
		delay += queued
	}
	return delay
}

// faultDelay models injected packet loss and duplication. A duplicated
// packet charges message count and bandwidth twice (the receiver discards
// the copy, so delivery timing is unchanged). A dropped packet is
// retransmitted after the schedule's timeout window with doubling backoff;
// every retransmission occupies the link again, attempts are bounded, and
// the final one always delivers — degraded latency, never a lost message.
func (b *Bus) faultDelay(bytes uint64) sim.Cycle {
	var extra sim.Cycle
	now := uint64(b.eng.Now())
	if b.flt.Fire(faultinject.KindXConDup, bytes, now) {
		b.Stats.DupPackets++
		b.Stats.Messages++
		b.Stats.Bytes += bytes
		b.transferDelay(bytes)
	}
	if w := b.flt.FireWindow(faultinject.KindXConDelay, bytes, now); w != 0 {
		backoff := sim.Cycle(w)
		for attempt := 1; ; attempt++ {
			b.Stats.Retries++
			extra += backoff + b.transferDelay(bytes)
			if attempt >= maxSendRetries ||
				b.flt.FireWindow(faultinject.KindXConDelay, bytes, now) == 0 {
				break
			}
			backoff *= 2
		}
	}
	return extra
}

// Broadcast delivers a control message to the memory controllers (the
// MCLAZY/MCFREE broadcast, Fig 6 step 3): one hop, counted once as a
// 16-byte message (one CTT entry). The controllers share one logical CTT,
// so every controller inserting the same entry is one insert: fn runs
// once, after the hop latency.
func (b *Bus) Broadcast(fn func()) {
	b.Stats.Broadcasts++
	b.Stats.Messages++
	b.Stats.Bytes += 16
	b.eng.After(b.cfg.HopLatency, fn)
}
