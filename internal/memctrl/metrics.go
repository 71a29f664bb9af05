package memctrl

import "mcsquare/internal/metrics"

// PublishMetrics registers the controller's counters under the given
// scope (the machine uses "mc<ID>"). The Stats struct stays the storage;
// the registry only holds views.
func (c *Controller) PublishMetrics(s metrics.Scope) {
	s.Counter("reads", &c.Stats.Reads)
	s.Counter("writes", &c.Stats.Writes)
	s.Counter("read_stalls", &c.Stats.ReadStalls)
	s.Counter("write_stalls", &c.Stats.WriteStalls)
	s.Counter("forwards", &c.Stats.Forwards)
	s.Counter("ecc_retries", &c.Stats.ECCRetries)
	s.Gauge("wpq_occupancy", c.WPQOccupancy)
}
