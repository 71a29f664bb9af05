package conformance

import (
	"testing"

	"mcsquare/internal/dram"
	"mcsquare/internal/memctrl"
	"mcsquare/internal/memdata"
	"mcsquare/internal/sim"
)

// mcRig is a bare controller over one channel: no caches, no cores, so the
// controller's queueing and drain policy are the only things between the
// test and the closed-form channel math.
type mcRig struct {
	eng *sim.Engine
	mc  *memctrl.Controller
	cfg dram.Config
	mcc memctrl.Config
}

func newMCRig() *mcRig {
	eng := sim.NewEngine()
	cfg := dram.DDR4Config()
	mcc := memctrl.DefaultConfig()
	ch := dram.NewChannel(cfg)
	phys := memdata.NewPhysical(1 << 24)
	return &mcRig{
		eng: eng,
		mc:  memctrl.New(0, eng, mcc, ch, phys),
		cfg: cfg,
		mcc: mcc,
	}
}

// readDoneAt schedules a raw read at cycle `at` and returns a pointer that
// holds the completion cycle after eng.Drain().
func (r *mcRig) readDoneAt(at sim.Cycle, a memdata.Addr) *sim.Cycle {
	done := new(sim.Cycle)
	r.eng.At(at, func() {
		r.mc.RawReadLine(a, 0, func([]byte) { *done = r.eng.Now() })
	})
	return done
}

// TestControllerOracles drives directed traffic through memctrl and checks
// completion cycles against expectations composed from the channel closed
// forms plus the controller's AcceptLatency. Derivations in DESIGN.md §13.
func TestControllerOracles(t *testing.T) {
	var checks []Check
	line := memdata.Addr(memdata.LineSize)

	// Cold read on an idle controller: the demand-read path charges no
	// front-end latency — completion is exactly the channel's cold access.
	{
		r := newMCRig()
		done := r.readDoneAt(0, 0)
		r.eng.Drain()
		checks = append(checks, exactCycles("mc_cold_read",
			r.cfg.TRCD+r.cfg.TCAS+r.cfg.TBL, *done))
	}

	// Dependent row-hit read: issued the cycle the previous read completes,
	// next line of the same row.
	{
		r := newMCRig()
		done := new(sim.Cycle)
		r.eng.At(0, func() {
			r.mc.RawReadLine(0, 0, func([]byte) {
				first := r.eng.Now()
				r.mc.RawReadLine(line, 0, func([]byte) { *done = r.eng.Now() - first })
			})
		})
		r.eng.Drain()
		checks = append(checks, exactCycles("mc_dependent_hit_read",
			r.cfg.TCAS+r.cfg.TBL, *done))
	}

	// WPQ forwarding: a read of a line whose write is still buffered (or in
	// flight) is serviced from the queue in one AcceptLatency.
	{
		r := newMCRig()
		buf := make([]byte, memdata.LineSize)
		r.eng.At(0, func() { r.mc.RawWriteLine(0, buf, 0, func() {}) })
		issue := sim.Cycle(2) // before the posted write lands
		done := r.readDoneAt(issue, 0)
		r.eng.Drain()
		checks = append(checks, exactCycles("mc_wpq_forward",
			r.mcc.AcceptLatency, *done-issue))
	}

	// Write→read turnaround through the controller: the posted write drains
	// opportunistically at cycle 0 (no reads pending), finishing at the
	// channel's cold-access time; a read of the same line issued after it
	// lands waits out write recovery.
	{
		r := newMCRig()
		buf := make([]byte, memdata.LineSize)
		r.eng.At(0, func() { r.mc.RawWriteLine(0, buf, 0, func() {}) })
		doneW := r.cfg.TRCD + r.cfg.TCAS + r.cfg.TBL
		done := r.readDoneAt(doneW+8, 0) // 8 > 0 cycles past landing: not forwarded
		r.eng.Drain()
		checks = append(checks, exactCycles("mc_write_read_turnaround",
			doneW+r.cfg.TWR+r.cfg.TCAS+r.cfg.TBL, *done))
	}

	// Bank-level parallelism: N reads to N distinct banks posted in the same
	// cycle overlap their activates; only the bursts serialize, so the last
	// completes at tRCD+tCAS+N·tBL.
	{
		r := newMCRig()
		const n = 8
		rows := distinctBankRows(r.cfg, n)
		var last sim.Cycle
		r.eng.At(0, func() {
			for _, rid := range rows {
				r.mc.RawReadLine(rowAddr(r.cfg, rid), 0, func([]byte) { last = r.eng.Now() })
			}
		})
		r.eng.Drain()
		checks = append(checks, exactCycles("mc_blp_08reads_last_done",
			r.cfg.TRCD+r.cfg.TCAS+sim.Cycle(n)*r.cfg.TBL, last))
	}

	// Same-bank contention: N same-row reads posted in the same cycle
	// serialize at the column interval — the channel hit-stream law seen
	// through the controller unchanged.
	{
		r := newMCRig()
		const n = 8
		var last sim.Cycle
		r.eng.At(0, func() {
			for i := 0; i < n; i++ {
				r.mc.RawReadLine(memdata.Addr(i)*line, 0, func([]byte) { last = r.eng.Now() })
			}
		})
		r.eng.Drain()
		checks = append(checks, exactCycles("mc_samebank_08reads_last_done",
			r.cfg.TRCD+r.cfg.TCAS+r.cfg.TBL+(n-1)*max(r.cfg.TCCD+r.cfg.TCAS, r.cfg.TBL), last))
	}

	record(checks...)
	for _, c := range checks {
		if !c.Pass {
			t.Errorf("%s: expected %v %s, measured %v",
				c.Name, c.Expected, c.Unit, c.Measured)
		} else {
			t.Logf("%s: %v %s", c.Name, c.Measured, c.Unit)
		}
	}
}

// TestControllerDrainKeepsForwarding pins the posted-write contract the
// turnaround oracle depends on: a write is forwardable from acceptance
// until it lands, and never afterwards returns stale data.
func TestControllerDrainKeepsForwarding(t *testing.T) {
	r := newMCRig()
	buf := make([]byte, memdata.LineSize)
	for i := range buf {
		buf[i] = 0xA5
	}
	r.eng.At(0, func() { r.mc.RawWriteLine(0, buf, 0, func() {}) })

	forwarded := r.readDoneAt(1, 0) // in flight: forwarded
	var late []byte
	r.eng.At(500, func() { // long after landing: from the array
		r.mc.RawReadLine(0, 0, func(d []byte) { late = d })
	})
	r.eng.Drain()

	if got := *forwarded - 1; got != r.mcc.AcceptLatency {
		t.Errorf("in-flight read latency %d, want AcceptLatency %d", got, r.mcc.AcceptLatency)
	}
	for i, b := range late {
		if b != 0xA5 {
			t.Fatalf("byte %d after landing = %#x, want 0xA5", i, b)
		}
	}
	if !r.mc.Quiesce() {
		t.Error("controller not quiescent after drain")
	}
}
