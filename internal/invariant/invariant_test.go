package invariant

import (
	"bytes"
	"strings"
	"testing"

	"mcsquare/internal/memdata"
	"mcsquare/internal/sim"
)

const line = memdata.LineSize

func newTestOracles(t *testing.T, cfg Config) (Set, *Oracles, *sim.Engine) {
	t.Helper()
	eng := sim.NewEngine()
	o := New(cfg, eng, nil)
	if o == nil {
		t.Fatalf("config %+v built no oracles", cfg)
	}
	return Set{o}, o, eng
}

func lineOf(fill byte) []byte { return bytes.Repeat([]byte{fill}, line) }

// TestShadowReadMatch: an observed write then a matching read counts as a
// performed check with no violation.
func TestShadowReadMatch(t *testing.T) {
	c, o, _ := newTestOracles(t, Config{Shadow: true})
	o.ObserveWrite(0x1000, lineOf(0xAA))
	o.CheckRead(0x1000, lineOf(0xAA), 1)
	if checks, _, _ := o.Checks(); checks != 1 {
		t.Fatalf("checks = %d, want 1", checks)
	}
	if c.TotalViolations() != 0 {
		t.Fatalf("violations: %v", c.Violations())
	}
}

// TestShadowReadMismatch: a mismatching read whose value was bound after
// the last shadow update is a recorded integrity violation.
func TestShadowReadMismatch(t *testing.T) {
	c, o, _ := newTestOracles(t, Config{Shadow: true})
	o.ObserveWrite(0x1000, lineOf(0xAA)) // upd = 0
	o.CheckRead(0x1000, lineOf(0xBB), 5) // bound 5 > upd 0: real divergence
	if c.TotalViolations() != 1 {
		t.Fatalf("violations = %d, want 1", c.TotalViolations())
	}
	v := c.Violations()[0]
	if v.Kind != KindIntegrity || v.Addr != 0x1000 {
		t.Fatalf("violation = %+v", v)
	}
}

// TestShadowRacyMismatchSkipped: a mismatch on a line the shadow updated
// at-or-after the binding cycle is racy — a legal concurrent write — and
// must be skipped, not flagged.
func TestShadowRacyMismatchSkipped(t *testing.T) {
	c, o, eng := newTestOracles(t, Config{Shadow: true})
	eng.Go("w", func(p *sim.Proc) { p.Wait(10) })
	eng.Drain()                          // advance to cycle 10
	o.ObserveWrite(0x1000, lineOf(0xAA)) // upd = 10
	o.CheckRead(0x1000, lineOf(0xBB), 3) // bound 3 <= upd 10: racy
	if c.TotalViolations() != 0 {
		t.Fatalf("racy mismatch flagged: %v", c.Violations())
	}
	if _, skips, _ := o.Checks(); skips != 1 {
		t.Fatalf("skips = %d, want 1", skips)
	}
	eng.Close()
}

// TestShadowAdoptUnknown: the first read of a never-observed line adopts
// the simulator's value; a later divergent read then flags.
func TestShadowAdoptUnknown(t *testing.T) {
	c, o, _ := newTestOracles(t, Config{Shadow: true})
	o.CheckRead(0x2000, lineOf(0x11), 1)
	if _, _, adopted := o.Checks(); adopted != 1 {
		t.Fatalf("adopted = %d, want 1", adopted)
	}
	o.CheckRead(0x2000, lineOf(0x22), 5)
	if c.TotalViolations() != 1 {
		t.Fatal("post-adoption divergence not flagged")
	}
}

// TestShadowFreeUndefines: after ObserveFree, reads of the line are
// exempt (contents undefined) until a write redefines it.
func TestShadowFreeUndefines(t *testing.T) {
	c, o, _ := newTestOracles(t, Config{Shadow: true})
	o.ObserveWrite(0x1000, lineOf(0xAA))
	o.ObserveFree(memdata.Range{Start: 0x1000, Size: line})
	o.CheckRead(0x1000, lineOf(0x77), 5) // undefined: anything goes
	if c.TotalViolations() != 0 {
		t.Fatalf("freed line flagged: %v", c.Violations())
	}
	o.ObserveWrite(0x1000, lineOf(0xCC)) // redefines
	o.CheckRead(0x1000, lineOf(0x77), 9)
	if c.TotalViolations() != 1 {
		t.Fatal("redefined line divergence not flagged")
	}
}

// TestShadowTransitionalSkipped: between BeginInternalWrite and
// EndInternalWrite the line's visible value is ambiguous and comparisons
// are skipped; after End they resume (with upd refreshed to now, so the
// first post-End comparison at an older bound is racy-skipped).
func TestShadowTransitionalSkipped(t *testing.T) {
	c, o, _ := newTestOracles(t, Config{Shadow: true})
	o.ObserveWrite(0x1000, lineOf(0xAA))
	o.BeginInternalWrite(0x1000)
	o.CheckRead(0x1000, lineOf(0x55), 5)
	if c.TotalViolations() != 0 {
		t.Fatalf("transitional line flagged: %v", c.Violations())
	}
	o.EndInternalWrite(0x1000)
	o.CheckRead(0x1000, lineOf(0x55), 5)
	if c.TotalViolations() != 1 {
		t.Fatal("post-transition divergence not flagged")
	}
}

// TestShadowCopyPropagates: ObserveCopy replays the copy eagerly —
// byte-granular, with unknown/undefined source state propagating to the
// destination instead of inventing data.
func TestShadowCopyPropagates(t *testing.T) {
	c, o, _ := newTestOracles(t, Config{Shadow: true})
	o.ObserveWrite(0x1000, lineOf(0xAB))
	o.ObserveCopy(memdata.Range{Start: 0x4000, Size: line}, 0x1000)
	o.CheckRead(0x4000, lineOf(0xAB), 1)
	if c.TotalViolations() != 0 {
		t.Fatalf("copied line mismatch: %v", c.Violations())
	}
	// Copy from a never-observed source: dest becomes unknown, adopted on
	// first read rather than compared.
	o.ObserveCopy(memdata.Range{Start: 0x5000, Size: line}, 0x2000)
	o.CheckRead(0x5000, lineOf(0x42), 2)
	if c.TotalViolations() != 0 {
		t.Fatal("unknown-source copy compared instead of adopted")
	}
	// Copy from a freed source: dest becomes undefined.
	o.ObserveFree(memdata.Range{Start: 0x1000, Size: line})
	o.ObserveCopy(memdata.Range{Start: 0x6000, Size: line}, 0x1000)
	o.CheckRead(0x6000, lineOf(0x99), 3)
	if c.TotalViolations() != 0 {
		t.Fatal("undefined-source copy compared")
	}
}

// TestShadowCopyMisaligned: a misaligned, sub-line copy merges source
// bytes into the destination's prior bytes.
func TestShadowCopyMisaligned(t *testing.T) {
	c, o, _ := newTestOracles(t, Config{Shadow: true})
	o.ObserveWrite(0x1000, lineOf(0xAA)) // src line
	o.ObserveWrite(0x4000, lineOf(0xBB)) // dst line prior value
	// Copy 8 bytes from mid-src-line to mid-dst-line.
	o.ObserveCopy(memdata.Range{Start: 0x4010, Size: 8}, 0x1005)
	want := lineOf(0xBB)
	copy(want[0x10:0x18], lineOf(0xAA))
	o.CheckRead(0x4000, want, 1)
	if c.TotalViolations() != 0 {
		t.Fatalf("misaligned copy composed wrong: %v", c.Violations())
	}
}

// TestCheckFreeLine: the MCFREE-time comparison flags divergence on known
// lines and skips unknown ones.
func TestCheckFreeLine(t *testing.T) {
	c, o, _ := newTestOracles(t, Config{Shadow: true})
	o.CheckFreeLine(0x3000, lineOf(0x11)) // unknown: skipped
	if _, skips, _ := o.Checks(); skips != 1 {
		t.Fatalf("skips = %d, want 1", skips)
	}
	o.ObserveWrite(0x3000, lineOf(0x11))
	o.CheckFreeLine(0x3000, lineOf(0x11))
	if c.TotalViolations() != 0 {
		t.Fatal("matching free-time value flagged")
	}
	o.CheckFreeLine(0x3000, lineOf(0x22))
	if c.TotalViolations() != 1 {
		t.Fatal("diverging free-time value not flagged")
	}
}

// TestQueueInvariants: occupancy outside [0, capacity] and negative
// refcounts are flagged; legal values are not.
func TestQueueInvariants(t *testing.T) {
	c, o, _ := newTestOracles(t, Config{Queues: true})
	o.CheckQueue("rpq", 0, 4)
	o.CheckQueue("rpq", 4, 4)
	o.CheckRefcount("workers", 0)
	if c.TotalViolations() != 0 {
		t.Fatalf("legal occupancy flagged: %v", c.Violations())
	}
	o.CheckQueue("rpq", 5, 4)
	o.CheckQueue("rpq", -1, 4)
	o.CheckRefcount("workers", -1)
	if c.TotalViolations() != 3 {
		t.Fatalf("violations = %d, want 3", c.TotalViolations())
	}
	for _, v := range c.Violations() {
		if v.Kind != KindQueue {
			t.Fatalf("violation kind = %s, want %s", v.Kind, KindQueue)
		}
	}
}

// TestWatchdogTrips: a transaction left in flight past the budget panics
// with *WatchdogTrip out of the engine and records a liveness violation.
func TestWatchdogTrips(t *testing.T) {
	c, o, eng := newTestOracles(t, Config{Watchdog: true, WatchdogBudget: 1000})
	o.TxBegin(0xABC) // never ended
	eng.Go("spin", func(p *sim.Proc) { p.Wait(100000) })
	var trip *WatchdogTrip
	func() {
		defer func() {
			tr, ok := recover().(*WatchdogTrip)
			if !ok {
				t.Fatal("watchdog did not trip")
			}
			trip = tr
		}()
		eng.Drain()
	}()
	if trip.Addr != 0xABC || trip.Budget != 1000 || trip.Age <= 1000 {
		t.Fatalf("trip = %+v", trip)
	}
	if c.TotalViolations() != 1 || c.Violations()[0].Kind != KindLiveness {
		t.Fatalf("violations: %v", c.Violations())
	}
	eng.Close()
}

// TestWatchdogRetiredTxDisarms: ending every transaction lets the sweep
// disarm and the engine drain normally — no spurious trips, no wedged
// events.
func TestWatchdogRetiredTxDisarms(t *testing.T) {
	c, o, eng := newTestOracles(t, Config{Watchdog: true, WatchdogBudget: 1000})
	id := o.TxBegin(0x100)
	eng.Go("work", func(p *sim.Proc) {
		p.Wait(10)
		o.TxEnd(id)
		p.Wait(100000) // well past the budget, with nothing in flight
	})
	eng.Drain()
	if c.TotalViolations() != 0 {
		t.Fatalf("violations: %v", c.Violations())
	}
	eng.Close()
}

// TestNilOracles: every method is nil-safe — the disabled hot path.
func TestNilOracles(t *testing.T) {
	var o *Oracles
	if o.ShadowOn() || o.WatchdogOn() || o.QueuesOn() {
		t.Fatal("nil oracles report enabled")
	}
	o.ObserveWrite(0, nil)
	o.ObserveInit(0, nil)
	o.ObserveCopy(memdata.Range{}, 0)
	o.ObserveFree(memdata.Range{})
	o.BeginInternalWrite(0)
	o.EndInternalWrite(0)
	o.CheckRead(0, nil, 0)
	o.CheckFreeLine(0, nil)
	o.CheckQueue("q", -5, 0)
	o.CheckRefcount("r", -5)
	o.TxEnd(o.TxBegin(0))
	if o.TotalViolations() != 0 || o.Violations() != nil {
		t.Fatal("nil oracles recorded state")
	}
}

// TestCollectorReport: violations collected across machines aggregate in
// deterministic order and render through Set.Report.
func TestCollectorReport(t *testing.T) {
	eng := sim.NewEngine()
	if New(Config{}, eng, nil) != nil {
		t.Fatal("empty config built oracles")
	}
	o1 := New(All(), eng, nil)
	o2 := New(All(), eng, nil)
	c := Set{o1, nil, o2}
	o2.CheckQueue("b", 9, 4)
	o1.CheckQueue("a", 9, 4)
	if c.TotalViolations() != 2 {
		t.Fatalf("TotalViolations = %d", c.TotalViolations())
	}
	vs := c.Violations()
	if vs[0].What >= vs[1].What {
		t.Fatalf("violations not deterministically ordered: %v", vs)
	}
	var sb strings.Builder
	c.Report(&sb)
	if !strings.Contains(sb.String(), "2 violation(s)") {
		t.Fatalf("report: %s", sb.String())
	}
	eng.Close()
}
