package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// waitNoLeak polls until the goroutine count returns to near its baseline:
// a finished coroutine's goroutine exits asynchronously.
func waitNoLeak(t *testing.T, before, slack int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+slack {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after Close of all engines",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCloseUnwindsDeferredWait: a process released by Close that parks
// again from a deferred Wait keeps unwinding — the deferred Wait must not
// block, and the process's remaining deferred calls still run.
func TestCloseUnwindsDeferredWait(t *testing.T) {
	e := NewEngine()
	var unwound, resumed bool
	p := e.Go("reparker", func(p *Proc) {
		defer func() { unwound = true }()
		defer func() {
			p.Wait(5)
			resumed = true
		}()
		p.Suspend()
	})
	e.RunUntil(10)
	e.Close()
	if !unwound || resumed || !p.Finished() {
		t.Fatalf("unwound=%v resumed=%v finished=%v, want true false true",
			unwound, resumed, p.Finished())
	}
}

// TestCloseReleasesUnstartedProc: a process whose first resume never ran
// is released without running its body.
func TestCloseReleasesUnstartedProc(t *testing.T) {
	e := NewEngine()
	ran := false
	p := e.Go("unstarted", func(p *Proc) { ran = true })
	e.Close()
	if ran || !p.Finished() {
		t.Fatalf("ran=%v finished=%v, want false true", ran, p.Finished())
	}
}

// TestCloseLeavesNoGoroutine: Close releases parked, unstarted and
// re-parking processes alike, and none keeps a goroutine behind.
func TestCloseLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		e := NewEngine()
		e.Go("parked", func(p *Proc) { p.Suspend() })
		e.Go("waiting", func(p *Proc) { p.Wait(1000) })
		e.Go("reparker", func(p *Proc) {
			defer p.Wait(1)
			p.Suspend()
		})
		e.Go("done", func(p *Proc) {})
		e.RunUntil(10)
		e.Go("unstarted", func(p *Proc) { p.Suspend() })
		e.Close()
	}
	waitNoLeak(t, before, 2)
}

// TestProcPanicNotDoubleWrapped: a *ProcPanic raised inside a process
// passes through the body wrapper as it is.
func TestProcPanicNotDoubleWrapped(t *testing.T) {
	inner := &ProcPanic{Proc: "inner", Value: "boom"}
	e := NewEngine()
	e.Go("outer", func(p *Proc) {
		p.Wait(1)
		panic(inner)
	})
	if v := mustPanic(t, e.Drain); v != inner {
		t.Fatalf("recovered %#v, want the inner *ProcPanic unwrapped", v)
	}
	e.Close()
}

// TestEngineDrivenFromProcessPanics: driving the engine from one of its
// own processes is rejected with the operation and process named, instead
// of hanging (Close) or misreporting a deadlock. The engine stays usable:
// Close afterwards releases everything.
func TestEngineDrivenFromProcessPanics(t *testing.T) {
	ops := []struct {
		name string
		fn   func(e *Engine)
	}{
		{"Close", (*Engine).Close},
		{"Step", func(e *Engine) { e.Step() }},
		{"Drain", (*Engine).Drain},
		{"RunUntil", func(e *Engine) { e.RunUntil(100) }},
	}
	for _, op := range ops {
		t.Run(op.name, func(t *testing.T) {
			e := NewEngine()
			e.Go("bystander", func(p *Proc) { p.Suspend() })
			e.Go("driver", func(p *Proc) {
				p.Wait(3)
				op.fn(p.Engine())
			})
			v := mustPanic(t, e.Drain)
			pp, ok := v.(*ProcPanic)
			if !ok {
				t.Fatalf("recovered %T (%v), want *ProcPanic", v, v)
			}
			want := fmt.Sprintf("sim: %s called from process %q", op.name, "driver")
			if pp.Proc != "driver" || pp.Value != want {
				t.Fatalf("ProcPanic{Proc: %q, Value: %v}, want driver / %s", pp.Proc, pp.Value, want)
			}
			e.Close()
		})
	}
}

// TestProcRoundTripAllocations pins the coroutine handoff at zero
// allocations: one engine -> process -> engine round trip through Wait,
// and one through Suspend/Resume.
func TestProcRoundTripAllocations(t *testing.T) {
	t.Run("Wait", func(t *testing.T) {
		e := NewEngine()
		defer e.Close()
		e.Go("w", func(p *Proc) {
			for {
				p.Wait(1)
			}
		})
		e.Step() // first resume: the process starts and parks
		if got := testing.AllocsPerRun(1000, func() { e.Step() }); got != 0 {
			t.Fatalf("Wait round trip: %v allocs, want 0", got)
		}
	})
	t.Run("SuspendResume", func(t *testing.T) {
		e := NewEngine()
		defer e.Close()
		w := e.Go("s", func(p *Proc) {
			for {
				p.Suspend()
			}
		})
		e.Step()
		if got := testing.AllocsPerRun(1000, func() {
			w.Resume()
			e.Step()
		}); got != 0 {
			t.Fatalf("Suspend/Resume round trip: %v allocs, want 0", got)
		}
	})
}
