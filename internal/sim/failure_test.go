package sim

import (
	"errors"
	"testing"
)

// mustPanic runs fn and returns the recovered panic value, failing the
// test when fn returns normally.
func mustPanic(t *testing.T, fn func()) (v any) {
	t.Helper()
	defer func() { v = recover() }()
	fn()
	t.Fatal("expected panic")
	return nil
}

// TestProcPanicCapture: a panic inside a simulated process surfaces
// engine-side as *ProcPanic carrying the process name, the original value,
// and the process goroutine's stack — not as a bare value with the
// engine's own stack.
func TestProcPanicCapture(t *testing.T) {
	eng := NewEngine()
	eng.Go("exploder", func(p *Proc) {
		p.Wait(10)
		panic("boom")
	})
	v := mustPanic(t, eng.Drain)
	pp, ok := v.(*ProcPanic)
	if !ok {
		t.Fatalf("recovered %T, want *ProcPanic", v)
	}
	if pp.Proc != "exploder" || pp.Value != "boom" {
		t.Fatalf("ProcPanic = %+v", pp)
	}
	if len(pp.Stack) == 0 {
		t.Fatal("ProcPanic carries no stack")
	}
	eng.Close()
}

// TestProcPanicWrapsError: an error panic value stays reachable through
// errors.As on the wrapper.
func TestProcPanicWrapsError(t *testing.T) {
	sentinel := errors.New("sentinel")
	eng := NewEngine()
	eng.Go("exploder", func(p *Proc) { panic(sentinel) })
	v := mustPanic(t, eng.Drain)
	pp, ok := v.(*ProcPanic)
	if !ok {
		t.Fatalf("recovered %T, want *ProcPanic", v)
	}
	if !errors.Is(pp, sentinel) {
		t.Fatalf("errors.Is failed to reach the wrapped value: %v", pp)
	}
	eng.Close()
}

// TestCycleLimit: once simulated time passes the budget, Step panics with
// *CycleLimitError — the livelock backstop.
func TestCycleLimit(t *testing.T) {
	eng := NewEngine()
	eng.SetCycleLimit(100)
	eng.Go("spinner", func(p *Proc) {
		for {
			p.Wait(60)
		}
	})
	v := mustPanic(t, eng.Drain)
	cle, ok := v.(*CycleLimitError)
	if !ok {
		t.Fatalf("recovered %T, want *CycleLimitError", v)
	}
	if cle.Limit != 100 || cle.Now <= 100 {
		t.Fatalf("CycleLimitError = %+v", cle)
	}
	eng.Close()
}

// TestCycleLimitNotTripped: a budget above the run's length never fires.
func TestCycleLimitNotTripped(t *testing.T) {
	eng := NewEngine()
	eng.SetCycleLimit(1000)
	eng.Go("ok", func(p *Proc) { p.Wait(500) })
	eng.Drain()
	if eng.Now() != 500 {
		t.Fatalf("Now = %d, want 500", eng.Now())
	}
	eng.Close()
}
