package sim

import (
	"reflect"
	"testing"
)

type hop struct{ from, to Cycle }

func TestOnAdvanceFiresOnTimeMoves(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	var hops []hop
	e.OnAdvance(func(from, to Cycle) { hops = append(hops, hop{from, to}) })

	var order []Cycle
	e.At(10, func() { order = append(order, 10) })
	e.At(10, func() { order = append(order, 10) }) // same cycle: no extra hop
	e.At(25, func() {
		order = append(order, 25)
		e.After(0, func() { order = append(order, 25) }) // same cycle: time unchanged
	})
	e.Drain()

	want := []hop{{0, 10}, {10, 25}}
	if !reflect.DeepEqual(hops, want) {
		t.Fatalf("hops = %v, want %v", hops, want)
	}
	if !reflect.DeepEqual(order, []Cycle{10, 10, 25, 25}) {
		t.Fatalf("order = %v", order)
	}
}

// The hook fires before the event at `to` runs, so a sampler at boundary
// B in (from, to] observes exactly the state after all events < B.
func TestOnAdvanceOrdering(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	state := 0
	seen := -1
	e.OnAdvance(func(from, to Cycle) {
		if from < 50 && to >= 50 {
			seen = state // what a boundary at 50 would sample
		}
	})
	e.At(40, func() { state = 40 })
	e.At(60, func() { state = 60 })
	e.Drain()
	if seen != 40 {
		t.Fatalf("hook at boundary 50 saw state %d, want 40 (pre-event at 60)", seen)
	}
}

func TestOnAdvanceRunUntilBump(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	var hops []hop
	e.OnAdvance(func(from, to Cycle) { hops = append(hops, hop{from, to}) })
	e.At(5, func() {})
	e.RunUntil(100)
	want := []hop{{0, 5}, {5, 100}}
	if !reflect.DeepEqual(hops, want) {
		t.Fatalf("hops = %v, want %v", hops, want)
	}
	if e.Now() != 100 {
		t.Fatalf("now = %d, want 100", e.Now())
	}
}

func TestOnAdvanceDoubleInstallPanics(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	e.OnAdvance(func(from, to Cycle) {})
	defer func() {
		if recover() == nil {
			t.Fatal("second OnAdvance did not panic")
		}
	}()
	e.OnAdvance(func(from, to Cycle) {})
}

func TestOnAdvanceUninstall(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	fired := 0
	e.OnAdvance(func(from, to Cycle) { fired++ })
	e.At(3, func() {})
	e.Drain()
	e.OnAdvance(nil)
	e.At(9, func() {})
	e.Drain()
	if fired != 1 {
		t.Fatalf("hook fired %d times, want 1 (uninstalled before second run)", fired)
	}
}
