package main

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestChargeLayer(t *testing.T) {
	cases := []struct {
		name   string
		frames []string // leaf first
		want   string
	}{
		{"innermost package wins", []string{
			"mcsquare/internal/cache.(*Hierarchy).lookup",
			"mcsquare/internal/cpu.(*Core).Load",
			"mcsquare/internal/sim.(*Engine).Step",
		}, "cache"},
		{"std frames above a package stay with it", []string{
			"sort.Search",
			"mcsquare/internal/core.(*CTT).DestCover",
			"mcsquare/internal/memctrl.(*Controller).read",
		}, "core"},
		{"allocation charged to go_alloc", []string{
			"runtime.memclrNoHeapPointers",
			"runtime.mallocgcLarge",
			"runtime.makeslice",
			"mcsquare/internal/memdata.NewPhysical",
			"mcsquare/internal/machine.New",
		}, "go_alloc"},
		{"assist inside an allocation charged to go_gc", []string{
			"runtime.scanobject",
			"runtime.gcAssistAlloc",
			"runtime.mallocgc",
			"mcsquare/internal/cache.New",
		}, "go_gc"},
		{"channel handoff charged to go_sched", []string{
			"runtime.futex",
			"runtime.chansend1",
			"mcsquare/internal/sim.(*Proc).park",
		}, "go_sched"},
		{"unlisted package is other", []string{
			"mcsquare/internal/workloads/mvcc.Run.func1",
			"mcsquare/internal/machine.(*Machine).Run",
		}, "other"},
		{"background mark worker", []string{
			"runtime.scanobject",
			"runtime.gcDrain",
			"runtime.gcBgMarkWorker.func2",
			"runtime.systemstack",
		}, "go_gc"},
		{"idle scheduler", []string{"runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, "go_sched"},
		{"unknown runtime work", []string{"runtime.memmove", "runtime.goexit"}, "go_other"},
	}
	for _, c := range cases {
		if got := chargeLayer(c.frames); got != c.want {
			t.Errorf("%s: charged to %q, want %q", c.name, got, c.want)
		}
	}
}

func TestAttributePhases(t *testing.T) {
	stacks := []stack{
		{count: 3, frames: []string{"runtime.memclrNoHeapPointers", "runtime.mallocgc",
			"mcsquare/internal/memdata.NewPhysical", "mcsquare/internal/machine.New",
			"mcsquare/internal/workloads/protobuf.NewMachineFrom", "mcsquare/internal/fleet.(*Fleet).serviceRun",
			"mcsquare/internal/fleet.(*Fleet).Calibrate"}},
		{count: 5, frames: []string{"mcsquare/internal/cache.(*Hierarchy).Read",
			"mcsquare/internal/cpu.(*Core).Load", "mcsquare/internal/sim.(*Engine).Go.func1"}},
		{count: 2, frames: []string{"mcsquare/internal/fleet.(*fleetSim).dispatch",
			"mcsquare/internal/fleet.(*Fleet).Simulate"}},
		{count: 1, frames: []string{"mcsquare/internal/stats.(*Table).AppendRows", "main.mergeFigures"}},
		{count: 4, frames: []string{"runtime.gcBgMarkWorker"}},
	}
	got := attribute(stacks)
	want := map[string]int64{
		"total":          15,
		"layer.go_alloc": 3, "layer.cache": 5, "layer.fleet": 2, "layer.stats": 1, "layer.go_gc": 4,
		"phase.build": 3, "phase.calibrate": 3, "phase.simulate": 5, "phase.queue": 2, "phase.collect": 1,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %d, want %d", k, got[k], v)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("unexpected key %s = %d", k, got[k])
		}
	}
}

func TestGlobMatch(t *testing.T) {
	for _, c := range []struct {
		p, s string
		want bool
	}{
		{"runtime.gc*", "runtime.gcDrain", true},
		{"runtime.gc*", "runtime.growslice", false},
		{"mcsquare/internal/workloads/*.NewMachineFrom", "mcsquare/internal/workloads/mvcc.NewMachineFrom", true},
		{"mcsquare/internal/workloads/*.NewMachineFrom", "mcsquare/internal/workloads/mvcc.Run", false},
		{"runtime.gopark", "runtime.goparkunlock", false},
	} {
		if got := globMatch(c.p, c.s); got != c.want {
			t.Errorf("globMatch(%q, %q) = %v, want %v", c.p, c.s, got, c.want)
		}
	}
}

//go:noinline
func spinForProfile(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; n++ {
	}
	return n
}

// TestParseProfile decodes a real CPU profile of this process and expects
// the spinning function among its stacks.
func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	spinForProfile(500 * time.Millisecond)
	pprof.StopCPUProfile()
	stacks, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, spinning int64
	for _, s := range stacks {
		total += s.count
		for _, fn := range s.frames {
			if strings.HasSuffix(fn, ".spinForProfile") {
				spinning += s.count
				break
			}
		}
	}
	if total == 0 || spinning*2 < total {
		t.Fatalf("%d of %d samples in spinForProfile, want most", spinning, total)
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Fatal("parsed garbage without error")
	}
}
