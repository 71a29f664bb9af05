package timeline

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"mcsquare/internal/metrics"
	"mcsquare/internal/sim"
)

// testRig builds an engine + registry pair with one owned counter and one
// gauge tracking a variable the test mutates from events.
type testRig struct {
	eng   *sim.Engine
	reg   *metrics.Registry
	ops   uint64
	depth float64
}

func newRig(t *testing.T) *testRig {
	t.Helper()
	rig := &testRig{eng: sim.NewEngine(), reg: metrics.NewRegistry()}
	t.Cleanup(rig.eng.Close)
	rig.reg.Counter("test.ops", &rig.ops)
	rig.reg.Gauge("test.depth", func() float64 { return rig.depth })
	rig.reg.CounterFunc("sim.cycles", func() uint64 { return uint64(rig.eng.Now()) })
	return rig
}

func TestRecorderWindows(t *testing.T) {
	rig := newRig(t)
	rec := NewRecorder(Config{Enabled: true, WindowCycles: 100}, rig.reg, rig.eng)

	// 3 ops in window 0, 1 in window 1, none in window 2, 2 in the partial.
	for _, c := range []sim.Cycle{10, 50, 99} {
		rig.eng.At(c, func() { rig.ops++; rig.depth += 1 })
	}
	rig.eng.At(150, func() { rig.ops++ })
	rig.eng.At(320, func() { rig.ops += 2; rig.depth = 7 })
	rig.eng.RunUntil(350)
	rec.Finalize()

	wins := rec.Windows()
	if len(wins) != 4 {
		t.Fatalf("got %d windows, want 4: %+v", len(wins), wins)
	}
	wantOps := []uint64{3, 1, 0, 2}
	wantEnd := []sim.Cycle{100, 200, 300, 350}
	var cyc uint64
	for i, w := range wins {
		if w.Index != i || w.End != wantEnd[i] {
			t.Errorf("window %d: index=%d end=%d, want index=%d end=%d", i, w.Index, w.End, i, wantEnd[i])
		}
		if got := w.Sample.Counter("test.ops"); got != wantOps[i] {
			t.Errorf("window %d: ops delta = %d, want %d", i, got, wantOps[i])
		}
		cyc += w.Sample.Counter("sim.cycles")
	}
	// A clock-reading CounterFunc observes the advance target at sample
	// time, so per-window cycle deltas are lumpy — but they must total the
	// run length (windows Start/End carry the exact per-window timebase).
	if cyc != 350 {
		t.Errorf("sim.cycles deltas total %d, want 350", cyc)
	}
	if g := wins[3].Sample.Gauge("test.depth"); g != 7 {
		t.Errorf("partial window gauge = %v, want 7", g)
	}
	// Gauge in window 0 reads the value at the end boundary (3 after the
	// three events), not a delta.
	if g := wins[0].Sample.Gauge("test.depth"); g != 3 {
		t.Errorf("window 0 gauge = %v, want 3", g)
	}
}

func TestFinalizeIdempotentAndEmptyTail(t *testing.T) {
	rig := newRig(t)
	rec := NewRecorder(Config{Enabled: true, WindowCycles: 50}, rig.reg, rig.eng)
	rig.eng.At(10, func() { rig.ops++ })
	rig.eng.RunUntil(50) // exactly one boundary, no partial tail
	rec.Finalize()
	rec.Finalize()
	if n := len(rec.Windows()); n != 1 {
		t.Fatalf("got %d windows, want 1 (no empty tail, no double-finalize)", n)
	}
}

// TestDisabledCollectorIsNil: a disabled config yields the nil recorder,
// and the nil recorder is inert.
func TestDisabledCollectorIsNil(t *testing.T) {
	if NewRecorder(Config{}, nil, nil) != nil {
		t.Fatal("disabled config must yield a nil recorder")
	}
	var r *Recorder
	r.Finalize()
	if r.Windows() != nil {
		t.Fatal("nil recorder must report no windows")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() string {
		eng := sim.NewEngine()
		defer eng.Close()
		reg := metrics.NewRegistry()
		var ops uint64
		reg.Counter("test.ops", &ops)
		rec := NewRecorder(Config{Enabled: true, WindowCycles: 64}, reg, eng)
		var step func()
		step = func() {
			ops++
			if eng.Now() < 1000 {
				eng.After(17, step)
			}
		}
		eng.After(0, step)
		eng.Drain()
		rec.Finalize()
		var buf bytes.Buffer
		if err := WriteCSV(&buf, []*Recorder{rec}); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("CSV differs across identical runs:\n%s\n---\n%s", a, b)
	}
	if !strings.Contains(a, "test.ops") {
		t.Fatalf("CSV missing metric rows:\n%s", a)
	}
}

func TestWriteJSONShape(t *testing.T) {
	rig := newRig(t)
	rec := NewRecorder(Config{Enabled: true, WindowCycles: 100}, rig.reg, rig.eng)
	rig.eng.At(42, func() { rig.ops++ })
	rig.eng.RunUntil(250)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, []*Recorder{rec}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		WindowCycles uint64 `json:"window_cycles"`
		Machines     []struct {
			Machine int `json:"machine"`
			Windows []struct {
				Index  int                      `json:"index"`
				Start  uint64                   `json:"start"`
				End    uint64                   `json:"end"`
				Sample map[string]metrics.Value `json:"sample"`
			} `json:"windows"`
		} `json:"machines"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if doc.WindowCycles != 100 || len(doc.Machines) != 1 {
		t.Fatalf("unexpected doc header: %+v", doc)
	}
	wins := doc.Machines[0].Windows
	if len(wins) != 3 || wins[0].Sample["test.ops"].Count != 1 {
		t.Fatalf("unexpected windows: %+v", wins)
	}
}

func TestCurrentLiveView(t *testing.T) {
	rig := newRig(t)
	rec := NewRecorder(Config{Enabled: true, WindowCycles: 100}, rig.reg, rig.eng)
	rig.eng.At(130, func() { rig.ops++ })
	rig.eng.RunUntil(160)
	cur := rec.Current()
	if cur.Index != 1 || cur.Start != 100 || cur.End != 160 {
		t.Fatalf("current window = %+v", cur)
	}
	if cur.Sample.Counter("test.ops") != 1 {
		t.Fatalf("current delta ops = %d, want 1", cur.Sample.Counter("test.ops"))
	}
}

func TestTrackFilter(t *testing.T) {
	r := &Recorder{tracks: []string{"ctt", "engine.bounces"}}
	for name, want := range map[string]bool{
		"ctt.entries":    true,
		"ctt":            true,
		"cttx.other":     false,
		"engine.bounces": true,
		"engine.lazy":    false,
		"mc0.reads":      false,
	} {
		if got := r.selected(name); got != want {
			t.Errorf("selected(%q) = %v, want %v", name, got, want)
		}
	}
	open := &Recorder{}
	if !open.selected("anything.at.all") {
		t.Error("empty filter must select everything")
	}
}
