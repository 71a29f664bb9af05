package timeline

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"mcsquare/internal/metrics"
	"mcsquare/internal/sim"
	"mcsquare/internal/txtrace"
)

// traceEvent mirrors the Chrome trace-event fields the exports emit.
type traceEvent struct {
	Name string                 `json:"name"`
	Cat  string                 `json:"cat"`
	Ph   string                 `json:"ph"`
	Pid  int                    `json:"pid"`
	Tid  int                    `json:"tid"`
	Ts   uint64                 `json:"ts"`
	Dur  uint64                 `json:"dur"`
	Args map[string]interface{} `json:"args"`
}

func decodeTrace(t *testing.T, data []byte) []traceEvent {
	t.Helper()
	var doc struct {
		DisplayTimeUnit string       `json:"displayTimeUnit"`
		TraceEvents     []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("export is not well-formed JSON: %v\n%s", err, data)
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Fatalf("displayTimeUnit = %q, want ns", doc.DisplayTimeUnit)
	}
	return doc.TraceEvents
}

// buildTraced runs a tiny simulation with both a tracer and a recorder on
// one registry/engine, returning the pair.
func buildTraced(t *testing.T) (*txtrace.Tracer, *Recorder) {
	t.Helper()
	eng := sim.NewEngine()
	t.Cleanup(eng.Close)
	reg := metrics.NewRegistry()
	var ops uint64
	reg.Counter("test.ops", &ops)
	tr := txtrace.New(txtrace.Config{Enabled: true})
	rec := NewRecorder(Config{Enabled: true, WindowCycles: 50}, reg, eng)
	for i := 0; i < 4; i++ {
		start := sim.Cycle(i * 40)
		eng.At(start, func() {
			ops++
			tx := tr.BeginRoot(txtrace.StageCPULoad, 0, 0x1000, eng.Now())
			tr.End(tx, eng.Now()+10)
		})
	}
	eng.RunUntil(200)
	rec.Finalize()
	return tr, rec
}

func TestExportPerfettoValidates(t *testing.T) {
	tr, rec := buildTraced(t)
	var buf bytes.Buffer
	if err := ExportPerfetto(&buf, []*txtrace.Tracer{tr}, []*Recorder{rec}); err != nil {
		t.Fatal(err)
	}
	events := decodeTrace(t, buf.Bytes())

	known := map[string]bool{}
	for _, s := range txtrace.StageNames() {
		known[s] = true
	}
	var spanSeen, counterSeen bool
	counterTs := map[string]uint64{}  // counter track name → last ts
	counterFirst := map[string]bool{} // seen at least one event
	rootTs := map[[2]int]uint64{}     // (pid, tid) → last root span ts
	rootFirst := map[[2]int]bool{}
	for _, ev := range events {
		switch ev.Ph {
		case "M":
			if ev.Name != "process_name" && ev.Name != "thread_name" {
				t.Errorf("unexpected metadata event %q", ev.Name)
			}
		case "X":
			spanSeen = true
			if !known[ev.Name] {
				t.Errorf("span stage %q not in txtrace.StageNames", ev.Name)
			}
			if _, ok := ev.Args["tx"]; !ok {
				t.Errorf("span missing tx arg: %+v", ev)
			}
			// Root spans (no parent) are recorded in begin order, so their
			// ts is monotonic per (pid, track).
			if _, nested := ev.Args["parent"]; !nested {
				key := [2]int{ev.Pid, ev.Tid}
				if rootFirst[key] && ev.Ts < rootTs[key] {
					t.Errorf("root span ts went backwards on pid %d tid %d: %d < %d", ev.Pid, ev.Tid, ev.Ts, rootTs[key])
				}
				rootFirst[key], rootTs[key] = true, ev.Ts
			}
		case "C":
			counterSeen = true
			if ev.Cat != "timeline" {
				t.Errorf("counter event cat = %q, want timeline", ev.Cat)
			}
			if !strings.Contains(ev.Name, ".") && ev.Name != "sim" {
				t.Errorf("counter track %q is not a dotted metric name", ev.Name)
			}
			if _, ok := ev.Args["value"]; !ok {
				t.Errorf("counter event missing value arg: %+v", ev)
			}
			if counterFirst[ev.Name] && ev.Ts <= counterTs[ev.Name] {
				t.Errorf("counter track %q ts not strictly monotonic: %d after %d", ev.Name, ev.Ts, counterTs[ev.Name])
			}
			counterFirst[ev.Name], counterTs[ev.Name] = true, ev.Ts
		default:
			t.Errorf("unexpected ph %q", ev.Ph)
		}
	}
	if !spanSeen || !counterSeen {
		t.Fatalf("export missing spans (%v) or counters (%v)", spanSeen, counterSeen)
	}
	if !counterFirst["test.ops"] {
		t.Fatal("expected a test.ops counter track")
	}
}

// The plain txtrace.Export must be byte-identical to ExportPerfetto with
// no recorders: the EventWriter refactor is not allowed to change bytes.
func TestExportPerfettoMatchesPlainExport(t *testing.T) {
	tr, _ := buildTraced(t)
	var plain, merged bytes.Buffer
	if err := txtrace.Export(&plain, []*txtrace.Tracer{tr, nil}); err != nil {
		t.Fatal(err)
	}
	if err := ExportPerfetto(&merged, []*txtrace.Tracer{tr, nil}, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Bytes(), merged.Bytes()) {
		t.Fatal("ExportPerfetto without recorders diverges from txtrace.Export")
	}
}

// A recorder on a machine with no tracer still gets a named process.
func TestExportPerfettoRecorderOnly(t *testing.T) {
	_, rec := buildTraced(t)
	var buf bytes.Buffer
	if err := ExportPerfetto(&buf, nil, []*Recorder{rec}); err != nil {
		t.Fatal(err)
	}
	events := decodeTrace(t, buf.Bytes())
	var named, counters bool
	for _, ev := range events {
		if ev.Ph == "M" && ev.Name == "process_name" {
			named = true
		}
		if ev.Ph == "C" {
			counters = true
		}
	}
	if !named || !counters {
		t.Fatalf("recorder-only export missing process name (%v) or counters (%v)", named, counters)
	}
}

// Deterministic: two identical exports are byte-identical.
func TestExportPerfettoDeterministic(t *testing.T) {
	tr, rec := buildTraced(t)
	var a, b bytes.Buffer
	if err := ExportPerfetto(&a, []*txtrace.Tracer{tr}, []*Recorder{rec}); err != nil {
		t.Fatal(err)
	}
	if err := ExportPerfetto(&b, []*txtrace.Tracer{tr}, []*Recorder{rec}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("repeated export differs")
	}
}
