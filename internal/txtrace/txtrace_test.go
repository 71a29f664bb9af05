package txtrace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"mcsquare/internal/metrics"
)

// traceOneOp exercises the call pattern one traced memory operation makes:
// a root, a child with a deferred end, and two synchronous Complete legs.
func traceOneOp(t *Tracer, i uint64) {
	root := t.BeginRoot(StageCPULoad, 0, 0x4000+i*64, i)
	miss := t.Begin(root, StageL1Miss, 0x4000+i*64, i+4)
	t.Complete(miss, StageXConHop, 0, i+8, i+32, 0)
	t.Complete(miss, StageDRAMRead, 0x4000+i*64, i+32, i+80, FlagRowHit)
	t.End(miss, i+90)
	t.End(root, i+100)
}

// TestDisabledPathAllocatesNothing is the satellite guarantee: with
// tracing disabled (nil tracer — what every component holds when no
// collector is bound), the full span call pattern performs zero
// allocations.
func TestDisabledPathAllocatesNothing(t *testing.T) {
	var tr *Tracer // disabled
	var i uint64
	allocs := testing.AllocsPerRun(1000, func() {
		traceOneOp(tr, i)
		i++
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer allocated %.1f allocs/op, want 0", allocs)
	}
}

// TestUnsampledPathAllocatesNothing: with tracing enabled but the sampler
// skipping a root, the whole tree is untraced and allocation-free.
func TestUnsampledPathAllocatesNothing(t *testing.T) {
	tr := New(Config{Enabled: true, SampleEvery: 1 << 30, BufferSpans: 64})
	traceOneOp(tr, 0) // consume the one sampled root
	var i uint64 = 1
	allocs := testing.AllocsPerRun(1000, func() {
		traceOneOp(tr, i)
		i++
	})
	if allocs != 0 {
		t.Fatalf("unsampled path allocated %.1f allocs/op, want 0", allocs)
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	if id := tr.BeginRoot(StageCPULoad, 0, 0, 0); id != 0 {
		t.Fatalf("nil BeginRoot returned %d", id)
	}
	if id := tr.Begin(7, StageL1Miss, 0, 0); id != 0 {
		t.Fatalf("nil Begin returned %d", id)
	}
	tr.End(7, 0)
	tr.Complete(7, StageL2Hit, 0, 0, 1, 0)
	tr.Anomaly(AnomalyWPQReject, 0, 0, 0)
	tr.SetAnomalyHook(func(Anomaly) {})
	if tr.Enabled() || tr.Spans() != nil || tr.SpansRecorded() != 0 {
		t.Fatal("nil tracer reported state")
	}
	if err := Export(&bytes.Buffer{}, []*Tracer{nil}); err != nil {
		t.Fatal(err)
	}
}

func TestSpanTreeAndHistograms(t *testing.T) {
	tr := New(Config{Enabled: true, BufferSpans: 256})
	traceOneOp(tr, 0)
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	root := spans[0]
	if root.Stage != StageCPULoad || root.Parent != 0 || root.Root != root.ID {
		t.Fatalf("bad root span: %+v", root)
	}
	for _, sp := range spans[1:] {
		if sp.Root != root.ID {
			t.Fatalf("span %d has root %d, want %d", sp.ID, sp.Root, root.ID)
		}
		if sp.Track != root.Track {
			t.Fatalf("span %d did not inherit track: %+v", sp.ID, sp)
		}
	}
	if spans[1].Parent != root.ID {
		t.Fatalf("miss span parent = %d, want %d", spans[1].Parent, root.ID)
	}
	if got := tr.StageCount(StageDRAMRead); got != 1 {
		t.Fatalf("dram.read histogram has %d samples, want 1", got)
	}
	if d := spans[0].End - spans[0].Start; d != 100 {
		t.Fatalf("root duration = %d, want 100", d)
	}
	// The DRAM leg carries its row-hit flag.
	var dram *Span
	for i := range spans {
		if spans[i].Stage == StageDRAMRead {
			dram = &spans[i]
		}
	}
	if dram == nil || dram.Flags&FlagRowHit == 0 {
		t.Fatalf("dram span missing row-hit flag: %+v", dram)
	}
}

func TestDeterministicSampling(t *testing.T) {
	tr := New(Config{Enabled: true, SampleEvery: 3, BufferSpans: 1024})
	sampled := 0
	for i := uint64(0); i < 9; i++ {
		if tr.BeginRoot(StageCPUStore, 1, i, i) != 0 {
			sampled++
		}
	}
	if sampled != 3 {
		t.Fatalf("sampled %d of 9 roots at 1-in-3, want 3", sampled)
	}
	// Roots 0, 3, 6 are the sampled ones: counter-based, not random.
	tr2 := New(Config{Enabled: true, SampleEvery: 3, BufferSpans: 1024})
	for i := uint64(0); i < 9; i++ {
		id := tr2.BeginRoot(StageCPUStore, 1, i, i)
		if (i%3 == 0) != (id != 0) {
			t.Fatalf("root %d sampling = %v, want every 3rd starting at 0", i, id != 0)
		}
	}
}

func TestRingWrapCountsLostSpans(t *testing.T) {
	tr := New(Config{Enabled: true, BufferSpans: 4})
	first := tr.BeginRoot(StageCPULoad, 0, 0, 0)
	for i := uint64(1); i <= 8; i++ { // overwrite the whole ring
		id := tr.BeginRoot(StageCPUStore, 0, i, i)
		tr.End(id, i+1)
	}
	tr.End(first, 100) // its slot now holds a newer span
	if tr.SpansLost() != 1 {
		t.Fatalf("spans_lost = %d, want 1", tr.SpansLost())
	}
	if tr.StageCount(StageCPULoad) != 0 {
		t.Fatal("lost span fed its histogram")
	}
	if tr.StageCount(StageCPUStore) != 8 {
		t.Fatalf("store histogram has %d samples, want 8", tr.StageCount(StageCPUStore))
	}
	for _, sp := range tr.Spans() {
		if sp.ID == first {
			t.Fatal("evicted span still exported")
		}
	}
}

func TestAnomalyTrigger(t *testing.T) {
	tr := New(Config{Enabled: true, SampleEvery: 1000, BufferSpans: 64})
	var fired []Anomaly
	tr.SetAnomalyHook(func(a Anomaly) { fired = append(fired, a) })
	tr.Anomaly(AnomalyBPQSaturated, 1, 0x8000, 42)
	tr.Anomaly(AnomalyWPQReject, 0, 0x9000, 50)
	if len(fired) != 2 || fired[0].Kind != AnomalyBPQSaturated || fired[1].Cycle != 50 {
		t.Fatalf("hook saw %+v", fired)
	}
	if tr.AnomalyCount(AnomalyWPQReject) != 1 {
		t.Fatal("anomaly counter not incremented")
	}
	// Anomalies bypass sampling: both appear as instant spans.
	spans := tr.Spans()
	if len(spans) != 2 || spans[0].Stage != StageAnomalyBPQ || spans[0].Track != TrackEngine {
		t.Fatalf("anomaly spans = %+v", spans)
	}
	var buf bytes.Buffer
	if err := tr.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "anomaly.bpq_saturated") {
		t.Fatal("dump missing anomaly span")
	}
}

func TestExportValidAndDeterministic(t *testing.T) {
	build := func() *Tracer {
		tr := New(Config{Enabled: true, BufferSpans: 256})
		for i := uint64(0); i < 20; i++ {
			traceOneOp(tr, i*128)
		}
		tr.Anomaly(AnomalyWPQReject, 0, 0xdead<<6, 999)
		return tr
	}
	var a, b bytes.Buffer
	if err := Export(&a, []*Tracer{build()}); err != nil {
		t.Fatal(err)
	}
	if err := Export(&b, []*Tracer{build()}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two identical traces exported differently")
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
			Ts   uint64 `json:"ts"`
			Dur  uint64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		names[ev.Name] = true
	}
	for _, want := range []string{"cpu.load", "l1.miss", "xcon.hop", "dram.read", "anomaly.wpq_reject", "process_name", "thread_name"} {
		if !names[want] {
			t.Fatalf("export missing %q events; have %v", want, names)
		}
	}
}

func TestPublishMetrics(t *testing.T) {
	tr := New(Config{Enabled: true, BufferSpans: 256})
	for i := uint64(0); i < 10; i++ {
		traceOneOp(tr, i*100)
	}
	reg := metrics.NewRegistry()
	tr.PublishMetrics(reg.Scope("txtrace"))
	snap := reg.Snapshot()
	if v, ok := snap.Get("txtrace.dram.read"); !ok || v.Count != 10 {
		t.Fatalf("txtrace.dram.read = %+v", v)
	}
	if v, ok := snap.Get("txtrace.dram.read.p99"); !ok || v.Value != 48 {
		t.Fatalf("txtrace.dram.read.p99 = %+v, want 48", v)
	}
	if snap.Counter("txtrace.spans") != tr.SpansRecorded() {
		t.Fatal("span counter mismatch")
	}
	if _, ok := snap.Get("txtrace.anomalies.wpq_reject"); !ok {
		t.Fatal("anomaly counters not published")
	}
}
