// Package bench holds the engine, proc, trace, invariants and timeline
// microbenchmarks: the host-side cost of the discrete-event core's hot
// operations (heap churn, the same-cycle fast path, process wakeups) and of
// the instrumentation planes' disabled and enabled paths. mcperf's traced
// runs time each one as a probe, probe.<name>.ns_op and .allocs_op, with the
// "/" of a name written as ".".
package bench

import (
	"fmt"
	"io"
	"regexp"
	"testing"

	"mcsquare/internal/invariant"
	"mcsquare/internal/memdata"
	"mcsquare/internal/metrics"
	"mcsquare/internal/sim"
	"mcsquare/internal/timeline"
	"mcsquare/internal/txtrace"
)

// Result is one microbenchmark measurement.
type Result struct {
	Name        string
	Iterations  int
	NsPerOp     float64
	AllocsPerOp float64
	BytesPerOp  float64
}

func nop() {}

// benchHeapChurn measures raw queue throughput: push b.N events at
// pseudorandom future offsets, then pop them all. One op = one event
// through the queue.
func benchHeapChurn(b *testing.B) {
	b.ReportAllocs()
	e := sim.NewEngine()
	rng := uint64(0x9e3779b97f4a7c15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		e.After(sim.Cycle(rng>>52), nop) // offsets in [0, 4096)
	}
	for e.Step() {
	}
}

// benchSameCycle measures the After(0, …) pattern used by Proc.Resume,
// controller queue handoffs, and hook completions: a chain of same-cycle
// events, each scheduling the next. One op = one schedule + dispatch.
func benchSameCycle(b *testing.B) {
	b.ReportAllocs()
	e := sim.NewEngine()
	n := 0
	var step func()
	step = func() {
		n++
		if n < b.N {
			e.After(0, step)
		}
	}
	b.ResetTimer()
	e.After(0, step)
	for e.Step() {
	}
}

// benchMixedQueue interleaves same-cycle and future events the way the
// memory-system models do: every third event reschedules at a future
// cycle, the rest complete same-cycle.
func benchMixedQueue(b *testing.B) {
	b.ReportAllocs()
	e := sim.NewEngine()
	n := 0
	var step func()
	step = func() {
		n++
		if n >= b.N {
			return
		}
		if n%3 == 0 {
			e.After(7, step)
		} else {
			e.After(0, step)
		}
	}
	b.ResetTimer()
	e.After(0, step)
	for e.Step() {
	}
}

// benchProcWait measures the process wakeup path: one op = one
// Wait(1) park + resume round trip (an event schedule and one coroutine
// switch each way).
func benchProcWait(b *testing.B) {
	b.ReportAllocs()
	n := b.N
	e := sim.NewEngine()
	b.ResetTimer()
	e.Go("w", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Wait(1)
		}
	})
	e.Drain()
}

// benchSuspendResume measures the Suspend/Resume handoff between two
// processes: one op = one Resume of a suspended peer.
func benchSuspendResume(b *testing.B) {
	b.ReportAllocs()
	n := b.N
	e := sim.NewEngine()
	var worker *sim.Proc
	b.ResetTimer()
	worker = e.Go("worker", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Suspend()
		}
	})
	e.Go("driver", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			worker.Resume()
			p.Wait(1)
		}
	})
	e.Drain()
}

// traceOp replays the span pattern one traced memory operation costs the
// simulator — a root (cpu.load), a child per cache level, and the DRAM
// leaf — against the given tracer. With tr nil (tracing disabled) every
// call is a nil-receiver no-op and must not allocate.
func traceOp(tr *txtrace.Tracer, i int) {
	addr := uint64(i) * 64
	now := uint64(i)
	root := tr.BeginRoot(txtrace.StageCPULoad, 0, addr, now)
	miss := tr.Begin(root, txtrace.StageL1Miss, addr, now+4)
	tr.Complete(miss, txtrace.StageDRAMRead, addr, now+30, now+80, txtrace.FlagRowHit)
	tr.End(miss, now+90)
	tr.End(root, now+94)
}

// benchTraceOff measures the tracer's disabled path: the exact call
// pattern of benchTraceOn against a nil tracer. This is the overhead every
// untraced simulation pays, and it must stay at 0 allocs/op.
func benchTraceOff(b *testing.B) {
	b.ReportAllocs()
	var tr *txtrace.Tracer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		traceOp(tr, i)
	}
}

// benchTraceOn measures tracing at 1% sampling — the recommended setting
// for long runs. 99 of 100 ops take the tx==0 early-out; the sampled op
// pays the ring-buffer writes and histogram updates.
func benchTraceOn(b *testing.B) {
	b.ReportAllocs()
	tr := txtrace.New(txtrace.Config{Enabled: true, SampleEvery: 100})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		traceOp(tr, i)
	}
}

// invariantOp replays the oracle consultations one hooked read/write pair
// costs the memory system — a watchdog registration, two queue-occupancy
// checks, a shadow read comparison, and a shadow write observation. With o
// nil (oracles off) every call is a nil-receiver no-op and must not
// allocate.
func invariantOp(o *invariant.Oracles, buf []byte, i int) {
	a := memdata.Addr(i&1023) * memdata.LineSize
	id := o.TxBegin(uint64(a))
	o.CheckQueue("rpq", i&15, 16)
	o.CheckRead(a, buf, sim.Cycle(i))
	o.ObserveWrite(a, buf)
	o.CheckQueue("rpq", i&15, 16)
	o.TxEnd(id)
}

// benchInvariantsOff measures the oracles' disabled path: the exact call
// pattern of benchInvariantsOn against nil oracles. This is the overhead
// every unchecked simulation pays, and it must stay at 0 allocs/op.
func benchInvariantsOff(b *testing.B) {
	b.ReportAllocs()
	var o *invariant.Oracles
	buf := make([]byte, memdata.LineSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		invariantOp(o, buf, i)
	}
}

// benchInvariantsOn measures the full oracle set (shadow byte-compare,
// watchdog bookkeeping, queue checks) per memory op — the cost of running
// a chaos/-invariants sweep.
func benchInvariantsOn(b *testing.B) {
	b.ReportAllocs()
	o := invariant.New(invariant.All(), sim.NewEngine(), nil)
	buf := make([]byte, memdata.LineSize)
	for i := 0; i < 1024; i++ { // pre-populate the shadow: steady-state cost
		invariantOp(o, buf, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		invariantOp(o, buf, i)
	}
}

// timelineRegistry populates reg with a machine-shaped metric set — two
// dozen counters across the engine/ctt/mc scopes, a cycle CounterFunc, and
// a few gauges — and returns the counter cells for the benchmark to bump.
func timelineRegistry(reg *metrics.Registry, e *sim.Engine) []uint64 {
	cells := make([]uint64, 24)
	i := 0
	next := func() *uint64 { c := &cells[i]; i++; return c }
	en := reg.Scope("engine")
	for _, n := range []string{"lazy_ops", "lazy_bytes", "bounces", "bounce_src_reads",
		"eager_fallbacks", "eager_fallback_bytes", "frees", "mem_fills"} {
		en.Counter(n, next())
	}
	ct := reg.Scope("ctt")
	for _, n := range []string{"inserts", "pieces", "merges", "trims", "removed", "deferred_bytes"} {
		ct.Counter(n, next())
	}
	for mc := 0; mc < 2; mc++ {
		s := reg.Scope(fmt.Sprintf("mc%d", mc))
		for _, n := range []string{"reads", "writes", "read_stalls", "forwards", "rejected_writes"} {
			s.Counter(n, next())
		}
	}
	reg.CounterFunc("sim.cycles", func() uint64 { return uint64(e.Now()) })
	reg.Scope("ctt").Gauge("entries", func() float64 { return float64(cells[8]) })
	reg.Scope("ctt").Gauge("high_water", func() float64 { return float64(cells[9]) })
	reg.Scope("mc0").Gauge("wpq_occupancy", func() float64 { return float64(cells[14]) })
	reg.Scope("mc1").Gauge("wpq_occupancy", func() float64 { return float64(cells[19]) })
	return cells
}

// timelineChain drives an engine through b.N one-cycle events, bumping a
// rotating counter each event — the workload both timeline benches share,
// so their delta isolates the recorder's sampling cost.
func timelineChain(b *testing.B, e *sim.Engine, cells []uint64) {
	n := 0
	var step func()
	step = func() {
		cells[n%len(cells)]++
		n++
		if n < b.N {
			e.After(1, step)
		}
	}
	b.ResetTimer()
	e.After(1, step)
	for e.Step() {
	}
}

// benchTimelineOff measures the timeline plane's disabled path: the same
// metric-bumping event chain with no recorder installed, so every time
// advance pays only the engine's nil-hook check (plus the disabled
// constructor surface). This is the overhead every unsampled simulation
// pays, and it must stay at 0 allocs/op.
func benchTimelineOff(b *testing.B) {
	b.ReportAllocs()
	e := sim.NewEngine()
	reg := metrics.NewRegistry()
	cells := timelineRegistry(reg, e)
	rec := timeline.NewRecorder(timeline.Config{}, reg, e) // disabled → nil recorder, inert
	defer rec.Finalize()
	timelineChain(b, e, cells)
}

// benchTimelineOn measures sampling at a deliberately hostile cadence —
// one window per 32 simulated cycles, far denser than the 100k default —
// so the per-window snapshot/delta cost is visible per op rather than
// vanishing into the window length.
func benchTimelineOn(b *testing.B) {
	b.ReportAllocs()
	e := sim.NewEngine()
	reg := metrics.NewRegistry()
	cells := timelineRegistry(reg, e)
	rec := timeline.NewRecorder(timeline.Config{Enabled: true, WindowCycles: 32}, reg, e)
	defer rec.Finalize()
	timelineChain(b, e, cells)
}

type microBench struct {
	name string
	fn   func(b *testing.B)
}

var microBenches = []microBench{
	{"engine/heap-churn", benchHeapChurn},
	{"engine/same-cycle-chain", benchSameCycle},
	{"engine/mixed-queue", benchMixedQueue},
	{"proc/wait-wakeup", benchProcWait},
	{"proc/suspend-resume", benchSuspendResume},
	{"trace/off", benchTraceOff},
	{"trace/on-1pct", benchTraceOn},
	{"invariants/off", benchInvariantsOff},
	{"invariants/on", benchInvariantsOn},
	{"timeline/off", benchTimelineOff},
	{"timeline/on-32cyc", benchTimelineOn},
}

// EngineMicro runs the microbenchmarks, filtered by the optional regexp,
// logging one line per result to log (if non-nil).
func EngineMicro(filter *regexp.Regexp, log io.Writer) []Result {
	var out []Result
	for _, mb := range microBenches {
		if filter != nil && !filter.MatchString(mb.name) {
			continue
		}
		br := testing.Benchmark(mb.fn)
		r := Result{
			Name:        mb.name,
			Iterations:  br.N,
			NsPerOp:     float64(br.NsPerOp()),
			AllocsPerOp: float64(br.AllocsPerOp()),
			BytesPerOp:  float64(br.AllocedBytesPerOp()),
		}
		if log != nil {
			fmt.Fprintf(log, "%-28s %12.1f ns/op %10.1f allocs/op %12.0f B/op\n",
				r.Name, r.NsPerOp, r.AllocsPerOp, r.BytesPerOp)
		}
		out = append(out, r)
	}
	return out
}
