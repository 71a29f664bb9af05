package bench

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"

	"mcsquare/internal/sim"
	"mcsquare/internal/timeline"
)

// TestProbeNamesInBenchmark pins mcperf's per-layer probe metrics to the
// microbenchmark names: mcperf reports each microbenchmark as
// probe.<name>.ns_op and .allocs_op (with "/" written as "."), so renaming
// one without BENCHMARK.json would silently drop its metrics.
func TestProbeNamesInBenchmark(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, m := range spec.PerLayer {
		listed[m.Name] = true
	}
	for _, mb := range microBenches {
		for _, unit := range []string{"ns_op", "allocs_op"} {
			key := "probe." + strings.ReplaceAll(mb.name, "/", ".") + "." + unit
			if !listed[key] {
				t.Errorf("BENCHMARK.json per_layer does not list %s for microbenchmark %s", key, mb.name)
			}
		}
	}
}

// TestEngineMicroSmoke runs one microbench so CI exercises the harness
// itself (benchmark construction, result conversion) without paying for a
// full measurement run.
func TestEngineMicroSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("bench smoke skipped in -short")
	}
	res := EngineMicro(regexp.MustCompile("same-cycle-chain"), nil)
	if len(res) != 1 {
		t.Fatalf("filter matched %d benchmarks, want 1", len(res))
	}
	if res[0].NsPerOp <= 0 || res[0].Iterations == 0 {
		t.Fatalf("degenerate result: %+v", res[0])
	}
}

// TestTraceOffAllocatesNothing pins the tracer's disabled-path cost: the
// trace/off microbenchmark — the per-memory-op span pattern against a nil
// tracer — must report zero allocations per op, so an untraced simulation
// pays only dead branches for the instrumentation.
func TestTraceOffAllocatesNothing(t *testing.T) {
	allocs := testing.AllocsPerRun(1000, func() {
		traceOp(nil, 7)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer path allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestInvariantsOffAllocatesNothing pins the oracles' disabled-path cost:
// the invariants/off microbenchmark — the per-memory-op oracle
// consultation pattern against nil oracles — must report zero allocations
// per op, so an unchecked simulation pays only nil checks for the
// instrumentation.
func TestInvariantsOffAllocatesNothing(t *testing.T) {
	buf := make([]byte, 64)
	allocs := testing.AllocsPerRun(1000, func() {
		invariantOp(nil, buf, 7)
	})
	if allocs != 0 {
		t.Fatalf("disabled oracle path allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestTimelineOffAllocatesNothing pins the timeline plane's disabled-path
// cost: with no recorder installed, one future event through the engine —
// the schedule + dispatch that now also passes the nil advance-hook check
// on every time move — must report zero allocations per op, so an
// unsampled simulation pays only a nil check for the instrumentation.
func TestTimelineOffAllocatesNothing(t *testing.T) {
	e := sim.NewEngine()
	rec := timeline.NewRecorder(timeline.Config{}, nil, e) // nil: disabled
	for i := 0; i < 64; i++ {                              // warm the event pool
		e.After(1, func() {})
		e.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e.After(1, func() {})
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("disabled timeline path allocates %.1f allocs/op, want 0", allocs)
	}
	rec.Finalize() // nil-safe
}
