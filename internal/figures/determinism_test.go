package figures

import (
	"bytes"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"mcsquare/internal/machine"
	"mcsquare/internal/runner"
	"mcsquare/internal/stats"
	"mcsquare/internal/timeline"
	"mcsquare/internal/txtrace"
)

// renderFigure decomposes a generator, runs its jobs on the given worker
// count, merges, and renders the result — exactly the cmd/mcfigures path.
func renderFigure(t *testing.T, g Generator, workers int, o Options) string {
	t.Helper()
	set := g.Jobs(o)
	results := runner.Run(runner.Config{
		Workers: workers,
		Options: runner.Options{Quick: o.Quick},
	}, set.Jobs)
	parts := make([][]*stats.Table, len(results))
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("figure %s job %s failed: %v", g.ID, r.ID, r.Err)
		}
		parts[i] = r.Tables
	}
	var b strings.Builder
	for _, tb := range set.Merge(parts) {
		b.WriteString(tb.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestParallelDeterminism is the -jobs guarantee: for every decomposed
// generator, running its jobs on one worker and on a saturated pool must
// merge to byte-identical output. Quick scale; the slowest sweeps are
// opt-in via MCFIG_DETERMINISM_ALL=1 (and -short trims further) to keep
// -race runs affordable.
func TestParallelDeterminism(t *testing.T) {
	ids := []string{"2", "10", "20", "22", "ablations", "timeline"}
	if testing.Short() || raceEnabled {
		// Race builds and -short keep the cheapest multi-job figures: the
		// guarantee is about merge order, which two sweeps already cover.
		ids = []string{"2", "20"}
	}
	if os.Getenv("MCFIG_DETERMINISM_ALL") != "" {
		ids = append(ids, "16", "17", "fleet", "resilience")
	}
	workers := runtime.NumCPU()
	if workers < 4 {
		workers = 4 // exercise real concurrency even on small CI boxes
	}
	for _, id := range ids {
		id := id
		t.Run("fig"+id, func(t *testing.T) {
			g, ok := ByID(id)
			if !ok {
				t.Fatalf("unknown figure %s", id)
			}
			serial := renderFigure(t, g, 1, Options{Quick: true})
			parallel := renderFigure(t, g, workers, Options{Quick: true})
			if serial != parallel {
				t.Fatalf("figure %s output differs between 1 and %d workers:\n--- serial ---\n%s\n--- parallel ---\n%s",
					id, workers, serial, parallel)
			}
			// And both must equal the plain serial Run (the generators'
			// documented contract: Run == runJobSet of the same JobSet).
			var b strings.Builder
			for _, tb := range g.Run(Options{Quick: true}) {
				b.WriteString(tb.String())
				b.WriteByte('\n')
			}
			if direct := b.String(); direct != serial {
				t.Fatalf("figure %s Run() differs from merged jobs:\n--- Run ---\n%s\n--- jobs ---\n%s",
					id, direct, serial)
			}
		})
	}
}

// renderTrace runs one figure's jobs with full-rate tracing on the given
// worker count and exports the merged trace document — the cmd/mcfigures
// -trace path.
func renderTrace(t *testing.T, g Generator, workers int) string {
	t.Helper()
	set := g.Jobs(Options{Quick: true})
	results := runner.Run(runner.Config{
		Workers: workers,
		Options: runner.Options{Quick: true},
		Trace:   txtrace.Config{Enabled: true, SampleEvery: 1},
	}, set.Jobs)
	var tracers []*txtrace.Tracer
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("figure %s job %s failed: %v", g.ID, r.ID, r.Err)
		}
		tracers = append(tracers, r.Trace...)
	}
	var b bytes.Buffer
	if err := txtrace.Export(&b, tracers); err != nil {
		t.Fatalf("export: %v", err)
	}
	return b.String()
}

// TestTraceParallelDeterminism extends the -jobs guarantee to the trace
// export: a traced figure must produce byte-identical trace JSON whether
// its jobs ran serially or on a saturated pool, because tracers are merged
// in job submission order and each machine's recorder depends only on its
// own deterministic simulation.
func TestTraceParallelDeterminism(t *testing.T) {
	g, ok := ByID("2")
	if !ok {
		t.Fatal("figure 2 missing")
	}
	workers := runtime.NumCPU()
	if workers < 4 {
		workers = 4
	}
	serial := renderTrace(t, g, 1)
	parallel := renderTrace(t, g, workers)
	if serial != parallel {
		t.Fatalf("figure 2 trace differs between 1 and %d workers (lengths %d vs %d)",
			workers, len(serial), len(parallel))
	}
	for _, stage := range []string{"cpu.", "mc.", "dram."} {
		if !strings.Contains(serial, `"name":"`+stage) {
			t.Errorf("trace missing spans for stage prefix %q", stage)
		}
	}
}

// renderPerfetto runs one figure's jobs with both tracing and the timeline
// plane on the given worker count and exports the merged span + counter
// document — the cmd/mcfigures -trace -timeline path.
func renderPerfetto(t *testing.T, g Generator, workers int) string {
	t.Helper()
	set := g.Jobs(Options{Quick: true})
	results := runner.Run(runner.Config{
		Workers:  workers,
		Options:  runner.Options{Quick: true},
		Trace:    txtrace.Config{Enabled: true, SampleEvery: 1},
		Timeline: timeline.Config{Enabled: true, WindowCycles: 50_000},
	}, set.Jobs)
	var tracers []*txtrace.Tracer
	var recs []*timeline.Recorder
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("figure %s job %s failed: %v", g.ID, r.ID, r.Err)
		}
		tracers = append(tracers, r.Trace...)
		recs = append(recs, r.Timeline...)
	}
	if len(tracers) < 2 || len(recs) != len(tracers) {
		t.Fatalf("want multiple machines with paired planes, have %d tracers / %d recorders",
			len(tracers), len(recs))
	}
	var b bytes.Buffer
	if err := timeline.ExportPerfetto(&b, tracers, recs); err != nil {
		t.Fatalf("export: %v", err)
	}
	return b.String()
}

// TestPerfettoParallelDeterminism extends the -jobs guarantee to the merged
// span + counter-track export: multiple machines' tracers and timeline
// recorders, concatenated in job submission order, must serialize to
// byte-identical documents whether the jobs ran serially or on a saturated
// pool — counter tracks interleave with span metadata per pid, so any
// ordering leak shows up as a byte diff.
func TestPerfettoParallelDeterminism(t *testing.T) {
	g, ok := ByID("2")
	if !ok {
		t.Fatal("figure 2 missing")
	}
	workers := runtime.NumCPU()
	if workers < 4 {
		workers = 4
	}
	serial := renderPerfetto(t, g, 1)
	parallel := renderPerfetto(t, g, workers)
	if serial != parallel {
		t.Fatalf("figure 2 merged Perfetto export differs between 1 and %d workers (lengths %d vs %d)",
			workers, len(serial), len(parallel))
	}
	if !strings.Contains(serial, `"ph":"C"`) {
		t.Fatal("merged export carries no counter events")
	}
	for _, track := range []string{`"name":"sim.cycles","cat":"timeline"`, `"name":"l1.misses","cat":"timeline"`} {
		if !strings.Contains(serial, track) {
			t.Errorf("merged export missing counter track %s", track)
		}
	}
	// Spans survive the merge too: the plain trace stages are still there.
	if !strings.Contains(serial, `"name":"cpu.`) {
		t.Error("merged export lost the span events")
	}
}

// TestUndecomposedGeneratorsSingleJob: generators without a decomposition
// wrap Run as one job, so the whole figure set is runnable on the pool.
func TestUndecomposedGeneratorsSingleJob(t *testing.T) {
	g, ok := ByID("table1")
	if !ok {
		t.Fatal("table1 missing")
	}
	set := g.Jobs(Options{Quick: true})
	if len(set.Jobs) != 1 || set.Jobs[0].ID != "table1" {
		t.Fatalf("table1 decomposition = %d jobs (first %q)", len(set.Jobs), set.Jobs[0].ID)
	}
	results := runner.Run(runner.Config{Workers: 1}, set.Jobs)
	if results[0].Err != nil {
		t.Fatalf("table1 job failed: %v", results[0].Err)
	}
	out := set.Merge([][]*stats.Table{results[0].Tables})
	if len(out) == 0 || !strings.Contains(out[0].String(), "\t") {
		t.Fatalf("table1 via runner produced no tabular output")
	}
}

// TestJobDropsEnv: once a figure job returns, nothing the job wrapper
// keeps may still reach the run environment it was given — the Env holds
// every machine the job built, so a retained one would keep each finished
// job's machines alive for the whole run.
func TestJobDropsEnv(t *testing.T) {
	freed := make(chan struct{})
	j := job(Options{}, "env", func(o Options) []*stats.Table {
		runtime.SetFinalizer(o.Env, func(*machine.Env) { close(freed) })
		return nil
	})
	runner.Run(runner.Config{Workers: 1}, []runner.Job{j})
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-freed:
			runtime.KeepAlive(j)
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the job's run environment stayed reachable after the job returned")
}
