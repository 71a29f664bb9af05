package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The smoke tests run the real parent/child protocol with this test binary
// standing in for mcperf: with runAsMain set, TestMain hands the process to
// main, so the child processes a run spawns execute rounds as mcperf would.
// Their workload is paper-scale figure 19 (about 0.5 s a round), checked
// against the golden file named by smokeGolden.
const (
	runAsMain   = "MCPERF_TEST_RUN_AS_MAIN"
	smokeGolden = "MCPERF_TEST_SMOKE_GOLDEN"
)

var smoke = workload{name: "smoke", figures: []string{"19"}}

func TestMain(m *testing.M) {
	smoke.goldens = []string{os.Getenv(smokeGolden)}
	workloads = append(workloads, smoke)
	if os.Getenv(runAsMain) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// smokeRun runs the smoke workload for one second with the golden given.
func smokeRun(t *testing.T, golden []byte, trace bool) runRecord {
	t.Helper()
	path := filepath.Join(t.TempDir(), "figure19.txt")
	if err := os.WriteFile(path, golden, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Setenv(smokeGolden, path)
	t.Setenv(runAsMain, "1")
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return runWorkload(self, smoke, 7, 1, trace)
}

func readSpec(t *testing.T) *benchmarkSpec {
	t.Helper()
	spec, err := readBenchmarkSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// checkMetricNames requires the record to report exactly the listed metrics.
func checkMetricNames(t *testing.T, rec runRecord, list []metricSpec) {
	t.Helper()
	listed := map[string]bool{}
	for _, m := range list {
		listed[m.Name] = true
		if _, ok := rec.Metrics[m.Name]; !ok {
			t.Errorf("BENCHMARK.json lists %s, which the run did not report", m.Name)
		}
	}
	for name := range rec.Metrics {
		if !listed[name] {
			t.Errorf("the run reported %s, which BENCHMARK.json does not list", name)
		}
	}
}

func TestSmokeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	golden, err := os.ReadFile(filepath.Join("..", "results", "figure19.txt"))
	if err != nil {
		t.Fatal(err)
	}
	rec := smokeRun(t, golden, false)
	if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
		t.Fatalf("run failed: %+v", rec)
	}
	checkMetricNames(t, rec, readSpec(t).EndToEnd)
	for name, v := range rec.Metrics {
		if !(v > 0) {
			t.Errorf("%s = %v, want > 0", name, v)
		}
	}
	if rec.Counts["sim.cycles"] == 0 || len(rec.Digest) != 64 {
		t.Errorf("missing counts or digest: %v %q", rec.Counts, rec.Digest)
	}

	corrupt := []byte(strings.Replace(string(golden), "KB", "kB", 1))
	bad := smokeRun(t, corrupt, false)
	if bad.Correct || bad.Failed != bad.Attempted || bad.Attempted < 1 {
		t.Fatalf("corrupted golden: correct %v, %d of %d failed", bad.Correct, bad.Failed, bad.Attempted)
	}
	if len(bad.Errors) == 0 || !strings.Contains(bad.Errors[0], "differs from the golden at line") {
		t.Fatalf("corrupted golden: errors %q", bad.Errors)
	}
}

func TestSmokeTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	golden, err := os.ReadFile(filepath.Join("..", "results", "figure19.txt"))
	if err != nil {
		t.Fatal(err)
	}
	rec := smokeRun(t, golden, true)
	if !rec.Correct {
		t.Fatalf("traced run failed: %v", rec.Errors)
	}
	checkMetricNames(t, rec, readSpec(t).PerLayer)
	var layers float64
	for _, l := range layerNames {
		layers += rec.Metrics["layer."+l+".cpu_frac"]
	}
	if layers < 0.999 || layers > 1.001 {
		t.Errorf("layer shares sum to %v, want 1", layers)
	}
	if rec.Metrics["phase.simulate.cpu_frac"] == 0 {
		t.Error("no samples in the simulate phase")
	}
}

// TestWorkloadsMatchBenchmarkJSON keeps the suite and BENCHMARK.json in
// step, and checks that each workload decomposes and has its golden.
func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	spec := readSpec(t)
	listed := map[string]bool{}
	for _, w := range spec.Workloads {
		listed[w.Name] = true
		if _, err := lookupWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	for _, w := range workloads {
		if w.name == smoke.name {
			continue
		}
		if !listed[w.name] {
			t.Errorf("workload %s is missing from BENCHMARK.json", w.name)
		}
		for _, g := range w.goldens {
			if _, err := os.Stat(filepath.Join("..", g)); err != nil {
				t.Errorf("workload %s: %v", w.name, err)
			}
		}
		if _, err := w.jobSets(); err != nil {
			t.Error(err)
		}
	}
}

// TestRoundOrder checks that a seed gives the same orders every time, and
// that over as many rounds as there are jobs each job leads exactly once.
func TestRoundOrder(t *testing.T) {
	const jobs = 9
	leads := map[int]int{}
	for r := 0; r < jobs; r++ {
		a, b := roundOrder(3, r, jobs), roundOrder(3, r, jobs)
		seen := map[int]bool{}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("round %d: the same seed gave %v and %v", r, a, b)
			}
			seen[a[i]] = true
		}
		if len(seen) != jobs {
			t.Fatalf("round %d: %v is not a permutation of %d jobs", r, a, jobs)
		}
		leads[a[0]]++
	}
	if len(leads) != jobs {
		t.Fatalf("leading jobs over %d rounds: %v, want each once", jobs, leads)
	}
}
