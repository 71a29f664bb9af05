package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(v, n=4) returns for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{1.2, 0.9, 1.1, 1.0, 5.0, 1.05}, [3]float64{0.975, 1.075, 2.15}},
	} {
		got := quartiles(c.v)
		for i := range got {
			if d := got[i] - c.want[i]; d > 1e-12 || d < -1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.v, got, c.want)
				break
			}
		}
	}
}

var wallSpec = metricSpec{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.05}

func TestCompareImprovedOnNineOfTenPairs(t *testing.T) {
	parent := []float64{10, 10.1, 9.9, 10.2, 10, 9.95, 10.05, 10.1, 9.9, 10}
	change := []float64{9, 9.1, 8.9, 9.2, 9, 8.95, 9.05, 9.1, 8.9, 10.1} // loses the last pair
	if c := compareMetric(wallSpec, parent, change); c.wins != 9 || c.verdict != improved {
		t.Fatalf("9 of 10 pairs won: wins %d verdict %s, want improved", c.wins, c.verdict)
	}
	change[8] = 10 // loses two pairs
	if c := compareMetric(wallSpec, parent, change); c.wins != 8 || c.verdict != unchanged {
		t.Fatalf("8 of 10 pairs won: wins %d verdict %s, want unchanged", c.wins, c.verdict)
	}
}

func TestCompareUnresolvedWhenSpreadExceedsBound(t *testing.T) {
	parent := []float64{10, 11, 9, 12, 8, 10, 11, 9, 12, 8}
	change := []float64{10.2, 11, 9.1, 12.4, 8, 10.3, 11.2, 9, 12, 8.3}
	c := compareMetric(wallSpec, parent, change)
	if c.verdict != unresolved {
		t.Fatalf("verdict %s, want unresolved (quartiles %v vs %v)", c.verdict, c.parent, c.change)
	}
	steady := []float64{10, 10.1, 9.9, 10, 10.05, 9.95, 10, 10.1, 9.9, 10}
	if c := compareMetric(wallSpec, steady, steady); c.verdict != unchanged {
		t.Fatalf("identical steady runs: verdict %s, want unchanged", c.verdict)
	}
}

func TestCompareRegressedPastBound(t *testing.T) {
	parent := []float64{10, 10.1, 9.9, 10, 10.05, 9.95, 10, 10.1, 9.9, 10}
	change := make([]float64, len(parent))
	for i, v := range parent {
		change[i] = v * 1.08
	}
	if c := compareMetric(wallSpec, parent, change); c.verdict != regressed {
		t.Fatalf("8%% slower with a 5%% bound: verdict %s", c.verdict)
	}
	rate := metricSpec{Name: "sim_mcycles_per_s", Better: "higher", Bound: 0.05}
	if c := compareMetric(rate, change, parent); c.verdict != regressed {
		t.Fatalf("8%% lower throughput: verdict %s", c.verdict)
	}
}

func TestCompareSetupFloor(t *testing.T) {
	setup := metricSpec{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25}
	parent := []float64{0.0015, 0.0016, 0.0014, 0.0015, 0.0015, 0.0017, 0.0015, 0.0014, 0.0016, 0.0015}
	change := make([]float64, len(parent))
	for i, v := range parent {
		change[i] = v * 2 // 100% worse, but 1.5 ms: under the 10 ms floor
	}
	if c := compareMetric(setup, parent, change); c.verdict != unchanged {
		t.Fatalf("setup 1.5 ms slower: verdict %s, want unchanged", c.verdict)
	}
	for i, v := range parent {
		change[i] = v + 0.02
	}
	if c := compareMetric(setup, parent, change); c.verdict != regressed {
		t.Fatalf("setup 20 ms slower: verdict %s, want regressed", c.verdict)
	}
}

func runs(workload string, wall []float64, cycles float64, digest string) []runRecord {
	var out []runRecord
	for i, w := range wall {
		out = append(out, runRecord{Workload: workload, Seed: int64(i + 1), Correct: true,
			Attempted: 9, Metrics: map[string]float64{"wall_s": w},
			Counts: map[string]float64{"sim.cycles": cycles}, Digest: digest})
	}
	return out
}

func TestCompareRunsFlagsModelChange(t *testing.T) {
	spec := &benchmarkSpec{Workloads: []workloadSpec{{"copy-ladder"}}, EndToEnd: []metricSpec{wallSpec}}
	wall := []float64{2, 2.01, 1.99, 2, 2}

	var out bytes.Buffer
	if bad := compareRuns(&out, spec, runs("copy-ladder", wall, 1000, "ab"), runs("copy-ladder", wall, 1000, "ab")); bad {
		t.Fatalf("identical runs judged bad:\n%s", out.String())
	}
	if strings.Contains(out.String(), "model changed") || !strings.Contains(out.String(), unchanged) {
		t.Fatalf("identical runs:\n%s", out.String())
	}

	out.Reset()
	compareRuns(&out, spec, runs("copy-ladder", wall, 1000, "ab"), runs("copy-ladder", wall, 1001, "ab"))
	if !strings.Contains(out.String(), "model changed: sim.cycles 1001 != 1000") {
		t.Fatalf("count change not flagged:\n%s", out.String())
	}

	out.Reset()
	change := runs("copy-ladder", wall, 1000, "ab")
	change[2].Failed = 9
	if bad := compareRuns(&out, spec, runs("copy-ladder", wall, 1000, "ab"), change); !bad ||
		!strings.Contains(out.String(), "failed_frac rose") {
		t.Fatalf("failure rise not judged bad:\n%s", out.String())
	}
}
