package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json the comparison reads.
type benchmarkSpec struct {
	Workloads []workloadSpec `json:"workloads"`
	EndToEnd  []metricSpec   `json:"end_to_end"`
	PerLayer  []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkSpec(path string) (*benchmarkSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// readRecords loads the run records -out appended to path.
func readRecords(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// Verdicts of one (workload, metric) pair.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// comparison is the verdict for one metric on one workload.
type comparison struct {
	parent, change [3]float64 // quartiles
	wins, pairs    int
	verdict        string
}

// floors are absolute differences of a metric's median below which two
// sets of runs count as unchanged whatever their ratio. setup_s is about
// 2 ms, so a relative bound alone would read scheduler jitter as a change.
var floors = map[string]float64{"setup_s": 0.01}

// compareMetric judges change runs against parent runs of one metric. Runs
// pair up in order; the change wins a pair when it reads better, and ties
// count for neither side. Medians closer than the metric's floor are
// unchanged. Otherwise the change improved when it won at least nine tenths
// of the pairs and the medians differ by more than the parent's
// interquartile spread; it regressed when its median is worse than the
// parent's by more than the bound. Otherwise it is unchanged, unless either
// side's spread exceeds the bound and not every change run beats every
// parent run: then the runs cannot tell, and the verdict is unresolved.
func compareMetric(m metricSpec, parent, change []float64) comparison {
	c := comparison{parent: quartiles(parent), change: quartiles(change)}
	better := func(a, b float64) bool { // a reads better than b
		if m.Better == "higher" {
			return a > b
		}
		return a < b
	}
	c.pairs = min(len(parent), len(change))
	for i := 0; i < c.pairs; i++ {
		if better(change[i], parent[i]) {
			c.wins++
		}
	}
	pm, cm := c.parent[1], c.change[1]
	worse := ratio(cm-pm, pm) // relative worsening of the median
	if m.Better == "higher" {
		worse = -worse
	}
	spread := max(ratio(c.parent[2]-c.parent[0], pm), ratio(c.change[2]-c.change[0], cm))
	allBetter := len(parent) > 0 && len(change) > 0
	for _, p := range parent {
		for _, x := range change {
			allBetter = allBetter && better(x, p)
		}
	}
	switch {
	case math.Abs(cm-pm) < floors[m.Name]:
		c.verdict = unchanged
	case c.pairs > 0 && 10*c.wins >= 9*c.pairs && better(cm, pm) &&
		math.Abs(cm-pm) > c.parent[2]-c.parent[0]:
		c.verdict = improved
	case worse > m.Bound:
		c.verdict = regressed
	case spread > m.Bound && !allBetter:
		c.verdict = unresolved
	default:
		c.verdict = unchanged
	}
	return c
}

// compareRuns prints the verdict of every end-to-end metric on every
// workload present on both sides, flags workloads whose simulated counts or
// output digests differ ("model changed"), and reports whether the change
// regressed a metric or failed more often.
func compareRuns(w io.Writer, spec *benchmarkSpec, parent, change []runRecord) (bad bool) {
	byWorkload := func(recs []runRecord) map[string][]runRecord {
		out := map[string][]runRecord{}
		for _, r := range recs {
			if !r.Trace {
				out[r.Workload] = append(out[r.Workload], r)
			}
		}
		for _, rs := range out {
			sort.SliceStable(rs, func(i, j int) bool { return rs[i].Seed < rs[j].Seed })
		}
		return out
	}
	pw, cw := byWorkload(parent), byWorkload(change)
	fmt.Fprintf(w, "%-12s %-18s %10s %10s %10s   %10s %10s %10s  %6s  %s\n", "workload", "metric",
		"parent_p25", "p50", "p75", "change_p25", "p50", "p75", "wins", "verdict")
	for _, wl := range spec.Workloads {
		ps, cs := pw[wl.Name], cw[wl.Name]
		if len(ps) == 0 || len(cs) == 0 {
			fmt.Fprintf(w, "%-12s missing runs (parent %d, change %d)\n", wl.Name, len(ps), len(cs))
			bad = true
			continue
		}
		for _, m := range spec.EndToEnd {
			values := func(rs []runRecord) []float64 {
				var v []float64
				for _, r := range rs {
					if x, ok := r.Metrics[m.Name]; ok {
						v = append(v, x)
					}
				}
				return v
			}
			c := compareMetric(m, values(ps), values(cs))
			fmt.Fprintf(w, "%-12s %-18s %10.4g %10.4g %10.4g   %10.4g %10.4g %10.4g  %2d/%-3d  %s\n",
				wl.Name, m.Name, c.parent[0], c.parent[1], c.parent[2],
				c.change[0], c.change[1], c.change[2], c.wins, c.pairs, c.verdict)
			bad = bad || c.verdict == regressed
		}
		pf, cf := failedFrac(ps), failedFrac(cs)
		if cf > pf {
			fmt.Fprintf(w, "%-12s failed_frac rose from %.4g to %.4g\n", wl.Name, pf, cf)
			bad = true
		}
		if diff := modelDiff(ps, cs); diff != "" {
			fmt.Fprintf(w, "%-12s model changed: %s\n", wl.Name, diff)
		}
	}
	return bad
}

func failedFrac(rs []runRecord) float64 {
	var failed, attempted int
	for _, r := range rs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return ratio(float64(failed), float64(attempted))
}

// modelDiff describes how the simulated counts or output digest of the
// first correct run that disagrees with the parent's first correct run
// differ from it, or returns "" when every correct run agrees. Host-side
// changes must leave both identical.
func modelDiff(parent, change []runRecord) string {
	var all []runRecord
	for _, r := range append(append([]runRecord{}, parent...), change...) {
		if r.Correct {
			all = append(all, r)
		}
	}
	if len(all) == 0 {
		return ""
	}
	ref := all[0]
	names := make([]string, 0, len(ref.Counts))
	for k := range ref.Counts {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, r := range all[1:] {
		var diffs []string
		if r.Digest != ref.Digest {
			diffs = append(diffs, fmt.Sprintf("output digest %.12s != %.12s", r.Digest, ref.Digest))
		}
		for _, k := range names {
			if r.Counts[k] != ref.Counts[k] {
				diffs = append(diffs, fmt.Sprintf("%s %g != %g", k, r.Counts[k], ref.Counts[k]))
			}
		}
		if len(diffs) > 0 {
			return fmt.Sprintf("%s (seed %d)", strings.Join(diffs, "; "), r.Seed)
		}
	}
	return ""
}

// compareMain compares the run records in two -out files.
func compareMain(parentPath, changePath string) (bad bool, err error) {
	spec, err := readBenchmarkSpec("BENCHMARK.json")
	if err != nil {
		return false, err
	}
	parent, err := readRecords(parentPath)
	if err != nil {
		return false, err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return false, err
	}
	return compareRuns(os.Stdout, spec, parent, change), nil
}
