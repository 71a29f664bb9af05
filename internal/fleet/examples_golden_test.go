package fleet

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mcsquare/internal/config"
	"mcsquare/internal/machine"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files instead of comparing")

// TestExampleConfigsGolden pins what `mcsim -fleet -config <file>
// -timeline <out>` produces for each fleet example config: the totals
// mcsim prints, the resilience summary, and the timeline as CSV and JSON.
// The config's Faults block runs in the Env the way mcsim binds it, and
// the Timeline block is forced on the way -timeline forces it. Run `go
// test ./internal/fleet -run ExampleConfigsGolden -update` after an
// intentional change.
func TestExampleConfigsGolden(t *testing.T) {
	for _, name := range []string{"fleet-mixed", "fleet-resilience", "fleet-timeline"} {
		t.Run(name, func(t *testing.T) {
			spec, err := config.Load(filepath.Join("..", "..", "examples", "configs", name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			ts := config.TimelineSpec{}
			if spec.Timeline != nil {
				ts = *spec.Timeline
			}
			ts.Enabled = true
			spec.Timeline = &ts
			env := machine.NewEnv(machine.Env{Faults: spec.Faults})
			res, err := Run(spec, Options{Quick: true, Env: env})
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, filepath.Join("testdata", name+".golden"), exampleOutput(t, res, env))
		})
	}
}

// exampleOutput renders a fleet run the way mcsim -fleet prints it,
// followed by the run's timeline in both export formats.
func exampleOutput(t *testing.T, res *Result, env *machine.Env) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "fleet/%s: %d machines, capacity %.0f kOps/s, offered %.0f kOps/s\n",
		res.Mechanism, res.Machines, res.CapacityKOps, res.OfferedKOps())
	fmt.Fprintf(&b, "  completed %d/%d (dropped %d), goodput %.0f kOps/s\n",
		res.Completed, res.Offered, res.Dropped, res.GoodputKOps())
	fmt.Fprintf(&b, "  latency ms: p50 %.4f  p95 %.4f  p99 %.4f  p99.9 %.4f  (mean queue depth %.2f)\n",
		res.PercentileMs(50), res.PercentileMs(95), res.PercentileMs(99), res.PercentileMs(99.9),
		res.MeanQueueDepth)
	if res.ResilienceOn {
		fmt.Fprintln(&b, res.ResilienceSummary())
	}
	tl := res.Timeline
	fmt.Fprintf(&b, "  timeline: %d windows of %d cycles\n", len(tl.Windows), tl.WindowCycles)
	if tl.SLOP99Ms > 0 {
		if tl.SLOViolated {
			fmt.Fprintf(&b, "  SLO p99 <= %.4f ms first violated in window %d (%.4f ms into the run)\n",
				tl.SLOP99Ms, tl.FirstViolation, tl.TimeToFirstViolationMs())
		} else {
			fmt.Fprintf(&b, "  SLO p99 <= %.4f ms held in every window\n", tl.SLOP99Ms)
		}
	}
	if sched := env.FaultSchedule(); sched.Active() {
		var fired uint64
		for _, m := range env.Machines() {
			fired += m.Faults.FiredTotal()
		}
		fmt.Fprintf(&b, "faultinject: %d fault(s) fired (schedule seed %#x)\n", fired, sched.Seed)
	}
	for _, file := range []string{"timeline.csv", "timeline.json"} {
		var buf bytes.Buffer
		if err := tl.Write(&buf, file); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "== %s ==\n%s", file, buf.String())
	}
	return b.String()
}

// checkGolden compares got against the golden file, or rewrites the file
// under -update.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	w, g := strings.Split(string(want), "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			t.Fatalf("output diverges from %s at line %d (rerun with -update if intentional):\nwant: %s\ngot:  %s",
				path, i+1, wl, gl)
		}
	}
}
