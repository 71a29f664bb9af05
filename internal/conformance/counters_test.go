package conformance

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mcsquare/internal/dram"
	"mcsquare/internal/fleet"
	"mcsquare/internal/machine"
	"mcsquare/internal/memctrl"
	"mcsquare/internal/memdata"
	"mcsquare/internal/metrics"
	"mcsquare/internal/sim"
	"mcsquare/internal/stats"
)

// The counter audit: every uint64 stats field on the hot components must
// have a registry twin that reads through to the exact same memory (set
// the field via reflection, observe the sentinel through a snapshot).
// Adding a counter without registering
// it — or registering one against the wrong field — fails here, and the
// full field→metric mapping is locked by testdata/counters.golden.

var updateGolden = flag.Bool("update", false, "rewrite golden files instead of comparing")

// nameOverrides lists registered names that are not the mechanical
// snake_case of the field (historical spellings, kept stable because the
// figure pipeline keys on them).
var nameOverrides = map[string]string{
	"MCFrees":      "mcfrees",
	"MCFreedBytes": "mcfreed_bytes",
}

// snakeCase converts a Go field name, treating an uppercase run as one
// acronym (ECCRetries → ecc_retries, LazyStallsBPQ → lazy_stalls_bpq).
func snakeCase(s string) string {
	var b strings.Builder
	rs := []rune(s)
	for i, r := range rs {
		upper := r >= 'A' && r <= 'Z'
		if upper && i > 0 {
			prevUpper := rs[i-1] >= 'A' && rs[i-1] <= 'Z'
			nextLower := i+1 < len(rs) && rs[i+1] >= 'a' && rs[i+1] <= 'z'
			if !prevUpper || nextLower {
				b.WriteByte('_')
			}
		}
		if upper {
			r += 'a' - 'A'
		}
		b.WriteRune(r)
	}
	return b.String()
}

func metricName(field string) string {
	if n, ok := nameOverrides[field]; ok {
		return n
	}
	return snakeCase(field)
}

// auditCounters sets a distinct sentinel in every uint64 field of the
// struct at v (addressable), then checks the registry exposes each under
// prefix.<name> with exactly that value. Returns the audited mapping.
func auditCounters(t *testing.T, reg *metrics.Registry, prefix string, v reflect.Value) []string {
	t.Helper()
	var mapping []string
	typ := v.Type()
	for i := 0; i < v.NumField(); i++ {
		f := typ.Field(i)
		if f.Type.Kind() != reflect.Uint64 || !f.IsExported() {
			continue // gauges (ints, funcs) are outside the counter audit
		}
		sentinel := uint64(1000 + 7*i)
		v.Field(i).SetUint(sentinel)
		name := prefix + "." + metricName(f.Name)
		snap := reg.Snapshot()
		val, ok := snap.Get(name)
		if !ok {
			t.Errorf("%s.%s: no registry twin %q", typ.Name(), f.Name, name)
			continue
		}
		if val.Kind != metrics.KindCounter || val.Count != sentinel {
			t.Errorf("%s registered against the wrong field: counter reads %d, field holds %d",
				name, val.Count, sentinel)
		}
		mapping = append(mapping, fmt.Sprintf("%s.%s -> %s", typ.Name(), f.Name, name))
	}
	return mapping
}

func TestCounterRegistryAudit(t *testing.T) {
	var mapping []string

	// DRAM channel: counters live directly on the Channel struct.
	{
		reg := metrics.NewRegistry()
		ch := dram.NewChannel(dram.DDR4Config())
		ch.PublishMetrics(reg.Scope("dram"))
		mapping = append(mapping, auditCounters(t, reg, "dram", reflect.ValueOf(ch).Elem())...)
	}

	// Memory controller: counters live on Controller.Stats.
	{
		reg := metrics.NewRegistry()
		eng := sim.NewEngine()
		ch := dram.NewChannel(dram.DDR4Config())
		mc := memctrl.New(0, eng, memctrl.DefaultConfig(), ch, memdata.NewPhysical(1<<20))
		mc.PublishMetrics(reg.Scope("mc"))
		mapping = append(mapping, auditCounters(t, reg, "mc", reflect.ValueOf(&mc.Stats).Elem())...)
	}

	// Lazy-copy engine and CTT: registered by the machine under the
	// "engine" and "ctt" namespaces.
	{
		m := machine.New(machine.DefaultParams())
		mapping = append(mapping, auditCounters(t, m.Metrics, "engine",
			reflect.ValueOf(&m.Lazy.Stats).Elem())...)
		mapping = append(mapping, auditCounters(t, m.Metrics, "ctt",
			reflect.ValueOf(&m.Lazy.CTT().Stats).Elem())...)
	}

	// Fleet result: run counters under "fleet", the fault-tolerance
	// plane's availability accounting under "fleet.resilience".
	{
		reg := metrics.NewRegistry()
		res := &fleet.Result{Latencies: &stats.Histogram{}}
		res.PublishInto(reg)
		mapping = append(mapping, auditCounters(t, reg, "fleet",
			reflect.ValueOf(res).Elem())...)
		mapping = append(mapping, auditCounters(t, reg, "fleet.resilience",
			reflect.ValueOf(&res.Resilience).Elem())...)
	}

	if t.Failed() {
		return
	}
	got := strings.Join(mapping, "\n") + "\n"
	golden := filepath.Join("testdata", "counters.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d mappings)", golden, len(mapping))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Fatalf("counter mapping drifted (rerun with -update if intentional):\nwant:\n%s\ngot:\n%s",
			want, got)
	}
}
