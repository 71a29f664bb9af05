package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"

	"mcsquare/internal/bench"
	"mcsquare/internal/cliutil"
	"mcsquare/internal/core"
	"mcsquare/internal/fleet"
	"mcsquare/internal/machine"
	"mcsquare/internal/memdata"
)

// Layer probes time one public entry point of a layer in isolation with
// testing.Benchmark. They are reported only by traced runs, as
// probe.<name>.ns_op and probe.<name>.allocs_op (and bytes_op where a
// probe's allocation volume is what an optimisation would move), with the
// "/" of a name written as ".". The engine, proc, trace, invariants and
// timeline probes are internal/bench's microbenchmarks under their own
// names; the ones below cover the layers those leave out.

type probe struct {
	name      string
	withBytes bool
	// setup builds the probe's fixture once; the returned benchmark times
	// the operation on it.
	setup func() (func(b *testing.B), error)
}

var probes = []probe{
	{name: "machine/new-default", withBytes: true, setup: func() (func(*testing.B), error) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				machine.New(machine.DefaultParams())
			}
		}, nil
	}},
	{name: "core/ctt-destcover", setup: func() (func(*testing.B), error) {
		// A full Table I CTT of disjoint 4 KiB copies that cannot merge.
		const entries = 2048
		ctt := core.NewCTT(entries)
		for i := 0; i < entries; i++ {
			dst := memdata.Range{Start: memdata.Addr(i) * 8 << 10, Size: 4 << 10}
			ctt.Insert(dst, memdata.Addr(1<<30)+memdata.Addr(i)*16<<10)
		}
		if ctt.Len() != entries {
			return nil, fmt.Errorf("CTT holds %d entries, want %d", ctt.Len(), entries)
		}
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a := memdata.Addr(i*7919%entries)*8<<10 + memdata.Addr(i%64)*memdata.LineSize
				ctt.DestCover(memdata.Range{Start: a, Size: memdata.LineSize})
			}
		}, nil
	}},
	{name: "fleet/calibrate", setup: func() (func(*testing.B), error) {
		f, err := probeFleet()
		if err != nil {
			return nil, err
		}
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := f.Calibrate("mc2"); err != nil {
					b.Fatal(err)
				}
			}
		}, nil
	}},
	{name: "fleet/simulate", setup: func() (func(*testing.B), error) {
		// One operation is one request through the queueing model.
		f, err := probeFleet()
		if err != nil {
			return nil, err
		}
		cal, err := f.Calibrate("baseline")
		if err != nil {
			return nil, err
		}
		rate := f.OfferedReqPerCycle(cal)
		f.Quick = false // serve exactly Block.Requests
		return func(b *testing.B) {
			f.Block.Requests = b.N
			f.Simulate(cal, rate)
		}, nil
	}},
	{name: "metrics/snapshot", setup: func() (func(*testing.B), error) {
		m := machine.New(machine.DefaultParams())
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.Metrics.Snapshot()
			}
		}, nil
	}},
}

// probeFleet is the fleet workloads' one-machine fleet.
func probeFleet() (*fleet.Fleet, error) {
	spec, err := cliutil.LoadSpec("", fleetSet(1_500_000))
	if err != nil {
		return nil, err
	}
	return fleet.New(*spec, fleet.Options{Quick: true})
}

func probeKey(name, what string) string {
	return "probe." + strings.ReplaceAll(name, "/", ".") + "." + what
}

// probeTime is how long testing.Benchmark runs each probe, in place of its
// default second, so that a traced run's probes take about 10 s of its
// --seconds rather than 25.
const probeTime = "250ms"

// probesMain runs every probe and writes their metrics as JSON to standard
// output.
func probesMain() error {
	testing.Init()
	if err := flag.Set("test.benchtime", probeTime); err != nil {
		return err
	}
	out := map[string]float64{}
	for _, r := range bench.EngineMicro(nil, nil) {
		// bench.Result keeps ns/op as testing.BenchmarkResult.NsPerOp rounds
		// it, to a whole nanosecond.
		out[probeKey(r.Name, "ns_op")] = r.NsPerOp
		out[probeKey(r.Name, "allocs_op")] = r.AllocsPerOp
	}
	for _, p := range probes {
		fn, err := p.setup()
		if err != nil {
			return fmt.Errorf("probe %s: %w", p.name, err)
		}
		br := testing.Benchmark(fn)
		if br.N == 0 {
			return fmt.Errorf("probe %s failed", p.name)
		}
		n := float64(br.N)
		out[probeKey(p.name, "ns_op")] = float64(br.T.Nanoseconds()) / n
		out[probeKey(p.name, "allocs_op")] = float64(br.MemAllocs) / n
		if p.withBytes {
			out[probeKey(p.name, "bytes_op")] = float64(br.MemBytes) / n
		}
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

// probeMetrics runs the probes in a child process, so their heap stays
// apart from the parent's and the rounds'.
func probeMetrics(self string) (map[string]float64, error) {
	cmd := exec.Command(self, "-probes")
	cmd.Env = childEnv()
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	out := map[string]float64{}
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	return out, nil
}
