package workloads

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mcsquare/internal/copykit"
	"mcsquare/internal/machine"
	"mcsquare/internal/metrics"
	"mcsquare/internal/workloads/kvsnap"
	"mcsquare/internal/workloads/micro"
	"mcsquare/internal/workloads/mongo"
	"mcsquare/internal/workloads/mvcc"
	"mcsquare/internal/workloads/oswl"
	"mcsquare/internal/workloads/protobuf"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files instead of comparing")

// Every workload family gets a tiny-machine smoke run whose scalar results
// and full merged metric snapshot are pinned against a golden file. The
// runs are deterministic, so any drift — a changed default, a different
// event interleaving, a metric rename — shows up as a diff. After an
// intentional change: go test ./internal/workloads -run Golden -update
//
// The scalar header lines double as sanity floors (nonzero ops, nonzero
// cycles); the snapshot section pins the accounting.

// capture runs fn, which builds its machines from the default params it is
// given, and returns the workload's scalar lines followed by the merged
// snapshot of every machine fn built in those params' run environment.
func capture(fn func(p machine.Params, emit func(format string, args ...any))) string {
	p := machine.DefaultParams()
	p.Env = machine.NewEnv(machine.Env{})

	var b strings.Builder
	fn(p, func(format string, args ...any) { fmt.Fprintf(&b, format+"\n", args...) })

	snap := p.Env.Metrics().Snapshot()
	for _, name := range snap.Names() {
		v := snap.Values[name]
		switch v.Kind {
		case metrics.KindCounter:
			fmt.Fprintf(&b, "%s counter %d\n", name, v.Count)
		case metrics.KindGauge:
			fmt.Fprintf(&b, "%s gauge %g\n", name, v.Value)
		case metrics.KindHistogram:
			fmt.Fprintf(&b, "%s histogram n=%d sum=%g\n", name, v.Count, v.Value)
		}
	}
	return b.String()
}

func checkGolden(t *testing.T, family, got string) {
	t.Helper()
	golden := filepath.Join("testdata", family+".golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Fatalf("%s drifted from %s (rerun with -update if intentional):\nwant:\n%s\ngot:\n%s",
			family, golden, want, got)
	}
}

func TestKVSnapGolden(t *testing.T) {
	got := capture(func(p machine.Params, emit func(string, ...any)) {
		r := kvsnap.Run(kvsnap.Config{
			StoreBytes: 4 << 20, ValueSize: 512, Ops: 30, SnapshotEach: 10,
			LazyCOW: true, Seed: 1, Machine: &p,
		})
		if r.Snapshots == 0 || r.Latencies.N() == 0 {
			t.Fatalf("degenerate run: %+v", r)
		}
		emit("kvsnap snapshots %d cow_faults %d writes %d mean_cycles %.1f",
			r.Snapshots, r.COWFaults, r.Latencies.N(), r.Latencies.Mean())
	})
	checkGolden(t, "kvsnap", got)
}

func TestMicroGolden(t *testing.T) {
	got := capture(func(p machine.Params, emit func(string, ...any)) {
		opt := micro.Options{MaxSize: 32 << 10, BufSize: 32 << 10, L2Size: 16 << 10, Base: &p}
		tab := micro.CopyLatencyRow(opt, 16<<10)
		emit("micro copy_latency_16k rows %d", tab.NumRows())
	})
	checkGolden(t, "micro", got)
}

func TestMongoGolden(t *testing.T) {
	got := capture(func(p machine.Params, emit func(string, ...any)) {
		m := mongo.NewMachineFrom(p)
		r := mongo.Run(m, mongo.Config{
			Inserts: 4, Fields: 4, FieldSize: 16 << 10, Seed: 1,
			IndexPrefix: 64, JournalAccess: 0.25,
			Copier: copykit.Lazy{Threshold: 1024},
		})
		if r.Cycles == 0 {
			t.Fatal("no simulated work")
		}
		emit("mongo cycles %d inserts %d", r.Cycles, r.Latencies.N())
	})
	checkGolden(t, "mongo", got)
}

func TestMVCCGolden(t *testing.T) {
	got := capture(func(p machine.Params, emit func(string, ...any)) {
		m := mvcc.NewMachineFrom(p)
		r := mvcc.Run(m, mvcc.Config{
			Threads: 2, Rows: 32, RowSize: 2 << 10, OpsPerThread: 10,
			UpdateFraction: 0.5, Mode: mvcc.RMW, Lazy: true, Seed: 1,
		})
		if r.Ops == 0 || r.Cycles == 0 {
			t.Fatalf("degenerate run: %+v", r)
		}
		emit("mvcc cycles %d ops %d", r.Cycles, r.Ops)
	})
	checkGolden(t, "mvcc", got)
}

func TestOSWLGolden(t *testing.T) {
	got := capture(func(p machine.Params, emit func(string, ...any)) {
		lat := oswl.HugeCOW(oswl.HugeCOWConfig{
			RegionBytes: 4 << 20, Accesses: 16, Lazy: true, Seed: 1, Machine: &p,
		})
		if len(lat) == 0 {
			t.Fatal("no COW accesses measured")
		}
		emit("oswl hugecow accesses %d first %d last %d", len(lat), lat[0], lat[len(lat)-1])
		bw := oswl.PipeThroughput(oswl.PipeConfig{
			TransferSize: 16 << 10, Transfers: 8, Lazy: true, Seed: 1, Machine: &p,
		})
		emit("oswl pipe bytes_per_kcycle %.2f", bw)
	})
	checkGolden(t, "oswl", got)
}

func TestProtobufGolden(t *testing.T) {
	got := capture(func(p machine.Params, emit func(string, ...any)) {
		m := protobuf.NewMachineFrom(p)
		r := protobuf.Run(m, protobuf.Config{
			Ops: 32, Burst: 8, Seed: 1,
			Copier: copykit.Lazy{Threshold: 1024},
		})
		if r.Cycles == 0 || r.Copies == 0 {
			t.Fatalf("degenerate run: %+v", r)
		}
		emit("protobuf cycles %d copies %d copy_cycles %d", r.Cycles, r.Copies, r.CopyCycles)
	})
	checkGolden(t, "protobuf", got)
}
