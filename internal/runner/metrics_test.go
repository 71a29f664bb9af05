package runner

import (
	"sync"
	"testing"

	"mcsquare/internal/cpu"
	"mcsquare/internal/machine"
	"mcsquare/internal/memdata"
	"mcsquare/internal/stats"
)

// TestExactCycleAttribution: a job's SimCycles must equal the sum of the
// final cycle counts of exactly the machines it built — even with
// concurrent neighbors simulating at the same time, which the retired
// global-counter sampling could not attribute.
func TestExactCycleAttribution(t *testing.T) {
	const n = 6
	var (
		mu   sync.Mutex
		want = make(map[string]uint64)
	)
	jobs := make([]Job, n)
	for i := 0; i < n; i++ {
		i := i
		id := string(rune('a' + i))
		jobs[i] = Job{ID: id, Run: func(o Options) []*stats.Table {
			p := machine.DefaultParams()
			p.Env = o.Env
			p.Cores = 2
			p.Cache.Cores = 0 // inherit the reduced core count
			p.MemSize = 16 << 20
			m := machine.New(p)
			buf := m.Alloc(4096, 64)
			m.Run(func(c *cpu.Core) {
				for j := 0; j < 50*(i+1); j++ {
					c.Load(buf+memdata.Addr(64*(j%8)), 8)
					c.Compute(3)
				}
			})
			mu.Lock()
			want[id] = uint64(m.Eng.Now())
			mu.Unlock()
			return nil
		}}
	}
	for _, workers := range []int{1, 4} {
		for k := range want {
			delete(want, k)
		}
		results := Run(Config{Workers: workers}, jobs)
		for _, r := range results {
			if r.Err != nil {
				t.Fatalf("job %s: %v", r.ID, r.Err)
			}
			if r.Metrics.SimCycles != want[r.ID] {
				t.Fatalf("workers=%d job %s SimCycles = %d, want exactly %d",
					workers, r.ID, r.Metrics.SimCycles, want[r.ID])
			}
			if r.Metrics.SimCycles == 0 {
				t.Fatalf("workers=%d job %s simulated nothing", workers, r.ID)
			}
		}
	}
}

// TestResultSnapshotCarriesComponentMetrics: the per-job snapshot must
// contain metrics from the machine's component namespaces and match what
// the machine itself reports.
func TestResultSnapshotCarriesComponentMetrics(t *testing.T) {
	var loads uint64
	jobs := []Job{{ID: "snap", Run: func(o Options) []*stats.Table {
		p := machine.DefaultParams()
		p.Env = o.Env
		p.Cores = 1
		p.Cache.Cores = 0 // inherit the reduced core count
		p.MemSize = 16 << 20
		m := machine.New(p)
		buf := m.Alloc(4096, 64)
		m.Run(func(c *cpu.Core) {
			for j := 0; j < 32; j++ {
				c.Load(buf+memdata.Addr(64*(j%8)), 8)
			}
		})
		loads = m.Cores[0].Stats.Loads
		return nil
	}}}
	r := Run(Config{Workers: 1}, jobs)[0]
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	snap := r.Metrics.Snapshot
	if snap == nil {
		t.Fatal("job built a machine but Snapshot is nil")
	}
	if got := snap.Counter("cpu0.loads"); got != loads || got == 0 {
		t.Fatalf("snapshot cpu0.loads = %d, want %d (nonzero)", got, loads)
	}
	for _, name := range []string{"l1.misses", "mc0.reads", "dram0.reads", "xcon.messages", "sim.cycles"} {
		if _, ok := snap.Get(name); !ok {
			t.Fatalf("snapshot missing %q; has %v", name, snap.Names())
		}
	}
}

// TestNoMachineNoSnapshot: jobs that build no machine report no snapshot
// and zero cycles.
func TestNoMachineNoSnapshot(t *testing.T) {
	r := Run(Config{Workers: 1}, []Job{{ID: "empty", Run: func(Options) []*stats.Table { return nil }}})[0]
	if r.Metrics.Snapshot != nil || r.Metrics.SimCycles != 0 {
		t.Fatalf("empty job reported metrics: %+v", r.Metrics)
	}
}
