// Package protobuf models the Fleetbench Protobuf workload the paper
// evaluates (§V-B): serialization/merge operations whose memcpy sizes
// follow the Fig 4 distribution (max 4 KB, ~56 % exactly 1 KB), issued in
// bursts with a fraction of the copied data accessed afterwards.
//
// Field copies land at unaligned offsets (message headers sit between
// fields), so no copy ever covers a full page — the property that leaves
// zIO with nothing to elide (Fig 14) while (MC)²'s cacheline-granularity
// laziness still applies.
package protobuf

import (
	"fmt"
	"math/rand"

	"mcsquare/internal/copykit"
	"mcsquare/internal/cpu"
	"mcsquare/internal/machine"
	"mcsquare/internal/memdata"
	"mcsquare/internal/sim"
	"mcsquare/internal/stats"
	"mcsquare/internal/trace"
)

// Config parameterizes one run.
type Config struct {
	Ops   int   // merge operations (default 768)
	Burst int   // merges issued back-to-back before the access phase (default 256)
	Seed  int64 // RNG seed

	MinFields, MaxFields int       // fields per message (default 4..12)
	AccessFraction       float64   // fraction of merged fields read afterwards (default 0.4)
	UpdateFraction       float64   // fraction of merged fields overwritten (default 0.1)
	ComputePerOp         sim.Cycle // non-copy work per operation (default 600)

	Copier copykit.Copier
}

func (c Config) withDefaults() Config {
	if c.Ops == 0 {
		c.Ops = 768
	}
	if c.Burst == 0 {
		c.Burst = 256
	}
	if c.MinFields == 0 {
		c.MinFields = 4
	}
	if c.MaxFields == 0 {
		c.MaxFields = 12
	}
	if c.AccessFraction == 0 {
		c.AccessFraction = 0.4
	}
	if c.UpdateFraction == 0 {
		c.UpdateFraction = 0.1
	}
	if c.ComputePerOp == 0 {
		c.ComputePerOp = 600
	}
	if c.Copier == nil {
		c.Copier = copykit.Eager{}
	}
	return c
}

// Result holds the measurements a run produces.
type Result struct {
	Cycles     sim.Cycle // total runtime
	CopyCycles uint64    // cycles spent inside memcpy calls (Fig 2)
	Copies     uint64
	CopiedByte uint64
	Sizes      *stats.Histogram // copy sizes (Fig 4)
	Latencies  *stats.Histogram // per-merge-op cycles (field copies + compute), in issue order

	// Fig 3 counters, sampled over the copy phases only.
	CopyAccesses  uint64 // loads + stores issued during copies
	CopyL1Misses  uint64
	CopyWindowStl uint64 // cycles fully stalled (window + fence) during copies
	CopyIssue     uint64 // cycles spent issuing during copies
}

const headerBytes = 9 // wire-format tag + length between fields

// Run executes the workload on core 0 of m.
func Run(m *machine.Machine, cfg Config) Result {
	cfg = cfg.withDefaults()
	rnd := rand.New(rand.NewSource(cfg.Seed))
	sizes := trace.NewFig4Sampler(cfg.Seed + 1)
	res := Result{Sizes: &stats.Histogram{}, Latencies: &stats.Histogram{}}

	// Source corpus: enough messages that field reads miss the L2, as the
	// paper's trace-driven runs do (>25% miss rate during memcpy, Fig 3).
	const corpusBytes = 8 << 20
	corpus := m.AllocPage(corpusBytes)
	m.FillRandom(corpus, corpusBytes, cfg.Seed+2)

	type field struct {
		off  memdata.Addr // destination offset
		size uint64
	}

	m.Run(func(c *cpu.Core) {
		// Per-copy interval accounting reads single named metrics from the
		// machine registry (a full Snapshot per copy would be wasteful). The
		// names are built once, not per copied field.
		pre := fmt.Sprintf("cpu%d.", c.ID)
		loads, stores := pre+"loads", pre+"stores"
		windowStall, fenceStall, depStall := pre+"window_stall", pre+"fence_stall", pre+"dep_stall"
		issueCycles := pre + "issue_cycles"
		cnt := m.Metrics.CounterValue
		accesses := func() uint64 { return cnt(loads) + cnt(stores) }
		stalls := func() uint64 { return cnt(windowStall) + cnt(fenceStall) + cnt(depStall) }
		start := c.Now()
		opsLeft := cfg.Ops
		for opsLeft > 0 {
			burst := min(cfg.Burst, opsLeft)
			opsLeft -= burst

			// Merge phase: copy fields from the corpus into fresh arenas.
			arena := m.Alloc(uint64(burst)*16<<10, memdata.LineSize)
			cursor := arena
			merged := make([][]field, burst)
			for op := 0; op < burst; op++ {
				op0 := c.Now()
				nf := cfg.MinFields + rnd.Intn(cfg.MaxFields-cfg.MinFields+1)
				for f := 0; f < nf; f++ {
					size := sizes.Sample()
					src := corpus + memdata.Addr(rnd.Intn(corpusBytes-int(size)))
					cursor += headerBytes // wire header: keeps offsets unaligned
					res.Sizes.Add(float64(size))
					res.Copies++
					res.CopiedByte += size

					acc0, miss0 := accesses(), cnt("l1.misses")
					stall0 := stalls()
					issue0 := cnt(issueCycles)
					t0 := c.Now()
					cfg.Copier.Memcpy(c, cursor, src, size)
					res.CopyCycles += uint64(c.Now() - t0)
					res.CopyAccesses += accesses() - acc0
					res.CopyL1Misses += cnt("l1.misses") - miss0
					res.CopyWindowStl += stalls() - stall0
					res.CopyIssue += cnt(issueCycles) - issue0

					merged[op] = append(merged[op], field{off: cursor, size: size})
					cursor += memdata.Addr(size)
				}
				c.Compute(cfg.ComputePerOp)
				res.Latencies.Add(float64(c.Now() - op0))
			}

			// Access phase: deserialize a fraction of what was merged.
			for op := 0; op < burst; op++ {
				for _, f := range merged[op] {
					switch {
					case rnd.Float64() < cfg.UpdateFraction:
						cfg.Copier.Write(c, f.off, []byte{0x42, 0x43})
					case rnd.Float64() < cfg.AccessFraction:
						for off := uint64(0); off < f.size; off += memdata.LineSize {
							cfg.Copier.ReadAsync(c, f.off+memdata.Addr(off), 8)
						}
					}
				}
			}
			c.Fence()
		}
		res.Cycles = c.Now() - start
	})
	return res
}

// NewMachine builds the standard machine for this workload; mutate may
// adjust parameters (CTT sweeps) and may be nil.
func NewMachine(lazy bool, mutate func(*machine.Params)) *machine.Machine {
	p := machine.DefaultParams()
	p.LazyEnabled = lazy
	if mutate != nil {
		mutate(&p)
	}
	return NewMachineFrom(p)
}

// NewMachineFrom builds the workload's machine from fully lowered params
// (a config.MachineSpec lowering); this workload needs no extra sizing.
func NewMachineFrom(p machine.Params) *machine.Machine {
	return machine.New(p)
}
