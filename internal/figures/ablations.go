package figures

import (
	"fmt"

	"mcsquare/internal/copykit"
	"mcsquare/internal/cpu"
	"mcsquare/internal/machine"
	"mcsquare/internal/memdata"
	"mcsquare/internal/runner"
	"mcsquare/internal/softmc"
	"mcsquare/internal/stats"
	"mcsquare/internal/workloads/kvsnap"
	"mcsquare/internal/workloads/mvcc"
	"mcsquare/internal/workloads/protobuf"
)

func init() {
	extra = append(extra,
		Generator{"ablations", "design-choice ablations beyond the paper's figures", Ablations, ablationsJobs},
		Generator{"pollution", "cache pollution with eager vs lazy copies (§III-F)", Pollution, nil},
	)
}

// ablMergeVariant runs the CTT adjacency-merging ablation for one variant
// (§III-A1: per-element lazy copies of contiguous cachelines, on a CTT
// smaller than the element count) and returns its one-row table.
func ablMergeVariant(o Options, disable bool) *stats.Table {
	tb := stats.NewTable("Ablation: CTT adjacency merging (element-wise array copy, 512-entry CTT)",
		"variant", "cycles", "ctt_highwater", "entries_created")
	p := o.hwParams()
	p.Lazy.CTTCapacity = 512
	p.Lazy.DisableMerge = disable
	m := machine.New(p)
	const elems = 2048 // 2048 x 64B elements = 128 KB array
	src := m.AllocPage(elems * memdata.LineSize)
	dst := m.AllocPage(elems * memdata.LineSize)
	m.FillRandom(src, elems*memdata.LineSize, 1)
	var dur uint64
	m.Run(func(c *cpu.Core) {
		start := c.Now()
		for i := 0; i < elems; i++ {
			off := memdata.Addr(i * memdata.LineSize)
			c.MCLazy(memdata.Range{Start: dst + off, Size: memdata.LineSize}, src+off)
		}
		c.Fence()
		dur = uint64(c.Now() - start)
	})
	name := "merge_on"
	if disable {
		name = "merge_off"
	}
	tb.AddRow(name, dur, m.Metrics.GaugeValue("ctt.high_water"), m.Metrics.CounterValue("ctt.pieces"))
	return tb
}

// ablThresholdPoint runs one interposer-threshold point: where should
// copy_interpose.so draw the lazy/eager line? (The paper uses 1 KB for
// Protobuf.)
func ablThresholdPoint(o Options, th uint64) *stats.Table {
	tb := stats.NewTable("Ablation: interposer threshold (Protobuf runtime, ms)",
		"threshold", "runtime_ms")
	res := protobuf.Run(protobuf.NewMachineFrom(o.params("mc2")), o.protoCfg(copykit.Lazy{Threshold: th}))
	tb.AddRow(th, o.clock().CyclesToMs(uint64(res.Cycles)))
	return tb
}

// ablFlushVariant runs one side of the kernel ranged flush vs wrapper CLWB
// comparison for a huge-page lazy copy (§V-A1 suggests ranged writeback as
// future work; the simulated kernel already uses it via MCLAZY's sweep).
func ablFlushVariant(o Options, wrapper bool) *stats.Table {
	tb := stats.NewTable("Ablation: 2MB lazy copy, instruction sweep vs per-line CLWB wrapper",
		"variant", "cycles")
	size := uint64(memdata.HugePageSize)
	if o.Quick {
		size = 256 << 10
	}
	p := o.hwParams()
	p.MemSize = 512 << 20
	m := machine.New(p)
	src := m.Alloc(size, size)
	dst := m.Alloc(size, size)
	m.FillRandom(src, size, 1)
	var dur uint64
	m.Run(func(c *cpu.Core) {
		start := c.Now()
		if wrapper {
			softmc.MemcpyLazy(c, dst, src, size) // per-line CLWBs
		} else {
			// The kernel path: one MCLAZY per 2 MB-bounded chunk; the
			// instruction's ranged sweep handles writeback.
			for off := uint64(0); off < size; off += memdata.HugePageSize {
				n := min(uint64(memdata.HugePageSize), size-off)
				c.MCLazy(memdata.Range{Start: dst + memdata.Addr(off), Size: n}, src+memdata.Addr(off))
			}
			c.Fence()
		}
		dur = uint64(c.Now() - start)
	})
	name := "instruction_sweep"
	if wrapper {
		name = "wrapper_clwb_per_line"
	}
	tb.AddRow(name, dur)
	return tb
}

// ablThresholds is the interposer-threshold sweep axis.
func ablThresholds() []uint64 { return []uint64{256, 512, 1024, 2048, 4096} }

// Ablations quantifies design choices the paper motivates but does not
// sweep directly: CTT adjacency merging, the bounce writeback, the
// interposer threshold, and the kernel's ranged flush versus the user-space
// wrapper's per-line CLWBs for huge-page copies. Every variant is an
// independent machine, enumerated as jobs by ablationsJobs.
func Ablations(o Options) []*stats.Table { return runJobSet(o, ablationsJobs(o)) }

func ablationsJobs(o Options) JobSet {
	jobs := []runner.Job{
		job(o, "ablations/merge_on", func(o Options) []*stats.Table { return tables(ablMergeVariant(o, false)) }),
		job(o, "ablations/merge_off", func(o Options) []*stats.Table { return tables(ablMergeVariant(o, true)) }),
	}
	for _, th := range ablThresholds() {
		th := th
		jobs = append(jobs, job(o, fmt.Sprintf("ablations/thr%d", th), func(o Options) []*stats.Table {
			return tables(ablThresholdPoint(o, th))
		}))
	}
	jobs = append(jobs,
		job(o, "ablations/flush_sweep", func(o Options) []*stats.Table { return tables(ablFlushVariant(o, false)) }),
		job(o, "ablations/flush_clwb", func(o Options) []*stats.Table { return tables(ablFlushVariant(o, true)) }),
	)
	nThr := len(ablThresholds())
	return JobSet{
		Jobs:  jobs,
		Merge: func(parts [][]*stats.Table) []*stats.Table { return concatGroups(parts, 2, nThr, 2) },
	}
}

// Pollution measures the §III-F claim that lazy copies avoid cache
// pollution: a working set is kept warm while a large unrelated copy runs;
// the working set's re-access misses measure how much the copy evicted.
func Pollution(o Options) []*stats.Table {
	tb := stats.NewTable("Cache pollution: working-set L2 misses after a large copy (§III-F)",
		"mechanism", "ws_l2_misses_after_copy", "copy_cycles")
	// The copy's source + destination (2x 1.5 MB of traffic) overflow the
	// 2 MB L2 when eager, evicting the warm working set; a lazy copy
	// touches neither buffer.
	wsSize := uint64(1 << 20)
	copySize := uint64(1536 << 10)
	for _, lazy := range []bool{false, true} {
		lazy := lazy
		m := machine.New(o.hwParams())
		ws := m.AllocPage(wsSize)
		src := m.AllocPage(copySize)
		dst := m.AllocPage(copySize)
		m.FillRandom(ws, wsSize, 1)
		m.FillRandom(src, copySize, 2)
		var misses, dur uint64
		m.Run(func(c *cpu.Core) {
			// Warm the working set.
			m.Warm(c, memdata.Range{Start: ws, Size: wsSize})
			// Run the copy.
			t0 := c.Now()
			if lazy {
				softmc.MemcpyLazy(c, dst, src, copySize)
			} else {
				softmc.MemcpyEager(c, dst, src, copySize)
			}
			dur = uint64(c.Now() - t0)
			// Re-walk the working set; L2 misses measure what the copy
			// evicted (L1 misses are inevitable for a 1 MB set).
			before := m.Metrics.Snapshot()
			m.Warm(c, memdata.Range{Start: ws, Size: wsSize})
			misses = m.Metrics.Snapshot().Delta(before).Counter("l2.misses")
		})
		name := "memcpy"
		if lazy {
			name = "mc2"
		}
		tb.AddRow(name, misses, dur)
	}
	return []*stats.Table{tb}
}

func init() {
	extra = append(extra,
		Generator{"scaling", "memory-system scaling: channels and interconnect bandwidth", Scaling, nil})
}

// Scaling sweeps the memory-system resources the paper's §V-C scalability
// argument leans on ("servers provision memory bandwidth proportional to
// cores"): DRAM channel count and cache-to-controller interconnect
// bandwidth, under the 8-thread MVCC workload with (MC)².
func Scaling(o Options) []*stats.Table {
	chans := stats.NewTable("Scaling: MVCC 8-thread throughput (kOps/s) vs DRAM channels",
		"channels", "baseline", "mc2")
	for _, ch := range []int{1, 2, 4} {
		bp, lp := o.params("baseline"), o.params("mc2")
		bp.Channels, lp.Channels = ch, ch
		base := mvcc.Run(mvcc.NewMachineFrom(bp), o.mvccCfg(false, 0.125, mvcc.RMW, 8))
		lazy := mvcc.Run(mvcc.NewMachineFrom(lp), o.mvccCfg(true, 0.125, mvcc.RMW, 8))
		chans.AddRow(ch, base.ThroughputKOpsAt(o.clock()), lazy.ThroughputKOpsAt(o.clock()))
	}

	xcon := stats.NewTable("Scaling: MVCC 8-thread throughput (kOps/s) vs interconnect bandwidth",
		"bytes_per_cycle", "baseline", "mc2")
	for _, bw := range []float64{0, 32, 8} {
		bw := bw
		label := "unbounded"
		if bw > 0 {
			label = fmt.Sprintf("%.0f", bw)
		}
		bp, lp := o.params("baseline"), o.params("mc2")
		bp.XConBytesPerCycle, lp.XConBytesPerCycle = bw, bw
		base := mvcc.Run(mvcc.NewMachineFrom(bp), o.mvccCfg(false, 0.125, mvcc.RMW, 8))
		lazy := mvcc.Run(mvcc.NewMachineFrom(lp), o.mvccCfg(true, 0.125, mvcc.RMW, 8))
		xcon.AddRow(label, base.ThroughputKOpsAt(o.clock()), lazy.ThroughputKOpsAt(o.clock()))
	}
	return []*stats.Table{chans, xcon}
}

func init() {
	extra = append(extra,
		Generator{"kvsnap", "KV store write-latency tail under fork snapshots (Redis scenario)", KVSnap, nil})
}

// KVSnap runs the Redis-style snapshotting store: write latency percentiles
// with the native and the (MC)² kernel, huge pages throughout.
func KVSnap(o Options) []*stats.Table {
	p := o.hwParams()
	cfg := kvsnap.Config{Seed: 42, Machine: &p}
	if o.Quick {
		cfg.StoreBytes, cfg.Ops, cfg.SnapshotEach = 8<<20, 60, 30
	}
	tb := stats.NewTable("KV store under fork snapshots: write latency (cycles)",
		"kernel", "p50", "p99", "max", "cow_faults")
	for _, lazy := range []bool{false, true} {
		c := cfg
		c.LazyCOW = lazy
		res := kvsnap.Run(c)
		name := "native"
		if lazy {
			name = "mc2"
		}
		tb.AddRow(name, res.Latencies.Percentile(50), res.Latencies.Percentile(99),
			res.Latencies.Max(), res.COWFaults)
	}
	return []*stats.Table{tb}
}
