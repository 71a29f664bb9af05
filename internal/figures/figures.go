// Package figures regenerates every figure and table of the paper's
// evaluation (§II and §V) as tab-separated tables, mirroring the artifact's
// results/figureX.txt outputs. cmd/mcfigures and the root benchmark suite
// are thin wrappers around this package.
//
// Every figure draws its machine from a config.MachineSpec (Options.Spec;
// nil means config.Default(), which lowers to machine.DefaultParams()) and
// builds copy mechanisms through the config registry. Sweep figures are
// declared as SweepSpecs (see sweep.go) — axes of labelled spec overrides
// compiled onto the JobSet machinery.
package figures

import (
	"fmt"

	"mcsquare/internal/config"
	"mcsquare/internal/copykit"
	"mcsquare/internal/cpu"
	"mcsquare/internal/machine"
	"mcsquare/internal/memdata"
	"mcsquare/internal/oskern"
	"mcsquare/internal/runner"
	"mcsquare/internal/softmc"
	"mcsquare/internal/stats"
	"mcsquare/internal/trace"
	"mcsquare/internal/workloads/micro"
	"mcsquare/internal/workloads/mongo"
	"mcsquare/internal/workloads/mvcc"
	"mcsquare/internal/workloads/oswl"
	"mcsquare/internal/workloads/protobuf"

	// The zio mechanism registers itself with the config registry; figures
	// build it by name only.
	_ "mcsquare/internal/zio"
)

// Options scales the experiments. Quick mode shrinks buffers and operation
// counts so the full set completes in minutes; the shapes survive scaling.
type Options struct {
	Quick bool
	// Spec is the machine every figure starts from; nil uses
	// config.Default() (the paper's Table I machine). Figures that compare
	// mechanisms lower the same spec once per mechanism.
	Spec *config.MachineSpec
	// Env is the run environment every machine is built in (nil: bare
	// machines). Decomposed jobs take it from the runner when they run.
	Env *machine.Env
}

// spec returns a copy of the base machine spec.
func (o Options) spec() config.MachineSpec {
	if o.Spec != nil {
		return *o.Spec
	}
	return config.Default()
}

// params lowers the base spec under the named mechanism.
func (o Options) params(mech string) machine.Params { return o.specParams(o.spec(), mech) }

// clock is the base spec's core clock, for cycle→wall-time conversions.
// The Table I default (4 GHz) reproduces the legacy hardcoded conversion
// byte-for-byte; a -set ClockGHz=2 spec now scales wall-clock columns
// instead of silently reporting 4 GHz numbers.
func (o Options) clock() stats.Clock { return stats.Clock(o.spec().ClockGHz) }

// copier builds the named mechanism for m through the registry.
func (o Options) copier(mech string, m *machine.Machine) copykit.Copier {
	return specCopier(o.spec(), mech, m)
}

// hwParams lowers the base spec with the (MC)² hardware installed
// regardless of the spec's mechanism. OS-experiment machines always carry
// the lazy engine; the kernel flag decides whether it is used.
func (o Options) hwParams() machine.Params {
	p := o.spec().MustParams()
	p.LazyEnabled = true
	p.Env = o.Env
	return p
}

func (o Options) microOpt() micro.Options {
	mopt := micro.Options{}
	if o.Quick {
		mopt = micro.Quick()
	}
	p := machine.DefaultParams()
	if o.Spec != nil {
		p = o.hwParams()
	}
	p.Env = o.Env
	mopt.Base = &p
	return mopt
}

func (o Options) protoCfg(cp copykit.Copier) protobuf.Config {
	cfg := protobuf.Config{Seed: 42, Copier: cp}
	if o.Quick {
		cfg.Ops, cfg.Burst = 192, 64
	}
	return cfg
}

func (o Options) mongoCfg(cp copykit.Copier) mongo.Config {
	cfg := mongo.Config{Seed: 42, Copier: cp}
	if o.Quick {
		cfg.Inserts, cfg.Fields, cfg.FieldSize = 8, 4, 32<<10
	}
	return cfg
}

func (o Options) mvccCfg(lazy bool, frac float64, mode mvcc.Mode, threads int) mvcc.Config {
	cfg := mvcc.Config{
		Threads:        threads,
		UpdateFraction: frac,
		Mode:           mode,
		Lazy:           lazy,
		Seed:           42,
	}
	if o.Quick {
		cfg.Rows, cfg.OpsPerThread = 128, 60
	}
	return cfg
}

// Generator produces the tables of one figure.
type Generator struct {
	ID    string // "2", "10", "16", "table1", ...
	Title string
	Run   func(o Options) []*stats.Table
	// jobs optionally decomposes the figure into independent runner jobs
	// (see jobs.go); nil generators run as a single job.
	jobs func(o Options) JobSet
}

// extra holds generators beyond the paper's figures (ablations, studies);
// they register themselves from init functions.
var extra []Generator

// All returns every figure generator in paper order, followed by the
// repository's own extension studies.
func All() []Generator {
	return append([]Generator{
		{"2", "copy overhead across use cases", Figure2, figure2Jobs},
		{"3", "source of Protobuf memcpy overhead", Figure3, nil},
		{"4", "distribution of Protobuf memcpy sizes", Figure4, nil},
		{"10", "copy latency", Figure10, figure10Jobs},
		{"11", "memcpy_lazy overhead breakdown", Figure11, nil},
		{"12", "sequential destination access", Figure12, nil},
		{"13", "random destination access", Figure13, nil},
		{"14", "Protobuf runtime", Figure14, nil},
		{"15", "MongoDB insert latency", Figure15, nil},
		{"16", "MVCC RMW throughput", Figure16, figure16Jobs},
		{"17", "MVCC write-only throughput", Figure17, figure17Jobs},
		{"18", "huge-page COW write latencies", Figure18, figure18Jobs},
		{"19", "pipe transfer throughput", Figure19, nil},
		{"20", "CTT size and threshold sweep", Figure20, figure20Jobs},
		{"21", "BPQ size sweep", Figure21, nil},
		{"22", "parallel CTT freeing", Figure22, figure22Jobs},
		{"table1", "simulated configuration", Table1, nil},
	}, extra...)
}

// ByID returns the generator for a figure id.
func ByID(id string) (Generator, bool) {
	for _, g := range All() {
		if g.ID == id {
			return g, true
		}
	}
	return Generator{}, false
}

// ---------------------------------------------------------------------------
// Motivation figures (§II)
// ---------------------------------------------------------------------------

func figure2Table() *stats.Table {
	return stats.NewTable("Figure 2: copy overhead (fraction of cycles in memcpy)",
		"workload", "copy_overhead")
}

// Figure2 measures the fraction of cycles spent copying in four use cases.
// Each use case is an independent simulation; figure2Jobs enumerates them
// as runner jobs and Figure2 is their serial execution.
func Figure2(o Options) []*stats.Table { return runJobSet(o, figure2Jobs(o)) }

func figure2Jobs(o Options) JobSet {
	row := func(name string, v float64) []*stats.Table {
		tb := figure2Table()
		tb.AddRow(name, v)
		return tables(tb)
	}
	return JobSet{
		Jobs: []runner.Job{
			job(o, "2/protobuf", func(o Options) []*stats.Table {
				pm := protobuf.NewMachineFrom(o.params("baseline"))
				pres := protobuf.Run(pm, o.protoCfg(o.copier("baseline", pm)))
				return row("protobuf", float64(pres.CopyCycles)/float64(pres.Cycles))
			}),
			job(o, "2/mongodb", func(o Options) []*stats.Table {
				mm := mongo.NewMachineFrom(o.params("baseline"))
				mcfg := o.mongoCfg(nil)
				mcfg.Copier = &timedCopier{inner: o.copier("baseline", mm)}
				mres := mongo.Run(mm, mcfg)
				tc := mcfg.Copier.(*timedCopier)
				return row("mongodb_inserts", float64(tc.copyCycles)/float64(mres.Cycles))
			}),
			job(o, "2/cicada", func(o Options) []*stats.Table {
				// MVCC writes: compare update-heavy run against the same run
				// with the version copies removed; the difference is copy
				// overhead.
				vcfg := o.mvccCfg(false, 0.125, mvcc.RMW, 1)
				full := mvcc.Run(mvcc.NewMachineFrom(o.params("baseline")), vcfg)
				nocopy := mvcc.Run(mvcc.NewMachineFrom(o.params("baseline")), func() mvcc.Config {
					c := vcfg
					c.RowSize = 64 // degenerate tuples: copies ~free, same txn count
					return c
				}())
				frac := 1 - float64(nocopy.Cycles)/float64(full.Cycles)
				if frac < 0 {
					frac = 0
				}
				return row("cicada_writes", frac)
			}),
			job(o, "2/fork_cow", func(o Options) []*stats.Table {
				// Fork + COW fault: share of the fault handler spent copying
				// the page.
				p := o.hwParams()
				m := machine.New(p)
				k := oskern.New(m)
				as := k.NewAddressSpace()
				as.MapRegion(1<<30, memdata.PageSize, false)
				var copyCycles, faultCycles uint64
				m.Run(func(c *cpu.Core) {
					as.Fork(c)
					t0 := c.Now()
					// Touch through the VM layer: triggers the COW fault.
					as.Store(c, 1<<30, []byte{1})
					c.Fence()
					faultCycles = uint64(c.Now() - t0)
				})
				// The copy portion alone, measured on a fresh machine.
				m2 := machine.New(p)
				src := m2.AllocPage(memdata.PageSize)
				dst := m2.AllocPage(memdata.PageSize)
				m2.FillRandom(src, memdata.PageSize, 1)
				m2.Run(func(c *cpu.Core) {
					t0 := c.Now()
					softmc.MemcpyEager(c, dst, src, memdata.PageSize)
					copyCycles = uint64(c.Now() - t0)
				})
				return row("fork_cow_fault_4K", float64(copyCycles)/float64(faultCycles))
			}),
		},
		Merge: concatParts,
	}
}

// timedCopier wraps a copier and accumulates cycles spent in Memcpy.
type timedCopier struct {
	inner      copykit.Copier
	copyCycles uint64
}

func (t *timedCopier) Memcpy(c *cpu.Core, dst, src memdata.Addr, n uint64) {
	t0 := c.Now()
	t.inner.Memcpy(c, dst, src, n)
	t.copyCycles += uint64(c.Now() - t0)
}
func (t *timedCopier) Read(c *cpu.Core, a memdata.Addr, n uint64) []byte {
	return t.inner.Read(c, a, n)
}
func (t *timedCopier) ReadAsync(c *cpu.Core, a memdata.Addr, n uint64) { t.inner.ReadAsync(c, a, n) }
func (t *timedCopier) Write(c *cpu.Core, a memdata.Addr, data []byte)  { t.inner.Write(c, a, data) }
func (t *timedCopier) Free(c *cpu.Core, r memdata.Range)               { t.inner.Free(c, r) }

// Figure3 breaks down where Protobuf memcpy cycles go.
func Figure3(o Options) []*stats.Table {
	m := protobuf.NewMachineFrom(o.params("baseline"))
	res := protobuf.Run(m, o.protoCfg(o.copier("baseline", m)))
	tb := stats.NewTable("Figure 3: source of Protobuf memcpy overhead (fractions during memcpy)",
		"metric", "fraction")
	missRate := float64(res.CopyL1Misses) / float64(res.CopyAccesses)
	memMiss := 1 - float64(res.CopyIssue)/float64(res.CopyCycles)
	stall := float64(res.CopyWindowStl) / float64(res.CopyCycles)
	tb.AddRow("cache_miss", missRate)
	tb.AddRow("mem_miss_cycles", memMiss)
	tb.AddRow("mem_miss_stall_cycles", stall)
	return []*stats.Table{tb}
}

// Figure4 emits the Protobuf copy-size CDF, both the model and a sampled
// workload run.
func Figure4(o Options) []*stats.Table {
	m := protobuf.NewMachineFrom(o.params("baseline"))
	res := protobuf.Run(m, o.protoCfg(o.copier("baseline", m)))
	tb := stats.NewTable("Figure 4: cumulative distribution of Protobuf memcpy sizes",
		"size", "cdf_model", "cdf_measured")
	sizes := trace.Fig4Sizes()
	model := trace.Fig4CDF()
	thresholds := make([]float64, len(sizes))
	for i, s := range sizes {
		thresholds[i] = float64(s)
	}
	measured := res.Sizes.CDF(thresholds)
	for i, s := range sizes {
		tb.AddRow(fmt.Sprintf("%dB", s), model[i], measured[i])
	}
	return []*stats.Table{tb}
}

// ---------------------------------------------------------------------------
// Microbenchmarks (§V-A, §V-C)
// ---------------------------------------------------------------------------

// Figure10 is the copy-latency sweep; figure10Jobs enumerates its size
// ladder as one job per size.
func Figure10(o Options) []*stats.Table { return runJobSet(o, figure10Jobs(o)) }

func figure10Jobs(o Options) JobSet {
	var jobs []runner.Job
	for _, size := range micro.SweepSizes(o.microOpt()) {
		size := size
		jobs = append(jobs, job(o, fmt.Sprintf("10/%d", size), func(o Options) []*stats.Table {
			return tables(micro.CopyLatencyRow(o.microOpt(), size))
		}))
	}
	return JobSet{Jobs: jobs, Merge: concatParts}
}

// Figure11 is the memcpy_lazy overhead breakdown.
func Figure11(o Options) []*stats.Table { return []*stats.Table{micro.Breakdown(o.microOpt())} }

// Figure12 is the sequential destination access sweep.
func Figure12(o Options) []*stats.Table { return []*stats.Table{micro.SeqAccess(o.microOpt())} }

// Figure13 is the random destination access sweep.
func Figure13(o Options) []*stats.Table { return []*stats.Table{micro.RandAccess(o.microOpt())} }

// Figure21 is the BPQ sweep.
func Figure21(o Options) []*stats.Table { return []*stats.Table{micro.SrcWrite(o.microOpt())} }

// ---------------------------------------------------------------------------
// Application workloads (§V-B)
// ---------------------------------------------------------------------------

// figure14Mechs is the mechanism comparison of Figs 14 and 15, in paper
// order; each name is built through the config registry.
func figure14Mechs() []string { return []string{"baseline", "zio", "mc2"} }

// Figure14 compares Protobuf runtime across mechanisms.
func Figure14(o Options) []*stats.Table {
	tb := stats.NewTable("Figure 14: Protobuf runtime (ms)", "mechanism", "runtime_ms")
	for _, mech := range figure14Mechs() {
		m := protobuf.NewMachineFrom(o.params(mech))
		res := protobuf.Run(m, o.protoCfg(o.copier(mech, m)))
		tb.AddRow(mech, o.clock().CyclesToMs(uint64(res.Cycles)))
	}
	return []*stats.Table{tb}
}

// Figure15 compares MongoDB insert latency across mechanisms.
func Figure15(o Options) []*stats.Table {
	tb := stats.NewTable("Figure 15: MongoDB average insertion latency (ms)", "mechanism", "latency_ms")
	for _, mech := range figure14Mechs() {
		m := mongo.NewMachineFrom(o.params(mech))
		res := mongo.Run(m, o.mongoCfg(o.copier(mech, m)))
		tb.AddRow(mech, res.AvgInsertMsAt(o.clock()))
	}
	return []*stats.Table{tb}
}

// mvccFractions is the Fig 16/17 x-axis.
func mvccFractions() []float64 { return []float64{0.0625, 0.125, 0.25, 0.5, 1.0} }

func mvccTable(mode mvcc.Mode, threads int, withNT bool) *stats.Table {
	name := map[mvcc.Mode]string{mvcc.RMW: "read-modify-write", mvcc.WriteOnly: "write-only"}[mode]
	cols := []string{"fraction", "baseline", "mc2"}
	if withNT {
		cols = append(cols, "mc2_nontemporal")
	}
	return stats.NewTable(fmt.Sprintf("MVCC %s throughput (kOps/s), %d thread(s)", name, threads), cols...)
}

// mvccRow computes one fraction's row of a Fig 16/17 sweep as a one-row
// table: a baseline run, an (MC)² run, and optionally the non-temporal
// variant, each on its own machine lowered from the cell's spec.
func mvccRow(o Options, spec config.MachineSpec, mode mvcc.Mode, threads int, f float64, withNT bool) *stats.Table {
	tb := mvccTable(mode, threads, withNT)
	base := mvcc.Run(mvcc.NewMachineFrom(o.specParams(spec, "baseline")), o.mvccCfg(false, f, mode, threads))
	lazy := mvcc.Run(mvcc.NewMachineFrom(o.specParams(spec, "mc2")), o.mvccCfg(true, f, mode, threads))
	row := []interface{}{f, base.ThroughputKOpsAt(o.clock()), lazy.ThroughputKOpsAt(o.clock())}
	if withNT {
		nt := mvcc.Run(mvcc.NewMachineFrom(o.specParams(spec, "mc2")), o.mvccCfg(true, f, mvcc.WriteOnlyNT, threads))
		row = append(row, nt.ThroughputKOpsAt(o.clock()))
	}
	tb.AddRow(row...)
	return tb
}

// mvccSweep declares a Fig 16/17 grid: a thread axis times the
// update-fraction axis, one table per thread count.
func mvccSweep(o Options, fig string, mode mvcc.Mode, withNT bool) SweepSpec {
	threadPts := []Point{{Label: "t1", Value: 1}, {Label: "t8", Value: 8}}
	fracPts := make([]Point, 0, len(mvccFractions()))
	for _, f := range mvccFractions() {
		fracPts = append(fracPts, Point{Label: fmt.Sprintf("f%g", f), Value: f})
	}
	return SweepSpec{
		Fig: fig,
		Axes: []Axis{
			{Name: "threads", Points: threadPts},
			{Name: "update_fraction", Points: fracPts},
		},
		Cell: func(o Options, spec config.MachineSpec, pt []Point) []*stats.Table {
			return tables(mvccRow(o, spec, mode, pt[0].Value.(int), pt[1].Value.(float64), withNT))
		},
		Merge: groupByLeadingAxis,
	}
}

// Figure16 is the MVCC read-modify-write sweep (a: 1 thread, b: 8 threads).
func Figure16(o Options) []*stats.Table { return runJobSet(o, figure16Jobs(o)) }

func figure16Jobs(o Options) JobSet { return mvccSweep(o, "16", mvcc.RMW, false).Compile(o) }

// Figure17 is the MVCC write-only sweep with the non-temporal variant.
func Figure17(o Options) []*stats.Table { return runJobSet(o, figure17Jobs(o)) }

func figure17Jobs(o Options) JobSet {
	return mvccSweep(o, "17", mvcc.WriteOnly, true).Compile(o)
}

// ---------------------------------------------------------------------------
// OS experiments (§V-B)
// ---------------------------------------------------------------------------

const figure18Title = "Figure 18: write latencies with huge-page COW (cycles, access order)"

// figure18Sweep declares Fig 18 as a kernel axis (native vs (MC)²); the
// merge zips the two runs' latency columns into one table.
func figure18Sweep(o Options) SweepSpec {
	return SweepSpec{
		Fig: "18",
		Axes: []Axis{{Name: "kernel", Points: []Point{
			{Label: "native", Value: false},
			{Label: "mc2", Value: true},
		}}},
		Cell: func(o Options, spec config.MachineSpec, pt []Point) []*stats.Table {
			cfg := oswl.HugeCOWConfig{Seed: 42, Lazy: pt[0].Value.(bool)}
			if o.Quick {
				cfg.RegionBytes, cfg.Accesses = 16<<20, 40
			}
			// Both kernels run on lazy-capable hardware; cfg.Lazy picks
			// whether the kernel uses it.
			p := spec.MustParams()
			p.LazyEnabled = true
			p.Env = o.Env
			cfg.Machine = &p
			lat := oswl.HugeCOW(cfg)
			tb := stats.NewTable(figure18Title, "access", pt[0].Label)
			for i, v := range lat {
				tb.AddRow(i, v)
			}
			return tables(tb)
		},
		Merge: figure18Merge,
	}
}

// figure18Merge zips the per-kernel latency columns, preserving the raw
// cell values (access index stays an int, latencies stay uint64).
func figure18Merge(sw SweepSpec, parts [][]*stats.Table) []*stats.Table {
	native, lazy := parts[0][0], parts[1][0]
	tb := stats.NewTable(figure18Title, "access", "native", "mc2")
	for i := 0; i < native.NumRows(); i++ {
		tb.AddRow(native.Value(i, 0), native.Value(i, 1), lazy.Value(i, 1))
	}
	return tables(tb)
}

// Figure18 records huge-page COW write latencies, native vs (MC)² kernel.
func Figure18(o Options) []*stats.Table { return runJobSet(o, figure18Jobs(o)) }

func figure18Jobs(o Options) JobSet { return figure18Sweep(o).Compile(o) }

// Figure19 measures pipe transfer throughput across transfer sizes.
func Figure19(o Options) []*stats.Table {
	tb := stats.NewTable("Figure 19: Linux pipe transfer throughput (bytes/kilocycle)",
		"transfer", "native", "mc2")
	transfers := 64
	if o.Quick {
		transfers = 24
	}
	p := o.hwParams()
	for _, size := range []uint64{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10} {
		n := oswl.PipeThroughput(oswl.PipeConfig{TransferSize: size, Transfers: transfers, Seed: 42, Machine: &p})
		l := oswl.PipeThroughput(oswl.PipeConfig{TransferSize: size, Transfers: transfers, Seed: 42, Lazy: true, Machine: &p})
		tb.AddRow(fmt.Sprintf("%dKB", size>>10), n, l)
	}
	return []*stats.Table{tb}
}

// ---------------------------------------------------------------------------
// Sensitivity studies (§V-C)
// ---------------------------------------------------------------------------

// figure20Grid is the Fig 20 sweep space.
func figure20Grid(o Options) (entries []int, thresholds []float64) {
	entries = []int{1024, 2048, 4096}
	thresholds = []float64{0.25, 0.50, 0.75, 0.90}
	if o.Quick {
		entries = []int{256, 512, 1024}
	}
	return entries, thresholds
}

// figure20Sweep declares the Fig 20 grid as spec-override axes: CTT
// capacity times async-free threshold, each point a config.Overrides patch
// on the base spec. The normalization needs every cell, so it happens in
// the merge over the cells' raw values.
func figure20Sweep(o Options) SweepSpec {
	entries, thresholds := figure20Grid(o)
	epts := make([]Point, 0, len(entries))
	for _, e := range entries {
		epts = append(epts, Point{
			Label: fmt.Sprintf("e%d", e),
			Set:   config.Overrides{{Path: "Lazy.CTTCapacity", Value: e}},
			Value: e,
		})
	}
	tpts := make([]Point, 0, len(thresholds))
	for _, th := range thresholds {
		tpts = append(tpts, Point{
			Label: fmt.Sprintf("th%.0f%%", th*100),
			Set:   config.Overrides{{Path: "Lazy.FreeThreshold", Value: th}},
			Value: th,
		})
	}
	return SweepSpec{
		Fig: "20",
		Axes: []Axis{
			{Name: "ctt_entries", Points: epts},
			{Name: "free_threshold", Points: tpts},
		},
		Cell: func(o Options, spec config.MachineSpec, pt []Point) []*stats.Table {
			m := protobuf.NewMachineFrom(o.specParams(spec, "mc2"))
			res := protobuf.Run(m, o.protoCfg(specCopier(spec, "mc2", m)))
			tb := stats.NewTable("Figure 20 cell", "entries", "threshold", "runtime_ms", "stall_cycles")
			tb.AddRow(pt[0].Value.(int), pt[1].Value.(float64),
				o.clock().CyclesToMs(uint64(res.Cycles)), float64(m.Metrics.CounterValue("engine.lazy_stall_cycles")))
			return tables(tb)
		},
		Merge: figure20Merge,
	}
}

// figure20Merge assembles the runtime and normalized-stall tables from the
// grid's raw cells, reading the axes back off the sweep declaration.
func figure20Merge(sw SweepSpec, parts [][]*stats.Table) []*stats.Table {
	epts, tpts := sw.Axes[0].Points, sw.Axes[1].Points
	thresholds := make([]float64, len(tpts))
	for i, pt := range tpts {
		thresholds[i] = pt.Value.(float64)
	}
	cell := func(ei, ti int) *stats.Table { return parts[ei*len(tpts)+ti][0] }
	float := func(tb *stats.Table, col int) float64 {
		v, ok := tb.Float(0, col)
		if !ok {
			panic("figures: non-numeric Figure 20 cell")
		}
		return v
	}
	var minS, maxS = 1e18, -1.0
	for ei := range epts {
		for ti := range tpts {
			s := float(cell(ei, ti), 3)
			minS, maxS = minFloat(minS, s), maxFloat(maxS, s)
		}
	}
	rt := stats.NewTable("Figure 20a: Protobuf runtime (ms) by CTT entries x copy threshold",
		append([]string{"entries"}, percentCols(thresholds)...)...)
	for ei, ept := range epts {
		row := []interface{}{ept.Value.(int)}
		for ti := range tpts {
			row = append(row, float(cell(ei, ti), 2))
		}
		rt.AddRow(row...)
	}
	st := stats.NewTable("Figure 20b: max-min normalized MCLAZY stall cycles (full CTT)",
		append([]string{"entries"}, percentCols(thresholds)...)...)
	for ei, ept := range epts {
		row := []interface{}{ept.Value.(int)}
		for ti := range tpts {
			v := 0.0
			if maxS > minS {
				v = (float(cell(ei, ti), 3) - minS) / (maxS - minS)
			}
			row = append(row, v)
		}
		st.AddRow(row...)
	}
	return tables(rt, st)
}

// Figure20 sweeps CTT capacity and async-free threshold under Protobuf.
func Figure20(o Options) []*stats.Table { return runJobSet(o, figure20Jobs(o)) }

func figure20Jobs(o Options) JobSet { return figure20Sweep(o).Compile(o) }

func percentCols(ths []float64) []string {
	out := make([]string, len(ths))
	for i, t := range ths {
		out[i] = fmt.Sprintf("thr%.0f%%", t*100)
	}
	return out
}

func minFloat(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxFloat(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func figure22Table(frees []int) *stats.Table {
	cols := []string{"threads"}
	for _, f := range frees {
		cols = append(cols, fmt.Sprintf("free%d", f))
	}
	return stats.NewTable("Figure 22: MVCC throughput with (MC)², normalized to memcpy, by parallel CTT frees",
		cols...)
}

// figure22Row computes one thread count's row: the shared baseline run plus
// one (MC)² run per parallel-free setting, normalized to the baseline.
func figure22Row(o Options, th int, frees []int, ctt int) *stats.Table {
	tb := figure22Table(frees)
	base := mvcc.Run(mvcc.NewMachineFrom(o.params("baseline")), o.mvccCfg(false, 0.125, mvcc.RMW, th))
	row := []interface{}{th}
	for _, fr := range frees {
		p := o.params("mc2")
		p.Lazy.CTTCapacity = ctt
		p.Lazy.ParallelFrees = fr
		lazy := mvcc.Run(mvcc.NewMachineFrom(p), o.mvccCfg(true, 0.125, mvcc.RMW, th))
		row = append(row, lazy.ThroughputKOpsAt(o.clock())/base.ThroughputKOpsAt(o.clock()))
	}
	tb.AddRow(row...)
	return tb
}

// Figure22 sweeps parallel CTT freeing against thread count under MVCC.
// Rows share a per-thread baseline, so the job grain is one row.
func Figure22(o Options) []*stats.Table { return runJobSet(o, figure22Jobs(o)) }

func figure22Jobs(o Options) JobSet {
	threads := []int{1, 2, 4, 8}
	frees := []int{1, 2, 4, 8}
	// Pressure the CTT: small table of capacity relative to update rate.
	ctt := 256
	if !o.Quick {
		ctt = 512
	}
	var jobs []runner.Job
	for _, th := range threads {
		th := th
		jobs = append(jobs, job(o, fmt.Sprintf("22/t%d", th), func(o Options) []*stats.Table {
			return tables(figure22Row(o, th, frees, ctt))
		}))
	}
	return JobSet{Jobs: jobs, Merge: concatParts}
}

// ---------------------------------------------------------------------------
// Table I
// ---------------------------------------------------------------------------

// Table1 dumps the simulated configuration as lowered from the base spec.
func Table1(o Options) []*stats.Table {
	p := o.spec().MustParams()
	tb := stats.NewTable("Table I: simulated configuration", "parameter", "value")
	rows := [][2]string{
		{"CPUs", fmt.Sprintf("%d", p.Cores)},
		{"Clock speed", fmt.Sprintf("%g GHz", o.spec().ClockGHz)},
		{"Private L1 cache", fmt.Sprintf("%d KB/CPU, stride prefetcher", p.Cache.L1Size>>10)},
		{"Shared L2 cache", fmt.Sprintf("%d MB, stride prefetcher", p.Cache.L2Size>>20)},
		{"DRAM channels", fmt.Sprintf("%d", p.Channels)},
		{"DRAM config", "DDR4-like (tRCD=tRP=tCAS=14ns, 64B burst 2.5ns)"},
		{"BPQ size", fmt.Sprintf("%d entries", p.Lazy.BPQCapacity)},
		{"CTT entries", fmt.Sprintf("%d", p.Lazy.CTTCapacity)},
		{"CTT latency", fmt.Sprintf("%.2f ns", float64(p.Lazy.CTTLatency)/4)},
		{"Copy threshold", fmt.Sprintf("%.0f%%", p.Lazy.FreeThreshold*100)},
		{"Modeled DRAM size", fmt.Sprintf("%d MB", p.MemSize>>20)},
	}
	for _, r := range rows {
		tb.AddRow(r[0], r[1])
	}
	return []*stats.Table{tb}
}
