// Package machine assembles the full simulated system — cores, caches,
// interconnect, memory controllers, DRAM channels, and the (MC)² lazy-copy
// engine — from one Params struct, and provides the allocation and
// process-spawning conveniences every workload uses.
package machine

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"mcsquare/internal/cache"
	"mcsquare/internal/core"
	"mcsquare/internal/cpu"
	"mcsquare/internal/dram"
	"mcsquare/internal/faultinject"
	"mcsquare/internal/interconnect"
	"mcsquare/internal/invariant"
	"mcsquare/internal/isa"
	"mcsquare/internal/memctrl"
	"mcsquare/internal/memdata"
	"mcsquare/internal/metrics"
	"mcsquare/internal/sim"
	"mcsquare/internal/timeline"
	"mcsquare/internal/txtrace"
)

// Params configures a Machine. DefaultParams mirrors the paper's Table I.
type Params struct {
	Cores    int
	MemSize  uint64 // bytes of physical memory to model
	Channels int    // DRAM channels / memory controllers (power of two)

	MC    memctrl.Config
	DRAM  dram.Config
	Cache cache.Config
	CPU   cpu.Config
	Lazy  core.Params

	// XConBytesPerCycle caps the cache-to-controller interconnect
	// bandwidth; 0 (default) models a latency-only link.
	XConBytesPerCycle float64

	// LazyEnabled installs the (MC)² engine; disable for pure-baseline
	// machines (MCLAZY then panics if used).
	LazyEnabled bool

	// Env is the run environment the machine is built in: its observation
	// planes, cycle budget, and the sink that records it for the run. nil
	// builds a bare machine.
	Env *Env
}

// DefaultParams is the paper's simulated configuration (Table I): 8 cores
// at 4 GHz, 64 KB L1s, 2 MB shared L2 with stride prefetchers, 2 DDR4
// channels, 2,048-entry CTT, 8-entry BPQ. The paper models 3 GB of DRAM; we
// default to 256 MB of backing store, which every workload fits in —
// capacity is not a measured variable in any experiment.
func DefaultParams() Params {
	return Params{
		Cores:       8,
		MemSize:     256 << 20,
		Channels:    2,
		MC:          memctrl.DefaultConfig(),
		DRAM:        dram.DDR4Config(),
		Cache:       cache.DefaultConfig(8),
		CPU:         cpu.DefaultConfig(),
		Lazy:        core.DefaultParams(),
		LazyEnabled: true,
	}
}

// Machine is a fully wired simulated system.
type Machine struct {
	Params Params
	Eng    *sim.Engine
	Phys   *memdata.Physical
	Chans  []*dram.Channel
	MCs    []*memctrl.Controller
	Hier   *cache.Hierarchy
	Lazy   *core.Engine // nil when LazyEnabled is false
	ISA    *isa.Unit    // nil when LazyEnabled is false
	Cores  []*cpu.Core

	// Metrics is the machine's registry: every component above publishes
	// its counters here at construction, under the namespaces documented
	// in DESIGN.md (cpu<i>, l1, l2, cache, xcon, mc<i>, dram<i>, engine,
	// ctt, isa, sim). Components added after construction (oskern, zio)
	// register themselves in their own constructors.
	Metrics *metrics.Registry

	// The machine's observation planes, built from Params.Env; each is
	// nil when the Env leaves it off (or there is no Env). Every
	// component holds the same tracer, fault plane and oracles.
	Trace    *txtrace.Tracer    // transaction tracer
	Faults   *faultinject.Plane // fault-injection plane
	Inv      *invariant.Oracles // invariant oracles
	Timeline *timeline.Recorder // time-series recorder

	brk memdata.Addr // bump allocator watermark
}

// New builds a machine from params.
//
// The panics below are last-resort guards for hand-built Params; specs
// built through internal/config catch the same conditions earlier, in
// MachineSpec.Validate, as structured errors.
func New(p Params) *Machine {
	if p.Channels <= 0 || p.Channels&(p.Channels-1) != 0 {
		panic(fmt.Sprintf("machine: channel count %d must be a power of two", p.Channels))
	}
	if p.Cache.Cores == 0 {
		p.Cache.Cores = p.Cores // unset geometry inherits the core count
	}
	if p.Cache.Cores != p.Cores {
		panic(fmt.Sprintf("machine: cache geometry built for %d cores but the machine has %d (set Cache.Cores to 0 to inherit, or size the cache with cache.DefaultConfig)",
			p.Cache.Cores, p.Cores))
	}
	m := &Machine{
		Params: p,
		Eng:    sim.NewEngine(),
		Phys:   memdata.NewPhysical(p.MemSize),
		brk:    memdata.PageSize, // keep page 0 unused
	}
	var env Env
	if p.Env != nil {
		env = *p.Env
	}
	if env.CycleBudget > 0 {
		m.Eng.SetCycleLimit(sim.Cycle(env.CycleBudget))
	}

	route := func(a memdata.Addr) int {
		return int(uint64(a)>>memdata.LineShift) & (p.Channels - 1)
	}
	for i := 0; i < p.Channels; i++ {
		ch := dram.NewChannel(p.DRAM)
		m.Chans = append(m.Chans, ch)
		m.MCs = append(m.MCs, memctrl.New(i, m.Eng, p.MC, ch, m.Phys))
	}
	bus := interconnect.New(m.Eng, interconnect.Config{
		HopLatency:    p.Cache.XConLat,
		BytesPerCycle: p.XConBytesPerCycle,
	})
	m.Hier = cache.NewWithBus(m.Eng, p.Cache, func(a memdata.Addr) *memctrl.Controller {
		return m.MCs[route(a)]
	}, bus)

	if p.LazyEnabled {
		m.Lazy = core.NewEngine(m.Eng, p.Lazy, m.MCs, route)
		m.ISA = isa.New(m.Eng, m.Hier, m.Lazy)
	}
	for i := 0; i < p.Cores; i++ {
		m.Cores = append(m.Cores, cpu.New(i, p.CPU, m.Hier, m.ISA))
	}

	// Transaction tracing: with tracing off Trace is nil and every
	// SetTracer call below installs the zero-cost disabled tracer.
	m.Trace = txtrace.New(env.Trace)
	for _, mc := range m.MCs {
		mc.SetTracer(m.Trace)
	}
	bus.SetTracer(m.Trace)
	m.Hier.SetTracer(m.Trace)
	if p.LazyEnabled {
		m.Lazy.SetTracer(m.Trace)
		m.ISA.SetTracer(m.Trace)
	}
	for _, c := range m.Cores {
		c.SetTracer(m.Trace)
	}

	// Fault injection and invariant oracles likewise: off → nil
	// plane/oracles → every consultation below is a nil check and the
	// metric name set is unchanged.
	if s := env.Faults; s != nil && s.Active() {
		m.Faults = faultinject.NewPlane(*s, p.Env.nextPlane())
		m.Faults.SetTracer(m.Trace)
		for _, mc := range m.MCs {
			mc.SetFaults(m.Faults)
		}
		bus.SetFaults(m.Faults)
		if p.LazyEnabled {
			m.Lazy.SetFaults(m.Faults)
		}
	}
	if m.Inv = invariant.New(env.Invariants, m.Eng, m.Trace); m.Inv != nil {
		for _, mc := range m.MCs {
			mc.SetInvariants(m.Inv)
		}
		m.Hier.SetInvariants(m.Inv)
		if p.LazyEnabled {
			m.Lazy.SetInvariants(m.Inv)
		}
	}

	m.Metrics = metrics.NewRegistry()
	root := m.Metrics.Scope("")
	for i, ch := range m.Chans {
		ch.PublishMetrics(root.Scope(fmt.Sprintf("dram%d", i)))
	}
	for i, mc := range m.MCs {
		mc.PublishMetrics(root.Scope(fmt.Sprintf("mc%d", i)))
	}
	bus.PublishMetrics(root.Scope("xcon"))
	m.Hier.PublishMetrics(root)
	if p.LazyEnabled {
		m.Lazy.PublishMetrics(root)
		m.ISA.PublishMetrics(root.Scope("isa"))
	}
	for i, c := range m.Cores {
		c.PublishMetrics(root.Scope(fmt.Sprintf("cpu%d", i)))
	}
	// sim.cycles is the machine's exact simulated-cycle count; the runner
	// sums it across a job's machines for exact per-job attribution.
	m.Metrics.CounterFunc("sim.cycles", func() uint64 { return uint64(m.Eng.Now()) })
	// Per-stage trace latency histograms, only when tracing is on: an
	// untraced machine's metric name set must not change.
	if m.Trace != nil {
		m.Trace.PublishMetrics(root.Scope("txtrace"))
	}
	m.Faults.PublishMetrics(root.Scope("faultinject"))
	m.Inv.PublishMetrics(root.Scope("invariant"))

	// The timeline plane samples this machine's registry at window
	// boundaries of its engine. Built last so the recorder's baseline sees
	// the fully populated registry (components registering later — oskern,
	// zio — simply delta from zero).
	m.Timeline = timeline.NewRecorder(env.Timeline, m.Metrics, m.Eng)
	if p.Env != nil {
		p.Env.add(m)
	}
	return m
}

// Alloc reserves size bytes aligned to align (a power of two ≥ 1) and
// returns the base physical address. Buffers are never reclaimed; build a
// fresh machine per experiment.
func (m *Machine) Alloc(size, align uint64) memdata.Addr {
	if align == 0 {
		align = 1
	}
	base := m.brk + memdata.Addr(memdata.AlignRem(m.brk, align))
	if have := m.Phys.Size(); size > have || uint64(base) > have-size {
		panic(fmt.Sprintf("machine: out of simulated memory (want %d bytes at %#x, have %d)",
			size, base, have))
	}
	m.brk = base + memdata.Addr(size)
	return base
}

// AllocPage reserves size bytes page-aligned.
func (m *Machine) AllocPage(size uint64) memdata.Addr {
	return m.Alloc(size, memdata.PageSize)
}

// FillRandom writes deterministic pseudorandom bytes over [a, a+n): the
// byte stream rand.New(rand.NewSource(seed)).Read gives, which spends the
// low 7 bytes of each Int63, lowest first. It streams through one page
// buffer instead of holding all n bytes, and mirrors each page into the
// invariant shadow; chunks split at page boundaries, which are
// line-aligned, so the shadow learns the same fully covered lines as from
// one n-byte write.
func (m *Machine) FillRandom(a memdata.Addr, n uint64, seed int64) {
	src := rand.NewSource(seed)
	var buf [memdata.PageSize]byte
	var val int64 // the current Int63's unwritten bytes, lowest first
	left := 0     // how many bytes of val are unwritten
	for n > 0 {
		chunk := buf[:min(n, memdata.PageSize-memdata.PageOffset(a))]
		p := chunk
		for ; left > 0 && len(p) > 0; left-- {
			p[0] = byte(val)
			val >>= 8
			p = p[1:]
		}
		for len(p) >= 8 { // whole groups; the 8th byte is the next group's first
			binary.LittleEndian.PutUint64(p, uint64(src.Int63()))
			p = p[7:]
		}
		if len(p) > 0 {
			val, left = src.Int63(), 7
			for ; len(p) > 0; left-- {
				p[0] = byte(val)
				val >>= 8
				p = p[1:]
			}
		}
		m.Phys.Write(a, chunk)
		m.Inv.ObserveInit(a, chunk) // mirror backdoor seeding into the shadow
		a += memdata.Addr(len(chunk))
		n -= uint64(len(chunk))
	}
}

// Run executes one workload function per core (fn i on core i) as
// simulated processes, drains the simulation, and returns the cycle at
// which the last workload finished.
func (m *Machine) Run(workloads ...func(c *cpu.Core)) sim.Cycle {
	if len(workloads) > len(m.Cores) {
		panic(fmt.Sprintf("machine: %d workloads for %d cores", len(workloads), len(m.Cores)))
	}
	var last sim.Cycle
	for i, fn := range workloads {
		c := m.Cores[i]
		fn := fn
		m.Eng.Go(fmt.Sprintf("core%d", i), func(p *sim.Proc) {
			c.Bind(p)
			fn(c)
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	m.Eng.Drain()
	return last
}

// Warm touches the range through core 0's cache so subsequent accesses hit.
// Used for "touched" (cached-source) experiments.
func (m *Machine) Warm(c *cpu.Core, r memdata.Range) {
	for _, l := range r.Lines() {
		c.LoadAsync(l, 8)
	}
	c.Fence()
}
