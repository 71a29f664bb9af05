package figures

import (
	"strings"

	"mcsquare/internal/config"
	"mcsquare/internal/cpu"
	"mcsquare/internal/faultinject"
	"mcsquare/internal/machine"
	"mcsquare/internal/memdata"
	"mcsquare/internal/stats"
	"mcsquare/internal/timeline"
)

// figureTimeline is the time-resolved companion to the end-of-run figures:
// it drives a copy storm designed to push the CTT through its
// graceful-degradation high-water mark and emits the cycle-windowed
// telemetry — CTT occupancy, bounce rate, eager-fallback bytes, lazy ops,
// and memory-controller reads per window — for baseline vs (MC)², with and
// without a seeded chaos schedule. Each cell derives its own timeline (and
// fault) environment, so the figure is self-contained: it needs no
// -timeline flag and never leaks into a global -timeline/-faults run's
// planes.

const timelineFigTitle = "Timeline: cycle-windowed (MC)2 telemetry during a copy storm (small CTT, eager fallback at 75%)"

// timelineChaosSeed drives the chaos cells; a fixed seed keeps the golden
// reproducible and replayable via mcfigures -faults 0x7E11.
const timelineChaosSeed = 0x7E11

func timelineFigTable() *stats.Table {
	return stats.NewTable(timelineFigTitle,
		"mechanism", "chaos", "window", "start_kcyc", "end_kcyc",
		"ctt_entries", "bounces", "eager_fb_bytes", "lazy_ops", "mc_reads")
}

// timelineStorm is the copy storm: rounds of (ramp: lazy-copy every buffer
// to a fresh destination) → (drain: read half the destinations back, each
// read bouncing a live CTT entry) → (interleave: alternate reads with more
// copies). Fresh destinations every round keep CTT occupancy ramping, and
// the ramp issues more copies than the cell's CTT fallback mark admits, so
// the 75% high-water crossing lands mid-ramp — visible as the
// eager_fb_bytes knee in the timeline.
func timelineStorm(o Options, spec config.MachineSpec, mech string) *machine.Machine {
	bufs, bufSize, rounds := 96, uint64(16<<10), 3
	if o.Quick {
		bufs, bufSize, rounds = 24, uint64(8<<10), 2
	}
	m := machine.New(o.specParams(spec, mech))
	cp := specCopier(spec, mech, m)
	srcs := make([]memdata.Addr, bufs)
	for i := range srcs {
		srcs[i] = m.AllocPage(bufSize)
		m.FillRandom(srcs[i], bufSize, int64(i)+1)
	}
	dsts := make([][]memdata.Addr, rounds)
	for r := range dsts {
		dsts[r] = make([]memdata.Addr, bufs)
		for i := range dsts[r] {
			dsts[r][i] = m.AllocPage(bufSize)
		}
	}
	m.Run(func(c *cpu.Core) {
		for r := 0; r < rounds; r++ {
			// Ramp: fill the CTT.
			for i := 0; i < bufs; i++ {
				cp.Memcpy(c, dsts[r][i], srcs[i], bufSize)
			}
			c.Fence()
			// Drain: bounce the first half of this round's destinations.
			for i := 0; i < bufs/2; i++ {
				cp.Read(c, dsts[r][i], bufSize)
			}
			// Interleave: reads racing fresh copies over the second half.
			for i := bufs / 2; i < bufs; i++ {
				cp.Read(c, dsts[r][i], bufSize)
				cp.Memcpy(c, dsts[r][i], srcs[bufs-1-i], bufSize)
			}
			c.Fence()
		}
	})
	return m
}

// timelineCell runs one (mechanism, chaos) cell in an Env derived with its
// own timeline config (and, for chaos, fault schedule) and renders its
// windows as rows.
func timelineCell(o Options, spec config.MachineSpec, mech string, chaos bool) *stats.Table {
	win := uint64(100_000)
	// Pressure the graceful-degradation path: a CTT smaller than one
	// ramp's copy count, with fallback at 75% occupancy.
	spec.Lazy.CTTCapacity = 64
	spec.Lazy.EagerCopyFrac = 0.75
	if o.Quick {
		win = 20_000
		spec.Lazy.CTTCapacity = 24
	}

	o.Env = o.Env.WithTimeline(timeline.Config{Enabled: true, WindowCycles: win})
	if chaos {
		sched := faultinject.FromSeed(timelineChaosSeed)
		o.Env = o.Env.WithFaults(&sched)
	}

	m := timelineStorm(o, spec, mech)
	rec := m.Timeline
	rec.Finalize()

	label := "clean"
	if chaos {
		label = "chaos"
	}
	tb := timelineFigTable()
	for _, w := range rec.Windows() {
		count := func(name string) uint64 { return w.Sample.Values[name].Count }
		var mcReads uint64
		for name, v := range w.Sample.Values {
			if strings.HasPrefix(name, "mc") && strings.HasSuffix(name, ".reads") {
				mcReads += v.Count
			}
		}
		tb.AddRow(mech, label, w.Index,
			float64(w.Start)/1e3, float64(w.End)/1e3,
			w.Sample.Values["ctt.entries"].Value,
			count("engine.bounces"), count("engine.eager_fallback_bytes"),
			count("engine.lazy_ops"), mcReads)
	}
	return tb
}

func timelineSweep(o Options) SweepSpec {
	return SweepSpec{
		Fig: "timeline",
		Axes: []Axis{
			{Name: "mechanism", Points: []Point{
				{Label: "baseline", Value: "baseline"},
				{Label: "mc2", Value: "mc2"},
			}},
			{Name: "chaos", Points: []Point{
				{Label: "clean", Value: false},
				{Label: "chaos", Value: true},
			}},
		},
		Cell: func(o Options, spec config.MachineSpec, pt []Point) []*stats.Table {
			return tables(timelineCell(o, spec, pt[0].Value.(string), pt[1].Value.(bool)))
		},
	}
}

// FigureTimeline is the serial form (identical to the decomposed jobs run).
func FigureTimeline(o Options) []*stats.Table {
	return runJobSet(o, timelineJobs(o))
}

func timelineJobs(o Options) JobSet { return timelineSweep(o).Compile(o) }

func init() {
	extra = append(extra, Generator{
		ID:    "timeline",
		Title: "cycle-windowed telemetry during a copy storm, baseline vs (MC)2, clean vs chaos",
		Run:   FigureTimeline,
		jobs:  timelineJobs,
	})
}
