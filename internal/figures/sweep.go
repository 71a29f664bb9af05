package figures

import (
	"fmt"
	"strings"

	"mcsquare/internal/config"
	"mcsquare/internal/copykit"
	"mcsquare/internal/machine"
	"mcsquare/internal/runner"
	"mcsquare/internal/stats"
)

// This file is the declarative form of a figure sweep. Where figures.go
// once enumerated bespoke job lists, a SweepSpec states the sweep as data:
// a base machine spec (the Options' -config spec), axes of labelled
// points — each optionally overriding spec parameters (config.Overrides)
// and/or carrying a workload-level value — and one Cell function that runs
// a single point of the cartesian product. Compile() lowers the
// declaration onto the existing JobSet machinery, one job per cell in
// row-major axis order, so sweep figures inherit the runner's parallelism
// and its byte-identical merge guarantee unchanged.

// SweepSpec declares one figure as a sweep over spec overrides.
type SweepSpec struct {
	// Fig prefixes job IDs ("16/t8/f0.25").
	Fig string
	// Axes are swept row-major: the last axis varies fastest.
	Axes []Axis
	// Cell runs one point under o (which carries the job's run
	// environment). spec is the base spec with every point's overrides
	// applied; pt holds one point per axis for workload-level values.
	Cell func(o Options, spec config.MachineSpec, pt []Point) []*stats.Table
	// Merge assembles the cells, which arrive in row-major sweep order.
	// nil concatenates single-table cells under the first cell's header.
	Merge func(sw SweepSpec, parts [][]*stats.Table) []*stats.Table
}

// Axis is one sweep dimension.
type Axis struct {
	Name   string
	Points []Point
}

// Point is one labelled position on an axis.
type Point struct {
	// Label names the point in job IDs.
	Label string
	// Set is applied to the cell's machine spec, in axis order.
	Set config.Overrides
	// Value carries a workload-level parameter (update fraction, thread
	// count) for the Cell to consume; sweeps over pure spec overrides
	// leave it nil.
	Value interface{}
}

// Size returns the number of cells in the sweep.
func (sw SweepSpec) Size() int {
	n := 1
	for _, ax := range sw.Axes {
		n *= len(ax.Points)
	}
	return n
}

// Compile lowers the sweep onto the JobSet machinery, starting every cell
// from o's base spec. Override application errors panic: axes are authored
// in code, so a bad path is a programming error, caught by the figure
// tests.
func (sw SweepSpec) Compile(o Options) JobSet {
	base := o.spec()
	cells := cartesian(sw.Axes)
	jobs := make([]runner.Job, len(cells))
	for i, cell := range cells {
		cell := cell
		spec := base
		labels := make([]string, len(cell))
		for j, pt := range cell {
			labels[j] = pt.Label
			if err := spec.Apply(pt.Set); err != nil {
				panic(fmt.Sprintf("figures: sweep %s point %s: %v", sw.Fig, pt.Label, err))
			}
		}
		jobs[i] = job(o, sw.Fig+"/"+strings.Join(labels, "/"), func(o Options) []*stats.Table {
			return sw.Cell(o, spec, cell)
		})
	}
	merge := func(parts [][]*stats.Table) []*stats.Table {
		if sw.Merge != nil {
			return sw.Merge(sw, parts)
		}
		return concatParts(parts)
	}
	return JobSet{Jobs: jobs, Merge: merge}
}

// cartesian enumerates the axes' cartesian product row-major (last axis
// fastest), one []Point per cell with one entry per axis.
func cartesian(axes []Axis) [][]Point {
	cells := [][]Point{{}}
	for _, ax := range axes {
		var next [][]Point
		for _, prefix := range cells {
			for _, pt := range ax.Points {
				cell := make([]Point, len(prefix), len(prefix)+1)
				copy(cell, prefix)
				next = append(next, append(cell, pt))
			}
		}
		cells = next
	}
	return cells
}

// groupByLeadingAxis merges cells into one table per point of the first
// axis, concatenating the trailing axes' cells within each group — the
// standard merge for "one table per thread count"-shaped figures.
func groupByLeadingAxis(sw SweepSpec, parts [][]*stats.Table) []*stats.Table {
	group := len(parts) / len(sw.Axes[0].Points)
	sizes := make([]int, len(sw.Axes[0].Points))
	for i := range sizes {
		sizes[i] = group
	}
	return concatGroups(parts, sizes...)
}

// specParams lowers a spec under the named mechanism, in o's run
// environment. Sweep cells compare mechanisms within one machine shape, so
// the mechanism axis is applied here rather than in the spec document.
func (o Options) specParams(spec config.MachineSpec, mech string) machine.Params {
	spec.Mechanism.Name = mech
	p := spec.MustParams()
	p.Env = o.Env
	return p
}

// specCopier builds the named mechanism for a machine lowered from the
// same spec, through the registry.
func specCopier(spec config.MachineSpec, mech string, m *machine.Machine) copykit.Copier {
	spec.Mechanism.Name = mech
	cp, err := config.BuildCopier(&spec, m)
	if err != nil {
		panic(fmt.Sprintf("figures: mechanism %s: %v", mech, err))
	}
	return cp
}
