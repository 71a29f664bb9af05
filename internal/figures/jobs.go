package figures

import (
	"fmt"

	"mcsquare/internal/runner"
	"mcsquare/internal/stats"
)

// This file is the bridge between figure generators and the parallel
// experiment runner (internal/runner): a figure decomposes into a JobSet —
// independently runnable jobs plus a deterministic merge — and its Run is
// defined as the serial execution of that same JobSet, so pooled and serial
// runs are byte-identical by construction.

// JobSet is a figure decomposed into independent jobs plus a deterministic
// merge. Merge receives exactly one []*stats.Table per job, in job order,
// and must depend only on those parts (never on completion order).
type JobSet struct {
	Jobs  []runner.Job
	Merge func(parts [][]*stats.Table) []*stats.Table
}

// Jobs decomposes the generator under o. Sweep generators enumerate one
// job per datapoint (or row); generators without a decomposition become a
// single job named after the figure.
func (g Generator) Jobs(o Options) JobSet {
	if g.jobs != nil {
		return g.jobs(o)
	}
	return JobSet{
		Jobs:  []runner.Job{job(o, g.ID, g.Run)},
		Merge: func(parts [][]*stats.Table) []*stats.Table { return parts[0] },
	}
}

// runJobSet executes a JobSet serially in submission order. Decomposed
// generators implement their Run with it, which is what guarantees that a
// worker pool emitting parts in submission order reproduces Run exactly.
func runJobSet(o Options, js JobSet) []*stats.Table {
	parts := make([][]*stats.Table, len(js.Jobs))
	for i, j := range js.Jobs {
		parts[i] = j.Run(runner.Options{Quick: o.Quick, Env: o.Env})
	}
	return js.Merge(parts)
}

// job wraps a figure closure as a runner.Job. Figure jobs are specialized
// at decomposition time, so of the runner-supplied options only the run
// environment, which exists only once the job runs, reaches fn: it gets o
// with the runner's Env.
func job(o Options, id string, fn func(o Options) []*stats.Table) runner.Job {
	return runner.Job{ID: id, Run: func(ro runner.Options) []*stats.Table {
		jo := o
		jo.Env = ro.Env
		return fn(jo)
	}}
}

// tables is sugar for single-table jobs.
func tables(tb ...*stats.Table) []*stats.Table { return tb }

// concatParts merges single-table parts into one table carrying the first
// part's title and columns. Parts must all share that header (each row job
// emits the canonical header plus its own rows).
func concatParts(parts [][]*stats.Table) []*stats.Table {
	first := parts[0][0]
	out := stats.NewTable(first.Title, first.Columns...)
	for _, p := range parts {
		// Cells are authored in code and emit the canonical header; a width
		// mismatch is a programming error, surfaced with its structured
		// detail rather than silently truncating the merged figure.
		if err := out.AppendRows(p[0]); err != nil {
			panic(fmt.Sprintf("figures: merge: %v", err))
		}
	}
	return tables(out)
}

// concatGroups splits parts into consecutive groups of the given sizes and
// concatenates each group into its own table (multi-table figures whose
// tables are each a sweep).
func concatGroups(parts [][]*stats.Table, sizes ...int) []*stats.Table {
	var out []*stats.Table
	i := 0
	for _, n := range sizes {
		out = append(out, concatParts(parts[i:i+n])...)
		i += n
	}
	return out
}
