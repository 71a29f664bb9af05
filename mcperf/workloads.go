package main

import (
	"fmt"
	"strings"

	"mcsquare/internal/cliutil"
	"mcsquare/internal/figures"
)

// workload is one benchmark input: whole figures generated exactly as
//
//	mcfigures -fig <figures> [-quick] [-set <set>...] -jobs 1
//
// generates them. A round runs every job of those figures once, merges each
// figure as mcfigures does, and compares the merged text byte for byte with
// the goldens.
type workload struct {
	name    string
	figures []string
	quick   bool
	set     []string // mcfigures -set overrides of the Table I default spec
	// goldens are the files, relative to the repository root, whose
	// concatenation is a round's expected output. Paper-scale workloads use
	// the repository's results/ files, which the benchmark never rewrites;
	// the others own one file under ownedGoldens, which -update rewrites.
	goldens []string
}

// ownedGoldens holds the goldens the benchmark owns.
const ownedGoldens = "mcperf/testdata/"

// fleetSet is the fleet workloads' spec: one calibrated machine per
// mechanism, the largest fleet whose round fits in memory (a second machine
// would about double the 3 GB peak RSS), on the default request mix.
// Requests sets the size of the queueing loop, and so its share of the
// round. The workloads' counts leave that loop 35 to 40% of a round's CPU
// while keeping a round near 7 s, so that about three rounds fit in a run
// and its median does not rest on one round. With 4M and 2M requests rounds
// took 9 to 17 s, one or two per run, and fleet-sweep's wall_s spread over
// ten runs by up to 29% of its median.
func fleetSet(requests int) []string {
	return []string{"Fleet.Machines=1", fmt.Sprintf("Fleet.Requests=%d", requests)}
}

// workloads is the benchmark's fixed suite. BENCHMARK.json records why each
// one was chosen.
var workloads = []workload{
	{name: "copy-ladder", figures: []string{"10"}, goldens: []string{"results/figure10.txt"}},
	{name: "protobuf", figures: []string{"3", "4", "14"},
		goldens: []string{"results/figure3.txt", "results/figure4.txt", "results/figure14.txt"}},
	{name: "mvcc", figures: []string{"22"}, quick: true, goldens: []string{ownedGoldens + "mvcc.golden"}},
	{name: "fleet-sweep", figures: []string{"fleet"}, quick: true, set: fleetSet(1_500_000),
		goldens: []string{ownedGoldens + "fleet-sweep.golden"}},
	{name: "fleet-storm", figures: []string{"resilience"}, quick: true, set: fleetSet(1_000_000),
		goldens: []string{ownedGoldens + "fleet-storm.golden"}},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// owned reports whether the benchmark owns the workload's golden.
func (w workload) owned() bool {
	return len(w.goldens) == 1 && strings.HasPrefix(w.goldens[0], ownedGoldens)
}

// jobSets decomposes the workload's figures into runner jobs.
func (w workload) jobSets() ([]figures.JobSet, error) {
	spec, err := cliutil.LoadSpec("", w.set)
	if err != nil {
		return nil, fmt.Errorf("%s: spec: %w", w.name, err)
	}
	opt := figures.Options{Quick: w.quick, Spec: spec}
	var sets []figures.JobSet
	for _, id := range w.figures {
		g, ok := figures.ByID(id)
		if !ok {
			return nil, fmt.Errorf("%s: unknown figure %q", w.name, id)
		}
		sets = append(sets, g.Jobs(opt))
	}
	return sets, nil
}
