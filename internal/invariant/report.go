package invariant

import (
	"fmt"
	"io"
)

// Set is the oracles of a run's machines, read together for reporting.
// Nil entries (machines built with oracles off) count nothing.
type Set []*Oracles

// TotalViolations sums recorded violations across every machine.
func (s Set) TotalViolations() uint64 {
	var n uint64
	for _, o := range s {
		n += o.TotalViolations()
	}
	return n
}

// Violations returns every recorded violation across machines, in
// deterministic (cycle, addr, message) order.
func (s Set) Violations() []Violation {
	var all []Violation
	for _, o := range s {
		all = append(all, o.Violations()...)
	}
	sortViolations(all)
	return all
}

// Report writes a human-readable violation summary.
func (s Set) Report(w io.Writer) {
	vs := s.Violations()
	total := s.TotalViolations()
	fmt.Fprintf(w, "invariant: %d violation(s)\n", total)
	for _, v := range vs {
		fmt.Fprintf(w, "  %s\n", v)
	}
	if n := uint64(len(vs)); total > n {
		fmt.Fprintf(w, "  … and %d more (per-machine lists are bounded)\n", total-n)
	}
}
