// Package cliutil holds the flag-layer plumbing that cmd/mcsim and
// cmd/mcfigures previously duplicated: machine-spec loading with override
// layering (-config file, then repeatable -set Path=value patches), output
// destination validation, metrics/fault/invariant wiring, and the
// registry-driven workload × mechanism table behind -list.
package cliutil

import (
	"fmt"
	"io"
	"os"
	"strings"

	"mcsquare/internal/config"
	"mcsquare/internal/faultinject"
	"mcsquare/internal/invariant"
	"mcsquare/internal/metrics"
	"mcsquare/internal/stats"
	"mcsquare/internal/timeline"
	"mcsquare/internal/workloads"

	// Out-of-tree mechanisms self-register with the config registry; the
	// CLIs see the full catalog by importing them here.
	_ "mcsquare/internal/zio"
)

// StringList is a repeatable string flag (flag.Var) collecting every
// occurrence in order.
type StringList []string

// String renders the collected values for flag's usage output.
func (s *StringList) String() string { return strings.Join(*s, ",") }

// Set appends one occurrence.
func (s *StringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

// SpecClock is the cycle→wall-time converter for a loaded spec: every CLI
// summary that prints nanoseconds or milliseconds goes through it, so a
// -set ClockGHz=2 machine reports real wall time instead of the Table I
// default's. A nil spec (or an unset ClockGHz) falls back to 4 GHz.
func SpecClock(spec *config.MachineSpec) stats.Clock {
	if spec == nil {
		return stats.DefaultClock
	}
	return stats.Clock(spec.ClockGHz)
}

// LoadSpec builds the run's machine spec from the override layers: the
// built-in default, then the -config file (a partial spec patching the
// default), then each -set Path=value assignment in flag order. The result
// is validated; the returned error is a *config.ValidationError for value
// problems and wraps file/parse errors otherwise.
func LoadSpec(path string, sets []string) (*config.MachineSpec, error) {
	spec := config.Default()
	if path != "" {
		s, err := config.Load(path)
		if err != nil {
			return nil, err
		}
		spec = s
	}
	var ovs config.Overrides
	for _, a := range sets {
		ov, err := config.ParseAssignment(a)
		if err != nil {
			return nil, fmt.Errorf("-set %q: %w", a, err)
		}
		ovs = append(ovs, ov)
	}
	if err := spec.Apply(ovs); err != nil {
		return nil, fmt.Errorf("-set: %w", err)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &spec, nil
}

// CreateOutput opens path for writing ("-" = stdout, "" = none). Callers
// invoke it before the simulation runs so an unwritable path fails in
// milliseconds, not after the sweep.
func CreateOutput(path string) (*os.File, error) {
	switch path {
	case "":
		return nil, nil
	case "-":
		return os.Stdout, nil
	}
	return os.Create(path)
}

// CloseOutput closes a CreateOutput file, leaving stdout open.
func CloseOutput(f *os.File) error {
	if f == nil || f == os.Stdout {
		return nil
	}
	return f.Close()
}

// WriteStats dumps a metrics snapshot as JSON to path ("-" = stdout).
func WriteStats(path string, s *metrics.Snapshot) error {
	if path == "-" {
		return s.WriteJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	return f.Close()
}

// ParseFaults parses a -faults value (a bare seed or a schedule JSON file)
// into a schedule; empty means no injection.
func ParseFaults(spec string) (*faultinject.Schedule, error) {
	if spec == "" {
		return nil, nil
	}
	s, err := faultinject.ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	return &s, nil
}

// TimelineConfig resolves the timeline configuration from the flag layer
// and the spec's Timeline block: -timeline (an output path) or -serve
// forces the plane on, the spec block supplies window/tracks, and a
// -timeline-window override (> 0) wins over the spec's window.
func TimelineConfig(spec *config.MachineSpec, outPath string, window uint64, serve bool) timeline.Config {
	var cfg timeline.Config
	if spec != nil {
		cfg = spec.Timeline.Config()
	}
	if outPath != "" || serve {
		cfg.Enabled = true
	}
	if window > 0 {
		cfg.WindowCycles = window
	}
	return cfg
}

// Invariants maps the -invariants flag to an oracle configuration.
func Invariants(enabled bool) invariant.Config {
	if enabled {
		return invariant.All()
	}
	return invariant.Config{}
}

// PrintMechanisms writes the mechanism registry, one line per mechanism
// with its capabilities.
func PrintMechanisms(w io.Writer) {
	fmt.Fprintln(w, "mechanism  capabilities")
	for _, mech := range config.Mechanisms() {
		caps := make([]string, len(mech.Caps))
		for i, c := range mech.Caps {
			caps[i] = string(c)
		}
		fmt.Fprintf(w, "%-10s %s\n", mech.Name, strings.Join(caps, ", "))
		if mech.Summary != "" {
			fmt.Fprintf(w, "%-10s   %s\n", "", mech.Summary)
		}
	}
}

// PrintWorkloads writes the workload catalog with each workload's
// supported mechanisms, computed from capability declarations.
func PrintWorkloads(w io.Writer) {
	fmt.Fprintln(w, "workload   mechanisms")
	for _, wl := range workloads.Catalog() {
		fmt.Fprintf(w, "%-10s %s\n", wl.Name, strings.Join(wl.Mechanisms(), ", "))
		if wl.Note != "" {
			fmt.Fprintf(w, "%-10s   (%s)\n", "", wl.Note)
		}
	}
}
