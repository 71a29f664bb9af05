package config

import (
	"encoding/json"

	"mcsquare/internal/copykit"
	"mcsquare/internal/machine"
)

// The built-in mechanisms live here rather than in internal/copykit only
// because copykit is what defines the Copier interface this registry
// hands out — registering from copykit would close an import cycle.
// Out-of-tree backends register from their own package's init; internal/zio
// is the exemplar.

// MC2Params is the mc2 mechanism's parameter block: the copy_interpose.so
// policy threshold of §III-D.
type MC2Params struct {
	// Threshold: memcpy calls of at least this many bytes go through
	// memcpy_lazy; smaller calls copy eagerly. 0 makes every call lazy.
	Threshold uint64
}

// DefaultMC2Params mirrors the paper's interposer policy (1 KB).
func DefaultMC2Params() MC2Params { return MC2Params{Threshold: 1024} }

func mc2Params(raw json.RawMessage) (MC2Params, error) {
	p := DefaultMC2Params()
	err := DecodeMechParams(raw, &p)
	return p, err
}

// noParams rejects any non-empty parameter block.
func noParams(raw json.RawMessage) error {
	var empty struct{}
	return DecodeMechParams(raw, &empty)
}

func init() {
	Register(Mechanism{
		Name:           "baseline",
		Summary:        "eager memcpy on an unmodified machine",
		NeedsLazyHW:    false,
		Caps:           []Capability{CapCopier, CapKernel, CapSharedMem},
		ValidateParams: noParams,
		Build: func(spec *MachineSpec, m *machine.Machine) (copykit.Copier, error) {
			if err := noParams(spec.Mechanism.Params); err != nil {
				return nil, err
			}
			return copykit.Eager{}, nil
		},
	})
	Register(Mechanism{
		Name:        "mc2",
		Summary:     "(MC)² lazy copies behind the copy_interpose.so threshold policy",
		NeedsLazyHW: true,
		Caps:        []Capability{CapCopier, CapKernel, CapSharedMem},
		ValidateParams: func(raw json.RawMessage) error {
			_, err := mc2Params(raw)
			return err
		},
		Build: func(spec *MachineSpec, m *machine.Machine) (copykit.Copier, error) {
			p, err := mc2Params(spec.Mechanism.Params)
			if err != nil {
				return nil, err
			}
			return copykit.Lazy{Threshold: p.Threshold}, nil
		},
	})
	Register(Mechanism{
		Name:           "softmc",
		Summary:        "raw memcpy_lazy library: every copy lazy, no interposer policy",
		NeedsLazyHW:    true,
		Caps:           []Capability{CapCopier, CapSharedMem},
		ValidateParams: noParams,
		Build: func(spec *MachineSpec, m *machine.Machine) (copykit.Copier, error) {
			if err := noParams(spec.Mechanism.Params); err != nil {
				return nil, err
			}
			return copykit.Lazy{Threshold: 0}, nil
		},
	})
}
