// The registry tests run as an external test package so they can import
// internal/zio (which itself imports config to self-register): the full
// mechanism catalog a CLI sees is exactly what is under test.
package config_test

import (
	"reflect"
	"testing"

	"mcsquare/internal/config"
	"mcsquare/internal/machine"

	_ "mcsquare/internal/zio"
)

// smallSpec returns a spec shrunk enough that constructing one machine per
// mechanism stays cheap.
func smallSpec() config.MachineSpec {
	spec := config.Default()
	spec.MemSize = 16 << 20
	return spec
}

// TestEveryListedMechanismConstructs: every name the registry enumerates
// (what mcsim -list shows) must lower and build a working copier.
func TestEveryListedMechanismConstructs(t *testing.T) {
	names := config.MechanismNames()
	if len(names) < 4 {
		t.Fatalf("registry lists %v; expected at least baseline, mc2, softmc, zio", names)
	}
	for _, name := range names {
		spec := smallSpec()
		spec.Mechanism = config.MechanismSpec{Name: name}
		if err := spec.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		p, err := spec.Params()
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		m := machine.New(p)
		cp, err := config.BuildCopier(&spec, m)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if cp == nil {
			t.Errorf("%s: built no copier", name)
		}
	}
}

// TestMechanismLoweringSetsLazyHardware: the mechanism block decides
// whether the lowered machine carries the (MC)² engine.
func TestMechanismLoweringSetsLazyHardware(t *testing.T) {
	for name, wantLazy := range map[string]bool{
		"baseline": false, "zio": false, "mc2": true, "softmc": true,
	} {
		spec := config.Default()
		spec.Mechanism = config.MechanismSpec{Name: name}
		p, err := spec.Params()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.LazyEnabled != wantLazy {
			t.Errorf("%s: LazyEnabled = %v, want %v", name, p.LazyEnabled, wantLazy)
		}
	}
}

// TestCapabilitySets pins the workload-compatibility computation that
// replaced the CLIs' hardcoded mechanism tables.
func TestCapabilitySets(t *testing.T) {
	cases := []struct {
		needs []config.Capability
		want  []string
	}{
		{[]config.Capability{config.CapCopier}, []string{"baseline", "mc2", "softmc", "zio"}},
		{[]config.Capability{config.CapKernel}, []string{"baseline", "mc2"}},
		{[]config.Capability{config.CapKernel, config.CapSharedMem}, []string{"baseline", "mc2"}},
		{[]config.Capability{config.CapCopier, config.CapSharedMem}, []string{"baseline", "mc2", "softmc"}},
	}
	for _, c := range cases {
		if got := config.MechanismsFor(c.needs); !reflect.DeepEqual(got, c.want) {
			t.Errorf("MechanismsFor(%v) = %v, want %v", c.needs, got, c.want)
		}
	}
}

func TestRegisterRejectsDuplicatesAndIncomplete(t *testing.T) {
	expectPanic := func(name string, m config.Mechanism) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Register did not panic", name)
			}
		}()
		config.Register(m)
	}
	ok, _ := config.LookupMechanism("mc2")
	expectPanic("duplicate", ok)
	expectPanic("no build", config.Mechanism{Name: "x", Summary: "s"})
}
