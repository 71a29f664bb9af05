package faultinject_test

import (
	"testing"

	"mcsquare/internal/faultinject"
	"mcsquare/internal/machine"
)

// TestPinPlaneID: a plane id pinned through the run environment reproduces
// the firing sequence of the same build index, regardless of the order
// machines are actually built in (the fleet layer pins each machine's
// stable index so chaos replays are byte-identical across instantiation
// orders).
func TestPinPlaneID(t *testing.T) {
	s := faultinject.Schedule{Seed: 7, WPQRejectEvery: 4, DRAMCorruptEvery: 3}
	const offers = 200
	record := func(env *machine.Env) []bool {
		p := machine.DefaultParams()
		p.MemSize = 16 << 20
		p.Env = env
		pl := machine.New(p).Faults
		seq := make([]bool, offers)
		for i := range seq {
			seq[i] = pl.Fire(faultinject.KindWPQReject, uint64(i), uint64(i))
			pl.Fire(faultinject.KindDRAMCorrupt, uint64(i), uint64(i))
		}
		return seq
	}
	// Reference: machines built in natural order, no pins.
	ref := machine.NewEnv(machine.Env{Faults: &s})
	want := [][]bool{record(ref), record(ref), record(ref)}

	// Machines built in reverse order, each pinned to its stable id.
	env := machine.NewEnv(machine.Env{Faults: &s})
	got := make([][]bool, 3)
	for id := 2; id >= 0; id-- {
		got[id] = record(env.WithPlaneID(id))
	}
	for id := range want {
		for i := range want[id] {
			if got[id][i] != want[id][i] {
				t.Fatalf("plane %d: firing position %d diverged under pinned out-of-order construction", id, i)
			}
		}
	}

	// Pins are scoped to the derived Env: the original numbers by build
	// order, counting the pinned machines (this is its fourth plane).
	p := record(env)
	q := faultinject.NewPlane(s, 3)
	for i := 0; i < offers; i++ {
		if p[i] != q.Fire(faultinject.KindWPQReject, uint64(i), uint64(i)) {
			t.Fatalf("pin leaked into the unpinned Env's plane identity at offer %d", i)
		}
		q.Fire(faultinject.KindDRAMCorrupt, uint64(i), uint64(i))
	}
}
