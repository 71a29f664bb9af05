package conformance

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"mcsquare/internal/cpu"
	"mcsquare/internal/dram"
	"mcsquare/internal/invariant"
	"mcsquare/internal/machine"
	"mcsquare/internal/memdata"
	"mcsquare/internal/sim"
	"mcsquare/internal/softmc"
)

// ---------------------------------------------------------------------------
// Burst-time scaling
// ---------------------------------------------------------------------------

// TestBurstHalvingDoublesBandwidth: with enough banks engaged that the data
// bus is the bottleneck (B·tBL ≥ tCCD+tCAS at both burst lengths), peak
// bandwidth is LineSize/tBL — so halving tBL doubles it exactly.
func TestBurstHalvingDoublesBandwidth(t *testing.T) {
	for _, b := range Backends() {
		cfg := dram.DDR4Config() // 16·5 = 80 ≥ 64: bus-limited at both lengths
		half := cfg
		half.TBL = cfg.TBL / 2

		bw1 := peakBandwidth(b, cfg, 64)
		bw2 := peakBandwidth(b, half, 64)
		ck := Check{
			Name: "burst_halving_bandwidth_ratio", Backend: b.Name, Unit: "ratio",
			Expected: 2, Measured: bw2 / bw1, Tolerance: 1e-9,
			Detail: "bus-limited regime: peak bw = LineSize/tBL",
		}.eval()
		record(ck)
		if !ck.Pass {
			t.Errorf("%s: bw(tBL/2)/bw(tBL) = %v, want 2", b.Name, ck.Measured)
		}
	}
}

// TestBurstScalingLaws is the property form over random geometries: halving
// the burst time never decreases peak bandwidth and can at most double it,
// whether the config lands in the bus- or the bank-limited regime.
func TestBurstScalingLaws(t *testing.T) {
	b := Backends()[0]
	law := func(bankSel, rowSel, tRCD, tRP, tCAS, tBL, tCCD uint8) bool {
		cfg := dram.Config{
			Banks:   2 << (bankSel % 5),           // 2..32
			RowSize: 1 << (10 + uint64(rowSel)%3), // 1K..4K
			TRCD:    sim.Cycle(tRCD%64) + 1,
			TRP:     sim.Cycle(tRP%64) + 1,
			TCAS:    sim.Cycle(tCAS%64) + 1,
			TBL:     2 * (sim.Cycle(tBL%32) + 1), // even, 2..64
			TCCD:    sim.Cycle(tCCD%16) + 1,
			TWR:     20,
		}
		half := cfg
		half.TBL = cfg.TBL / 2
		bw1 := peakBandwidth(b, cfg, 16)
		bw2 := peakBandwidth(b, half, 16)
		return bw2 >= bw1-1e-9 && bw2 <= 2*bw1+1e-9
	}
	if err := quick.Check(law, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// ---------------------------------------------------------------------------
// Bank-count monotonicity
// ---------------------------------------------------------------------------
//
// "Adding banks never slows a trace down" is false for raw address traces:
// the XOR-folded bank hash can map two addresses to the same bank under 2B
// banks that were apart under B (rowIDs 0 and 33 collide at 32 banks but
// not at 16). The honest statement is over abstract traces of (bank slot,
// row slot) pairs realized per config so that equal abstract accesses stay
// row hits and distinct bank slots can only merge when banks shrink —
// growing the bank count then only ever splits conflicts. See DESIGN.md §13.

const bankSlots = 32 // abstract bank-slot space; every tested Banks divides it

type absAccess struct {
	slot int // [0, bankSlots)
	row  int
}

// realizeAddr finds an address whose reference (bank, row) is exactly
// (slot mod B, row·(bankSlots/B) + slot/B). Within any aligned block of B
// consecutive rowIDs the XOR-folded hash permutes the banks, so the search
// always succeeds in one block.
func realizeAddr(cfg dram.Config, a absAccess) memdata.Addr {
	wantBank := a.slot % cfg.Banks
	wantRow := int64(a.row*(bankSlots/cfg.Banks) + a.slot/cfg.Banks)
	base := uint64(wantRow) * uint64(cfg.Banks)
	for j := uint64(0); j < uint64(cfg.Banks); j++ {
		addr := rowAddr(cfg, base+j)
		if bank, row := refBankRow(cfg, addr); bank == wantBank && row == wantRow {
			return addr
		}
	}
	panic("conformance: realizeAddr: no rowID matches")
}

func runAbstractTrace(b Backend, cfg dram.Config, trace []absAccess) sim.Cycle {
	tm := b.New(cfg)
	var done sim.Cycle
	for _, a := range trace {
		done = tm.Access(0, realizeAddr(cfg, a), false)
	}
	return done
}

func TestBanksMonotonicity(t *testing.T) {
	b := Backends()[0]
	base := dram.DDR4Config()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		trace := make([]absAccess, 100)
		for i := range trace {
			trace[i] = absAccess{slot: rng.Intn(bankSlots), row: rng.Intn(4)}
		}
		prev := sim.Cycle(1<<62 - 1)
		for _, banks := range []int{4, 8, 16, 32} {
			cfg := base
			cfg.Banks = banks
			done := runAbstractTrace(b, cfg, trace)
			if done > prev {
				t.Fatalf("trial %d: %d banks finished at %d, slower than %d banks at %d",
					trial, banks, done, banks/2, prev)
			}
			prev = done
		}
	}
}

// ---------------------------------------------------------------------------
// Lazy/eager differential
// ---------------------------------------------------------------------------

// copyProgram is one deterministic mixed workload: a bulk copy (lazy or
// eager), then interleaved source writes, destination writes, destination
// reads, and a partial free — the full set of (MC)² interception paths.
// It returns every byte the program observed.
func copyProgram(m *machine.Machine, lazy bool, seed int64) []byte {
	const size = 1 << 16
	src := m.AllocPage(size)
	dst := m.AllocPage(size)
	m.FillRandom(src, size, seed)

	var observed []byte
	m.Run(func(c *cpu.Core) {
		if lazy {
			softmc.MemcpyLazy(c, dst, src, size)
		} else {
			c.Memcpy(dst, src, size)
		}
		c.Fence()
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 200; i++ {
			off := memdata.Addr(rng.Intn(size-64)) &^ 7
			switch rng.Intn(4) {
			case 0: // overwrite a deferred destination chunk
				c.Store(dst+off, []byte{byte(i), 2, 3, 4, 5, 6, 7, 8})
			case 1: // mutate the source after the copy
				c.Store(src+off, []byte{9, byte(i), 11, 12, 13, 14, 15, 16})
			case 2: // demand-read the destination (bounce or materialized)
				observed = append(observed, c.Load(dst+off, 8)...)
			case 3:
				observed = append(observed, c.Load(src+off, 8)...)
			}
		}
		// Final sweep: the complete visible image of both buffers.
		observed = append(observed, c.Load(dst, size)...)
		observed = append(observed, c.Load(src, size)...)
		// MCFREE makes never-materialized destination bytes undefined (the
		// deferred copy is simply dropped), so it runs after the sweep; the
		// shadow oracle still checks the freed region's post-free reads.
		if lazy {
			c.MCFree(memdata.Range{Start: dst + size/2, Size: size / 4})
			c.Load(dst+size/2+128, 8)
		}
		c.Fence()
	})
	return observed
}

// TestLazyEagerEquivalence runs the same program on a lazy machine under
// the invariant shadow (which replays every copy eagerly and checks each
// read) and on an eager-copy machine, and requires byte-identical
// observations — the paper's correctness claim, checked end to end.
func TestLazyEagerEquivalence(t *testing.T) {
	lazyP := machine.DefaultParams()
	lazyP.Env = machine.NewEnv(machine.Env{Invariants: invariant.All()})
	lazyM := machine.New(lazyP)
	lazyBytes := copyProgram(lazyM, true, 42)
	col := lazyP.Env.Oracles()

	eagerP := machine.DefaultParams()
	eagerP.LazyEnabled = false
	eagerBytes := copyProgram(machine.New(eagerP), false, 42)

	if col.TotalViolations() != 0 {
		t.Errorf("shadow oracle saw %d violations in the lazy run", col.TotalViolations())
		for _, v := range col.Violations()[:min(len(col.Violations()), 5)] {
			t.Logf("violation: %+v", v)
		}
	}
	if !bytes.Equal(lazyBytes, eagerBytes) {
		for i := range lazyBytes {
			if lazyBytes[i] != eagerBytes[i] {
				t.Fatalf("lazy and eager observations diverge at byte %d: %#x vs %#x",
					i, lazyBytes[i], eagerBytes[i])
			}
		}
		t.Fatalf("observation lengths differ: %d vs %d", len(lazyBytes), len(eagerBytes))
	}
	if !lazyM.Lazy.Idle() {
		t.Error("lazy engine not idle after drain")
	}
	if err := lazyM.Lazy.CheckConservation(); err != nil {
		t.Errorf("byte ledger: %v", err)
	}
}

// TestCTTByteConservation drives every untracking path — replacement by a
// newer copy, destination overwrite, source-write materialization, and
// MCFREE — and checks the two ledger laws: deferred − untracked = tracked,
// and every untracked byte attributed to exactly one cause. The counters
// are maintained by independent code paths; agreement is a real check.
func TestCTTByteConservation(t *testing.T) {
	m := machine.New(machine.DefaultParams())
	const size = 1 << 15
	src := m.AllocPage(size)
	dst := m.AllocPage(size)
	m.FillRandom(src, size, 99)

	m.Run(func(c *cpu.Core) {
		c.MCLazy(memdata.Range{Start: dst, Size: size}, src)
		c.Fence()
		// Replacement: re-copy over half of the tracked range.
		c.MCLazy(memdata.Range{Start: dst, Size: size / 2}, src)
		c.Fence()
		for i := 0; i < 32; i++ {
			c.Store(dst+memdata.Addr(i*512), make([]byte, 64)) // overwrite
			c.Store(src+memdata.Addr(i*512), make([]byte, 64)) // source write
			c.Load(dst+memdata.Addr(i*512+128), 8)             // bounce read
		}
		c.MCFree(memdata.Range{Start: dst + size/2, Size: size / 4})
		c.Fence()
	})

	lz := m.Lazy
	if err := lz.CheckConservation(); err != nil {
		t.Fatalf("conservation: %v", err)
	}
	cs := lz.CTT().Stats
	if cs.DeferredBytes == 0 || cs.UntrackedBytes == 0 {
		t.Fatalf("degenerate run: deferred=%d untracked=%d", cs.DeferredBytes, cs.UntrackedBytes)
	}
	record(Check{
		Name: "ctt_byte_conservation", Unit: "bytes",
		Expected: float64(cs.DeferredBytes - cs.UntrackedBytes),
		Measured: float64(lz.CTT().TrackedBytes()),
		Pass:     true,
		Detail:   "deferred − untracked = tracked, all untracked bytes attributed",
	})
}
