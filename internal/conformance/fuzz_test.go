package conformance

import (
	"testing"

	"mcsquare/internal/cache"
	"mcsquare/internal/cpu"
	"mcsquare/internal/invariant"
	"mcsquare/internal/machine"
	"mcsquare/internal/memdata"
)

// fuzzParams is a one-core machine small enough to build per fuzz case.
func fuzzParams() machine.Params {
	p := machine.DefaultParams()
	p.Cores = 1
	p.Channels = 1
	p.MemSize = 4 << 20
	p.Cache = cache.DefaultConfig(1)
	return p
}

// FuzzLazyEagerEquivalence decodes the input into a program of lazy
// copies, stores, loads, and frees over two small buffers and runs it on a
// lazy machine under the invariant shadow, which replays every copy
// eagerly and checks each read against the eager image. Any schedule the
// fuzzer finds where a bounce, writeback, materialization, or free returns
// the wrong bytes is a violation; the CTT byte ledger must also balance.
func FuzzLazyEagerEquivalence(f *testing.F) {
	f.Add([]byte{0x00, 0x41, 0x82, 0xC3, 0x04, 0x45})
	f.Add([]byte{0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x70, 0x80, 0x90})
	f.Add([]byte{0xFF, 0x00, 0xFF, 0x00, 0x3C, 0xC3, 0x81, 0x7E})

	f.Fuzz(func(t *testing.T, program []byte) {
		if len(program) > 64 {
			program = program[:64] // bound simulated work per case
		}
		p := fuzzParams()
		p.Env = machine.NewEnv(machine.Env{Invariants: invariant.All()})
		m := machine.New(p)
		const size = 1 << 14
		src := m.AllocPage(size)
		dst := m.AllocPage(size)
		m.FillRandom(src, size, 7)
		m.FillRandom(dst, size, 8)

		m.Run(func(c *cpu.Core) {
			for i := 0; i+1 < len(program); i += 2 {
				op, arg := program[i]>>6, uint64(program[i]&0x3F)<<8|uint64(program[i+1])
				off := memdata.Addr(arg) % size
				switch op {
				case 0: // lazy-copy a line-aligned chunk
					chunk := memdata.LineAlign(off) % (size / 2)
					n := uint64(size/2) - uint64(chunk)
					c.MCLazy(memdata.Range{Start: dst + chunk, Size: n}, src+chunk)
					c.Fence()
				case 1:
					c.Store(dst+off%(size-8), []byte{program[i], 2, 3, 4, 5, 6, 7, 8})
				case 2:
					c.Store(src+off%(size-8), []byte{program[i+1], 3, 4, 5, 6, 7, 8, 9})
				case 3:
					c.Load(dst+off%(size-8), 8)
				}
			}
			c.Fence()
			c.Load(dst, size) // full sweep, every line shadow-checked
		})

		if n := m.Inv.TotalViolations(); n != 0 {
			t.Fatalf("%d shadow violations for program %x", n, program)
		}
		if err := m.Lazy.CheckConservation(); err != nil {
			t.Fatalf("byte ledger: %v (program %x)", err, program)
		}
		if err := m.Lazy.CTT().CheckInvariants(); err != nil {
			t.Fatalf("CTT invariants: %v (program %x)", err, program)
		}
		if !m.Lazy.Idle() {
			t.Fatalf("engine not idle after drain (program %x)", program)
		}
	})
}
