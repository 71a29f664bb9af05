package softmc

import (
	"bytes"
	"math/rand"
	"testing"

	"mcsquare/internal/cpu"
	"mcsquare/internal/machine"
	"mcsquare/internal/memdata"
)

func newM() *machine.Machine { return machine.New(machine.DefaultParams()) }

// TestWrapperFringeHandling drives memcpy_lazy over every alignment class
// of Fig 8: unaligned head, sub-line chunks at page boundaries, unaligned
// tail — and verifies byte-exact results.
func TestWrapperFringeHandling(t *testing.T) {
	cases := []struct {
		name   string
		dstOff uint64
		srcOff uint64
		size   uint64
	}{
		{"aligned-page", 0, 0, 4096},
		{"unaligned-head", 7, 0, 4096},
		{"unaligned-both", 13, 41, 5000},
		{"sub-line", 3, 9, 40},
		{"exact-line", 0, 0, 64},
		{"line-plus-byte", 0, 0, 65},
		{"page-straddle", 4090, 17, 8192},
		{"src-page-boundary-mid-line", 64, 4090, 3000},
		{"huge", 5, 5, 64 << 10},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			m := newM()
			region := m.AllocPage(256 << 10)
			m.FillRandom(region, 256<<10, 5)
			src := region + memdata.Addr(tc.srcOff)
			dst := region + 128<<10 + memdata.Addr(tc.dstOff)
			want := m.Phys.Read(src, tc.size)
			var got []byte
			m.Run(func(c *cpu.Core) {
				MemcpyLazy(c, dst, src, tc.size)
				got = c.Load(dst, tc.size)
			})
			if !bytes.Equal(got, want) {
				t.Fatal("data mismatch")
			}
		})
	}
}

// TestWrapperChunksStayInPages verifies the Fig 8 invariant: every MCLAZY
// the wrapper issues stays within one source page and one destination page.
func TestWrapperChunksStayInPages(t *testing.T) {
	m := newM()
	region := m.AllocPage(128 << 10)
	m.FillRandom(region, 128<<10, 6)
	src := region + 4090 // forces page-boundary chunking
	dst := region + 64<<10 + 3
	m.Run(func(c *cpu.Core) {
		MemcpyLazy(c, dst, src, 20000)
	})
	for _, e := range m.Lazy.CTT().Entries() {
		if memdata.PageAlign(e.Dst.Start) != memdata.PageAlign(e.Dst.End()-1) {
			t.Fatalf("entry destination crosses a page: %+v", e)
		}
		sr := e.SrcRange()
		if memdata.PageAlign(sr.Start) != memdata.PageAlign(sr.End()-1) {
			t.Fatalf("entry source crosses a page: %+v", e)
		}
	}
}

func TestEagerMatchesLazyRandomized(t *testing.T) {
	rnd := rand.New(rand.NewSource(8))
	for trial := 0; trial < 10; trial++ {
		size := uint64(1 + rnd.Intn(20000))
		srcOff := uint64(rnd.Intn(64))
		dstOff := uint64(rnd.Intn(64))

		mE := newM()
		regE := mE.AllocPage(128 << 10)
		mE.FillRandom(regE, 128<<10, int64(trial))
		var gotE []byte
		mE.Run(func(c *cpu.Core) {
			MemcpyEager(c, regE+64<<10+memdata.Addr(dstOff), regE+memdata.Addr(srcOff), size)
			gotE = c.Load(regE+64<<10+memdata.Addr(dstOff), size)
		})

		mL := newM()
		regL := mL.AllocPage(128 << 10)
		mL.FillRandom(regL, 128<<10, int64(trial))
		var gotL []byte
		mL.Run(func(c *cpu.Core) {
			MemcpyLazy(c, regL+64<<10+memdata.Addr(dstOff), regL+memdata.Addr(srcOff), size)
			gotL = c.Load(regL+64<<10+memdata.Addr(dstOff), size)
		})

		if !bytes.Equal(gotE, gotL) {
			t.Fatalf("trial %d (size=%d src+%d dst+%d): eager and lazy differ",
				trial, size, srcOff, dstOff)
		}
	}
}

func TestFreeHint(t *testing.T) {
	m := newM()
	buf := m.AllocPage(16 << 10)
	m.FillRandom(buf, 16<<10, 9)
	m.Run(func(c *cpu.Core) {
		MemcpyLazy(c, buf+8<<10, buf, 4096)
		Free(c, memdata.Range{Start: buf + 8<<10, Size: 4096})
	})
	if m.Lazy.CTT().Len() != 0 {
		t.Fatalf("%d entries after Free", m.Lazy.CTT().Len())
	}
}
