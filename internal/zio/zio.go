// Package zio reimplements the paper's software baseline: zIO (OSDI '22),
// which elides memcpy calls at page granularity. The destination pages are
// unmapped (charged a fixed remap cost plus per-page PTE work and a TLB
// shootdown) and recorded in a tracking structure; the first access to an
// elided page takes a copy-on-access fault that materializes it with a
// real 4 KB copy. Source pages are write-protected: modifying a page that
// pending elisions copy from materializes those destinations first. As in
// the paper's methodology (§IV), elision applies to every memcpy call, not
// just IO paths.
//
// zio.Copier implements copykit.Copier, so the same workloads drive it.
package zio

import (
	"fmt"
	"sort"

	"mcsquare/internal/copykit"
	"mcsquare/internal/cpu"
	"mcsquare/internal/memdata"
	"mcsquare/internal/metrics"
	"mcsquare/internal/oskern"
	"mcsquare/internal/sim"
	"mcsquare/internal/softmc"
)

// Params is zIO's cost model.
type Params struct {
	// ElideFixedCost is charged once per eliding memcpy call: unmapping,
	// userfaultfd bookkeeping, and the TLB shootdown round. zIO's remap
	// overhead is what makes it lose below ~64 KB copies (Fig 10).
	ElideFixedCost sim.Cycle
	// PerPageCost is charged per elided destination page (PTE + skiplist).
	PerPageCost sim.Cycle
	// FaultCost is the copy-on-access fault round trip, excluding the copy.
	FaultCost sim.Cycle
}

// DefaultParams calibrates against the paper's Fig 10: elision costs more
// than copying below ~64 KB and pays off above.
func DefaultParams() Params {
	return Params{
		ElideFixedCost: 24000, // ~6 µs: munmap + userfaultfd + shootdown
		PerPageCost:    300,
		FaultCost:      2400,
	}
}

// Stats counts elision activity.
type Stats struct {
	ElideCalls  uint64 // memcpy calls that elided at least one page
	ElidedPages uint64
	EagerCalls  uint64 // memcpy calls fully copied (too small / misaligned)
	Faults      uint64 // copy-on-access faults
	FaultCycles uint64
	Redirects   uint64 // elided pages whose source was itself elided
	SrcBarriers uint64 // dest pages materialized because their source was written
}

// Copier is one process's zIO state.
type Copier struct {
	K *oskern.Kernel
	P Params

	// elided maps a destination page address to the source address its
	// contents must be copied from on first access.
	elided map[memdata.Addr]memdata.Addr
	// deps maps a source page to the destination pages depending on it
	// (the write-protection index).
	deps map[memdata.Addr][]memdata.Addr

	Stats Stats
}

var _ copykit.Copier = (*Copier)(nil)

// New creates a zIO copier over the kernel's machine and publishes its
// counters into the machine's registry under "zio" (one copier per
// machine, like the kernel itself).
func New(k *oskern.Kernel) *Copier {
	z := &Copier{
		K:      k,
		P:      DefaultParams(),
		elided: map[memdata.Addr]memdata.Addr{},
		deps:   map[memdata.Addr][]memdata.Addr{},
	}
	z.PublishMetrics(k.M.Metrics.Scope("zio"))
	return z
}

// PublishMetrics registers the copier's counters under the given scope.
func (z *Copier) PublishMetrics(s metrics.Scope) {
	s.Counter("elide_calls", &z.Stats.ElideCalls)
	s.Counter("elided_pages", &z.Stats.ElidedPages)
	s.Counter("eager_calls", &z.Stats.EagerCalls)
	s.Counter("faults", &z.Stats.Faults)
	s.Counter("fault_cycles", &z.Stats.FaultCycles)
	s.Counter("redirects", &z.Stats.Redirects)
	s.Counter("src_barriers", &z.Stats.SrcBarriers)
}

func (z *Copier) register(dst, src memdata.Addr) {
	z.elided[dst] = src
	for _, sp := range srcPages(src) {
		z.deps[sp] = append(z.deps[sp], dst)
	}
}

func (z *Copier) unregister(dst memdata.Addr) {
	src, ok := z.elided[dst]
	if !ok {
		return
	}
	delete(z.elided, dst)
	for _, sp := range srcPages(src) {
		list := z.deps[sp]
		for i, d := range list {
			if d == dst {
				z.deps[sp] = append(list[:i], list[i+1:]...)
				break
			}
		}
		if len(z.deps[sp]) == 0 {
			delete(z.deps, sp)
		}
	}
}

// srcPages returns the 1–2 pages a page-sized source span touches.
func srcPages(src memdata.Addr) []memdata.Addr {
	first := memdata.PageAlign(src)
	last := memdata.PageAlign(src + memdata.PageSize - 1)
	if first == last {
		return []memdata.Addr{first}
	}
	return []memdata.Addr{first, last}
}

// Memcpy implements copykit.Copier: full destination pages are elided,
// fringes are copied eagerly.
func (z *Copier) Memcpy(c *cpu.Core, dst, src memdata.Addr, n uint64) {
	// Writing the destination (by copy or by elision) invalidates pending
	// elisions that read from it.
	z.writeBarrier(c, memdata.Range{Start: dst, Size: n})

	head := memdata.AlignRem(dst, memdata.PageSize)
	if head >= n || n-head < memdata.PageSize {
		z.Stats.EagerCalls++
		z.eagerCopy(c, dst, src, n)
		return
	}
	z.Stats.ElideCalls++
	c.Compute(z.P.ElideFixedCost)
	if head > 0 {
		z.eagerCopy(c, dst, src, head)
		dst += memdata.Addr(head)
		src += memdata.Addr(head)
		n -= head
	}
	for n >= memdata.PageSize {
		z.elidePage(c, dst, src)
		dst += memdata.PageSize
		src += memdata.PageSize
		n -= memdata.PageSize
	}
	if n > 0 {
		z.eagerCopy(c, dst, src, n)
	}
}

// eagerCopy materializes everything the copy touches, then copies.
func (z *Copier) eagerCopy(c *cpu.Core, dst, src memdata.Addr, n uint64) {
	z.materializeRange(c, memdata.Range{Start: dst, Size: n})
	z.materializeRange(c, memdata.Range{Start: src, Size: n})
	softmc.MemcpyEager(c, dst, src, n)
}

// elidePage records dst ← src for one destination page, resolving a chain
// through an already-elided source page when a single redirect suffices.
func (z *Copier) elidePage(c *cpu.Core, dst, src memdata.Addr) {
	z.unregister(dst) // the old elision of dst (if any) is overwritten
	pages := srcPages(src)
	if len(pages) == 1 {
		if ult, ok := z.elided[pages[0]]; ok {
			src = ult + memdata.Addr(memdata.PageOffset(src))
			z.Stats.Redirects++
		}
	} else {
		// The span straddles two pages: materialize any elided ones rather
		// than tracking a two-way chain.
		for _, sp := range pages {
			z.fault(c, sp)
		}
	}
	c.Compute(z.P.PerPageCost)
	z.register(dst, src)
	z.Stats.ElidedPages++
}

// writeBarrier materializes every destination page whose recorded source
// overlaps r — the write-protection fault real zIO takes before source
// pages change.
func (z *Copier) writeBarrier(c *cpu.Core, r memdata.Range) {
	if r.Empty() || len(z.deps) == 0 {
		return
	}
	first := memdata.PageAlign(r.Start)
	last := memdata.PageAlign(r.End() - 1)
	var victims []memdata.Addr
	for p := first; p <= last; p += memdata.PageSize {
		victims = append(victims, z.deps[p]...)
	}
	if len(victims) == 0 {
		return
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i] < victims[j] })
	for _, d := range victims {
		if _, ok := z.elided[d]; ok {
			z.Stats.SrcBarriers++
			z.fault(c, d)
		}
	}
}

// materializeRange faults in every elided page the range touches.
func (z *Copier) materializeRange(c *cpu.Core, r memdata.Range) {
	if r.Empty() {
		return
	}
	first := memdata.PageAlign(r.Start)
	last := memdata.PageAlign(r.End() - 1)
	for p := first; p <= last; p += memdata.PageSize {
		z.fault(c, p)
	}
}

// fault is the copy-on-access handler: the page is materialized with a
// real 4 KB copy from its recorded source.
func (z *Copier) fault(c *cpu.Core, page memdata.Addr) {
	src, ok := z.elided[page]
	if !ok {
		return
	}
	start := c.Now()
	z.Stats.Faults++
	z.unregister(page)
	// The recorded source is protected by the write barrier, but may chain.
	z.materializeRange(c, memdata.Range{Start: src, Size: memdata.PageSize})
	c.Compute(z.P.FaultCost)
	softmc.MemcpyEager(c, page, src, memdata.PageSize)
	c.Compute(z.K.P.PTECost)
	z.Stats.FaultCycles += uint64(c.Now() - start)
}

// Read implements copykit.Copier.
func (z *Copier) Read(c *cpu.Core, a memdata.Addr, n uint64) []byte {
	z.materializeRange(c, memdata.Range{Start: a, Size: n})
	return c.Load(a, n)
}

// ReadAsync implements copykit.Copier.
func (z *Copier) ReadAsync(c *cpu.Core, a memdata.Addr, n uint64) {
	z.materializeRange(c, memdata.Range{Start: a, Size: n})
	c.LoadAsync(a, n)
}

// Write implements copykit.Copier. Writes materialize the touched pages
// (they are unmapped) and fault out any elisions sourced from them.
func (z *Copier) Write(c *cpu.Core, a memdata.Addr, data []byte) {
	r := memdata.Range{Start: a, Size: uint64(len(data))}
	z.writeBarrier(c, r)
	z.materializeRange(c, r)
	c.Store(a, data)
}

// Free implements copykit.Copier: dropping a dead buffer discards its
// elision records without copying.
func (z *Copier) Free(c *cpu.Core, r memdata.Range) {
	if r.Empty() {
		return
	}
	first := memdata.PageAlign(r.Start)
	last := memdata.PageAlign(r.End() - 1)
	for p := first; p <= last; p += memdata.PageSize {
		if _, ok := z.elided[p]; ok && r.ContainsRange(memdata.Range{Start: p, Size: memdata.PageSize}) {
			z.unregister(p)
		}
	}
}

// Pending returns the number of currently elided pages (test support).
func (z *Copier) Pending() int { return len(z.elided) }

// String summarizes the copier state.
func (z *Copier) String() string {
	return fmt.Sprintf("zio{elided=%d faults=%d}", len(z.elided), z.Stats.Faults)
}
