// Package softmc is the software layer of (MC)²: the memcpy_lazy C library
// function of §III-D, reproduced from the paper's Fig 8 pseudocode byte
// for byte. The interposer policy that redirects large memcpy calls to it
// is copykit.Lazy.
package softmc

import (
	"mcsquare/internal/cpu"
	"mcsquare/internal/memdata"
)

// MemcpyLazy copies size bytes from src to dst with semantics identical to
// memcpy, using MCLAZY for every cacheline-aligned page-bounded chunk and
// plain copies for the fringes (the paper's Fig 8):
//
//  1. eagerly copy the bytes needed to cacheline-align dst;
//  2. per iteration, bound the chunk by the bytes remaining in the source
//     and destination pages so each MCLAZY stays within one page of each;
//  3. chunks smaller than a cacheline are copied eagerly; larger chunks are
//     rounded down to a line multiple, the source lines are written back
//     with CLWB, and MCLAZY is issued;
//  4. a final fence orders the prospective copies with future accesses.
//
// Addresses here are physical, as the simulated workloads run identity-
// mapped; oskern wraps this for paged address spaces.
func MemcpyLazy(c *cpu.Core, dst, src memdata.Addr, size uint64) {
	// Cacheline-align dst (Fig 8 lines 3-7).
	leftFringe := memdata.AlignRem(dst, memdata.LineSize)
	if leftFringe > size {
		leftFringe = size
	}
	if leftFringe > 0 {
		c.Memcpy(dst, src, leftFringe)
		dst += memdata.Addr(leftFringe)
		src += memdata.Addr(leftFringe)
		size -= leftFringe
	}
	for size > 0 {
		// Re-align dst if a sub-line chunk (a source page boundary falling
		// mid-line) left it unaligned — a case Fig 8 leaves implicit but
		// MCLAZY's alignment rule requires.
		if fr := memdata.AlignRem(dst, memdata.LineSize); fr > 0 {
			if fr > size {
				fr = size
			}
			c.Memcpy(dst, src, fr)
			dst += memdata.Addr(fr)
			src += memdata.Addr(fr)
			size -= fr
			continue
		}
		// Bytes remaining in the current source and destination pages
		// (Fig 8 lines 10-13). A page-aligned address has a full page left.
		srcOff := memdata.PageSize - memdata.PageOffset(src)
		dstOff := memdata.PageSize - memdata.PageOffset(dst)
		copySize := min(min(srcOff, dstOff), size)
		if copySize < memdata.LineSize {
			c.Memcpy(dst, src, copySize)
		} else {
			copySize &^= memdata.LineSize - 1
			// Write back each source cacheline so MC-visible memory holds
			// the data as of this call (§IV: the wrapper issues CLWB per
			// line to model the writeback cost).
			for l := memdata.LineAlign(src); l < memdata.LineUp(src+memdata.Addr(copySize)); l += memdata.LineSize {
				c.CLWB(l)
			}
			c.MCLazy(memdata.Range{Start: dst, Size: copySize}, src)
		}
		dst += memdata.Addr(copySize)
		src += memdata.Addr(copySize)
		size -= copySize
	}
	c.Fence() // mfence (Fig 8 line 23)
}

// MemcpyEager is the baseline: a plain cache-level copy followed by a
// fence, so both paths measure to completion of the same visible state.
func MemcpyEager(c *cpu.Core, dst, src memdata.Addr, size uint64) {
	c.Memcpy(dst, src, size)
	c.Fence()
}

// Free releases a buffer with the MCFREE hint (munmap-style): tracking for
// the buffer is dropped and its contents become undefined.
func Free(c *cpu.Core, r memdata.Range) {
	c.MCFree(r)
	c.Fence()
}
