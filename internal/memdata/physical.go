package memdata

import "fmt"

// Physical is the machine's byte-addressable backing store. All DRAM
// reads and writes ultimately land here, so data read back through the full
// cache + controller + CTT stack can be compared against what software
// wrote — the basis of the observational-equivalence tests.
//
// The store is sparse at two levels: a directory with one slot per 2 MB
// region points to a leaf of that region's 4 KB pages, and both a leaf and
// a page are allocated on the first write into them. A page never written
// reads as zeros, and zeroing it allocates nothing, so host memory follows
// the regions and pages a workload touches rather than the modelled
// capacity: a 256 MB store starts as a 128-slot directory.
type Physical struct {
	size uint64
	dir  []*leaf // indexed by addr >> HugePageShift; nil reads as zeros
}

// leafPages is the number of pages in one directory leaf.
const leafPages = HugePageSize / PageSize

// leaf holds the pages of one 2 MB region, indexed by page within it; a
// nil page reads as zeros.
type leaf [leafPages]*[PageSize]byte

// NewPhysical returns a zeroed store of the given capacity in bytes.
func NewPhysical(size uint64) *Physical {
	return &Physical{size: size, dir: make([]*leaf, (size+HugePageSize-1)>>HugePageShift)}
}

// Size returns the store's capacity in bytes.
func (p *Physical) Size() uint64 { return p.size }

func (p *Physical) check(a Addr, n uint64) {
	if n > p.size || uint64(a) > p.size-n {
		panic(fmt.Sprintf("memdata: access of %d bytes at %#x outside physical memory of %d bytes",
			n, a, p.size))
	}
}

// lookup returns the page holding a, or nil if it was never written.
func (p *Physical) lookup(a Addr) *[PageSize]byte {
	if l := p.dir[a>>HugePageShift]; l != nil {
		return l[a>>PageShift&(leafPages-1)]
	}
	return nil
}

// page returns the page holding a, allocating it and its leaf on first use.
func (p *Physical) page(a Addr) *[PageSize]byte {
	l := p.dir[a>>HugePageShift]
	if l == nil {
		l = new(leaf)
		p.dir[a>>HugePageShift] = l
	}
	pg := &l[a>>PageShift&(leafPages-1)]
	if *pg == nil {
		*pg = new([PageSize]byte)
	}
	return *pg
}

// Read copies n bytes starting at a into a fresh slice.
func (p *Physical) Read(a Addr, n uint64) []byte {
	p.check(a, n)
	out := make([]byte, n)
	p.readInto(a, out)
	return out
}

// ReadInto copies len(dst) bytes starting at a into dst.
func (p *Physical) ReadInto(a Addr, dst []byte) {
	p.check(a, uint64(len(dst)))
	p.readInto(a, dst)
}

func (p *Physical) readInto(a Addr, dst []byte) {
	for len(dst) > 0 {
		off := PageOffset(a)
		var k int
		if pg := p.lookup(a); pg != nil {
			k = copy(dst, pg[off:])
		} else {
			k = int(min(uint64(len(dst)), PageSize-off))
			clear(dst[:k])
		}
		dst = dst[k:]
		a += Addr(k)
	}
}

// Write copies src into the store starting at a.
func (p *Physical) Write(a Addr, src []byte) {
	p.check(a, uint64(len(src)))
	for len(src) > 0 {
		k := copy(p.page(a)[PageOffset(a):], src)
		src = src[k:]
		a += Addr(k)
	}
}

// ReadLine copies the 64-byte cacheline containing a into a fresh slice.
// a must be line-aligned.
func (p *Physical) ReadLine(a Addr) []byte {
	if !IsLineAligned(a) {
		panic(fmt.Sprintf("memdata: ReadLine of unaligned address %#x", a))
	}
	return p.Read(a, LineSize)
}

// WriteLine stores a full 64-byte cacheline at a. a must be line-aligned
// and len(line) must be LineSize.
func (p *Physical) WriteLine(a Addr, line []byte) {
	if !IsLineAligned(a) {
		panic(fmt.Sprintf("memdata: WriteLine of unaligned address %#x", a))
	}
	if len(line) != LineSize {
		panic(fmt.Sprintf("memdata: WriteLine with %d bytes", len(line)))
	}
	p.Write(a, line)
}

// Zero clears n bytes starting at a. Pages never written stay unallocated.
func (p *Physical) Zero(a Addr, n uint64) {
	p.check(a, n)
	p.zero(a, n)
}

func (p *Physical) zero(a Addr, n uint64) {
	for n > 0 {
		off := PageOffset(a)
		k := min(n, PageSize-off)
		if pg := p.lookup(a); pg != nil {
			clear(pg[off : off+k])
		}
		a += Addr(k)
		n -= k
	}
}

// Copy performs an immediate (non-simulated) copy of n bytes from src to
// dst within the store, with memmove semantics for overlapping ranges. Used
// by test oracles and OS bootstrap, never by the timed simulation path.
func (p *Physical) Copy(dst, src Addr, n uint64) {
	p.check(src, n)
	p.check(dst, n)
	if dst <= src || dst >= src+Addr(n) {
		// Front to back: each chunk overwrites only source bytes already
		// copied or inside the chunk itself.
		for n > 0 {
			k := min(n, PageSize-PageOffset(src), PageSize-PageOffset(dst))
			p.copyChunk(dst, src, k)
			dst, src, n = dst+Addr(k), src+Addr(k), n-k
		}
		return
	}
	// dst overlaps the tail of src: back to front, for the same reason.
	for n > 0 {
		k := min(n, PageOffset(src+Addr(n)-1)+1, PageOffset(dst+Addr(n)-1)+1)
		n -= k
		p.copyChunk(dst+Addr(n), src+Addr(n), k)
	}
}

// copyChunk copies k bytes that lie within one source page to a range
// within one destination page.
func (p *Physical) copyChunk(dst, src Addr, k uint64) {
	s := p.lookup(src)
	if s == nil {
		p.zero(dst, k)
		return
	}
	off := PageOffset(src)
	copy(p.page(dst)[PageOffset(dst):], s[off:off+k])
}
