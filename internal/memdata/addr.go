// Package memdata provides the physical memory substrate of the simulated
// machine: address types, cacheline/page arithmetic, byte ranges, and a
// sparse, page-granular byte-addressable backing store.
//
// Everything above this package (caches, controllers, the CTT) operates on
// these types, so the constants here define the machine's granularities.
package memdata

// Addr is a physical byte address.
type Addr uint64

// VAddr is a virtual byte address (translated by internal/oskern).
type VAddr uint64

// Fundamental granularities of the simulated machine. These match the
// paper's simulated configuration (64 B cachelines, 4 KB pages, 2 MB huge
// pages).
const (
	LineShift = 6
	LineSize  = 1 << LineShift // 64 B

	PageShift = 12
	PageSize  = 1 << PageShift // 4 KB

	HugePageShift = 21
	HugePageSize  = 1 << HugePageShift // 2 MB
)

// LineAlign rounds a down to a cacheline boundary.
func LineAlign(a Addr) Addr { return a &^ (LineSize - 1) }

// LineOffset returns a's offset within its cacheline.
func LineOffset(a Addr) uint64 { return uint64(a) & (LineSize - 1) }

// IsLineAligned reports whether a is cacheline-aligned.
func IsLineAligned(a Addr) bool { return LineOffset(a) == 0 }

// LineUp rounds a up to the next cacheline boundary (identity if aligned).
func LineUp(a Addr) Addr { return (a + LineSize - 1) &^ (LineSize - 1) }

// PageAlign rounds a down to a 4 KB page boundary.
func PageAlign(a Addr) Addr { return a &^ (PageSize - 1) }

// PageOffset returns a's offset within its 4 KB page.
func PageOffset(a Addr) uint64 { return uint64(a) & (PageSize - 1) }

// AlignRem returns the number of bytes needed to advance a to the next
// multiple of align (0 if already aligned). align must be a power of two.
// This is the ALIGN_REM macro from the paper's Fig 8 pseudocode.
func AlignRem(a Addr, align uint64) uint64 {
	rem := uint64(a) & (align - 1)
	if rem == 0 {
		return 0
	}
	return align - rem
}

// Range is a half-open byte range [Start, Start+Size) of physical memory.
type Range struct {
	Start Addr
	Size  uint64
}

// End returns the exclusive end address.
func (r Range) End() Addr { return r.Start + Addr(r.Size) }

// Empty reports whether the range covers no bytes.
func (r Range) Empty() bool { return r.Size == 0 }

// Contains reports whether a lies within the range.
func (r Range) Contains(a Addr) bool { return a >= r.Start && a < r.End() }

// ContainsRange reports whether o lies entirely within r.
func (r Range) ContainsRange(o Range) bool {
	return o.Start >= r.Start && o.End() <= r.End()
}

// Overlaps reports whether the two ranges share any byte.
func (r Range) Overlaps(o Range) bool {
	return !r.Empty() && !o.Empty() && r.Start < o.End() && o.Start < r.End()
}

// Intersect returns the overlapping part of r and o (possibly empty).
func (r Range) Intersect(o Range) Range {
	start := max(r.Start, o.Start)
	end := min(r.End(), o.End())
	if end <= start {
		return Range{}
	}
	return Range{Start: start, Size: uint64(end - start)}
}

// Subtract returns the parts of r not covered by o: zero, one, or two
// disjoint ranges in ascending order.
func (r Range) Subtract(o Range) []Range {
	lo, hi := r.Minus(o)
	var out []Range
	if !lo.Empty() {
		out = append(out, lo)
	}
	if !hi.Empty() {
		out = append(out, hi)
	}
	return out
}

// Minus is Subtract without the slice: lo and hi are the parts of r below
// and above o, either possibly empty. When r and o do not intersect, r
// comes back whole as lo.
func (r Range) Minus(o Range) (lo, hi Range) {
	inter := r.Intersect(o)
	if inter.Empty() {
		return r, Range{}
	}
	if inter.Start > r.Start {
		lo = Range{Start: r.Start, Size: uint64(inter.Start - r.Start)}
	}
	if inter.End() < r.End() {
		hi = Range{Start: inter.End(), Size: uint64(r.End() - inter.End())}
	}
	return lo, hi
}

// Lines returns the cacheline-aligned addresses of every line the range
// touches (including partially covered fringe lines).
func (r Range) Lines() []Addr {
	if r.Empty() {
		return nil
	}
	first := LineAlign(r.Start)
	last := LineAlign(r.End() - 1)
	out := make([]Addr, 0, (last-first)/LineSize+1)
	for a := first; a <= last; a += LineSize {
		out = append(out, a)
	}
	return out
}

// NumLines returns how many cachelines the range touches.
func (r Range) NumLines() uint64 {
	if r.Empty() {
		return 0
	}
	first := LineAlign(r.Start)
	last := LineAlign(r.End() - 1)
	return uint64(last-first)/LineSize + 1
}
