package memdata

import (
	"bytes"
	"math/rand"
	"testing"
)

// allocatedPages returns the page numbers the store has allocated.
func allocatedPages(p *Physical) []int {
	var out []int
	for i, pg := range p.pages {
		if pg != nil {
			out = append(out, i)
		}
	}
	return out
}

// TestPhysicalDifferential runs seeded random sequences of every Physical
// operation against a plain []byte model, with ranges that cross pages and
// copies that overlap in both directions, and compares the whole store after
// every step. It also checks that only pages a Write, WriteLine or Copy
// wrote to were ever allocated.
func TestPhysicalDifferential(t *testing.T) {
	const size = 6*PageSize + 1000 // a partial last page too
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := NewPhysical(size)
		ref := make([]byte, size)
		written := map[int]bool{}
		markWritten := func(a, n uint64) {
			for pg := a >> PageShift; n > 0 && pg <= (a+n-1)>>PageShift; pg++ {
				written[int(pg)] = true
			}
		}
		// addr favours page boundaries, where chunking goes wrong.
		addr := func() uint64 {
			switch rng.Intn(3) {
			case 0:
				return uint64(rng.Intn(size))
			default:
				edge := uint64(rng.Intn(size/PageSize+1)) * PageSize
				a := edge + uint64(rng.Intn(129)) - 64
				return min(a, size-1) // wraps below 0 land on size-1
			}
		}
		length := func(a uint64) uint64 {
			limit := size - a
			switch rng.Intn(3) {
			case 0:
				return min(uint64(rng.Intn(2*LineSize)), limit)
			default:
				return min(uint64(rng.Intn(3*PageSize)), limit)
			}
		}
		for step := 0; step < 1500; step++ {
			a := addr()
			n := length(a)
			var op string
			switch rng.Intn(7) {
			case 0:
				op = "Write"
				src := make([]byte, n)
				rng.Read(src)
				p.Write(Addr(a), src)
				copy(ref[a:], src)
				markWritten(a, n)
			case 1:
				op = "WriteLine"
				a = uint64(LineAlign(Addr(rng.Intn(size - LineSize))))
				line := make([]byte, LineSize)
				rng.Read(line)
				p.WriteLine(Addr(a), line)
				copy(ref[a:], line)
				markWritten(a, LineSize)
			case 2:
				op = "Read"
				if got := p.Read(Addr(a), n); !bytes.Equal(got, ref[a:a+n]) {
					t.Fatalf("seed %d step %d: Read(%#x, %d) differs from model", seed, step, a, n)
				}
			case 3:
				op = "ReadInto"
				dst := bytes.Repeat([]byte{0xAA}, int(n))
				p.ReadInto(Addr(a), dst)
				if !bytes.Equal(dst, ref[a:a+n]) {
					t.Fatalf("seed %d step %d: ReadInto(%#x, %d) differs from model", seed, step, a, n)
				}
			case 4:
				op = "Zero"
				p.Zero(Addr(a), n)
				clear(ref[a : a+n])
			default:
				op = "Copy"
				src := a
				var dst uint64
				if rng.Intn(2) == 0 {
					dst = addr()
				} else { // overlap src by up to n bytes either way
					delta := int64(rng.Intn(int(2*n+1))) - int64(n)
					dst = uint64(max(0, int64(src)+delta))
				}
				n = min(n, size-dst)
				p.Copy(Addr(dst), Addr(src), n)
				copy(ref[dst:dst+n], ref[src:src+n])
				markWritten(dst, n)
			}
			if got := p.Read(0, size); !bytes.Equal(got, ref) {
				for i := range got {
					if got[i] != ref[i] {
						t.Fatalf("seed %d step %d (%s at %#x, %d bytes): store differs from model first at %#x",
							seed, step, op, a, n, i)
					}
				}
			}
		}
		for _, pg := range allocatedPages(p) {
			if !written[pg] {
				t.Fatalf("seed %d: page %d allocated but never written", seed, pg)
			}
		}
	}
}

func TestPhysicalUntouchedPagesStayUnallocated(t *testing.T) {
	const size = 1 << 20
	p := NewPhysical(size)
	if got := p.Read(PageSize-8, 3*PageSize); !bytes.Equal(got, make([]byte, 3*PageSize)) {
		t.Fatal("untouched pages did not read as zeros")
	}
	dst := bytes.Repeat([]byte{0xAA}, 2*PageSize)
	p.ReadInto(5*PageSize+100, dst)
	if !bytes.Equal(dst, make([]byte, 2*PageSize)) {
		t.Fatal("ReadInto of untouched pages did not zero dst")
	}
	p.ReadLine(64 * PageSize)
	p.Zero(0, size)
	p.Copy(100*PageSize, 10*PageSize+7, 5*PageSize)
	if got := allocatedPages(p); len(got) != 0 {
		t.Fatalf("reads, Zero and Copy of untouched pages allocated pages %v", got)
	}

	p.Write(3*PageSize+10, []byte{1})
	if got := allocatedPages(p); len(got) != 1 || got[0] != 3 {
		t.Fatalf("one-byte write allocated pages %v, want [3]", got)
	}
	p.Zero(0, size)
	p.Copy(3*PageSize, 50*PageSize, PageSize) // untouched source onto page 3
	if got := allocatedPages(p); len(got) != 1 {
		t.Fatalf("Zero and Copy from untouched pages changed the allocated pages to %v", got)
	}
	if p.Read(3*PageSize+10, 1)[0] != 0 {
		t.Fatal("Zero did not clear an allocated page")
	}
}
