package memdata

import (
	"bytes"
	"math/rand"
	"testing"
)

// allocatedPages returns the page numbers the store has allocated. It fails
// the test if a leaf is allocated without a page in it.
func allocatedPages(t *testing.T, p *Physical) []int {
	t.Helper()
	var out []int
	for i, l := range p.dir {
		if l == nil {
			continue
		}
		n := len(out)
		for j, pg := range l {
			if pg != nil {
				out = append(out, i*leafPages+j)
			}
		}
		if len(out) == n {
			t.Fatalf("leaf %d allocated with no page in it", i)
		}
	}
	return out
}

// allocatedLeaves counts the directory leaves the store has allocated.
func allocatedLeaves(p *Physical) int {
	n := 0
	for _, l := range p.dir {
		if l != nil {
			n++
		}
	}
	return n
}

// TestPhysicalDifferential runs seeded random sequences of every Physical
// operation against a plain []byte model, with ranges that cross pages and
// 2 MB leaves and copies that overlap in both directions, and compares the
// store with the model after every step. It also checks that only pages a
// Write, WriteLine or Copy wrote to were ever allocated. The sizes cover a
// store below one leaf and stores that end partway through a leaf and a
// page.
func TestPhysicalDifferential(t *testing.T) {
	for _, size := range []uint64{
		6*PageSize + 1000,
		HugePageSize + 5*PageSize + 1000,
		3*HugePageSize - 3*PageSize + 64,
	} {
		for seed := int64(1); seed <= 4; seed++ {
			physicalDifferential(t, size, seed)
		}
	}
}

func physicalDifferential(t *testing.T, size uint64, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	p := NewPhysical(size)
	ref := make([]byte, size)
	written := map[int]bool{}
	markWritten := func(a, n uint64) {
		for pg := a >> PageShift; n > 0 && pg <= (a+n-1)>>PageShift; pg++ {
			written[int(pg)] = true
		}
	}
	// addr favours page and leaf boundaries, where chunking goes wrong.
	addr := func() uint64 {
		var edge uint64
		switch rng.Intn(4) {
		case 0:
			return uint64(rng.Int63n(int64(size)))
		case 1:
			edge = uint64(rng.Int63n(int64(size/PageSize+1))) * PageSize
		default: // a leaf boundary or a page boundary beside one
			edge = uint64(rng.Int63n(int64(size/HugePageSize+1))) * HugePageSize
			edge = max(edge+uint64(rng.Intn(5))*PageSize, 2*PageSize) - 2*PageSize
		}
		a := edge + uint64(rng.Intn(129)) - 64
		return min(a, size-1) // wraps below 0 land on size-1
	}
	length := func(a uint64) uint64 {
		limit := size - a
		switch rng.Intn(8) {
		case 0, 1, 2:
			return min(uint64(rng.Intn(2*LineSize)), limit)
		case 3: // longer than a leaf when the store allows
			return min(uint64(rng.Intn(HugePageSize+3*PageSize)), limit)
		default:
			return min(uint64(rng.Intn(3*PageSize)), limit)
		}
	}
	// check compares [a, a+n) of the store with the model.
	check := func(step int, op string, a, n uint64) {
		t.Helper()
		got := p.Read(Addr(a), n)
		if bytes.Equal(got, ref[a:a+n]) {
			return
		}
		for i := range got {
			if got[i] != ref[a+uint64(i)] {
				t.Fatalf("size %d seed %d step %d (%s): store differs from model first at %#x",
					size, seed, step, op, a+uint64(i))
			}
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
			a = uint64(LineAlign(Addr(a)))
			a = min(a, uint64(LineAlign(Addr(size-LineSize))))
			line := make([]byte, LineSize)
			rng.Read(line)
			p.WriteLine(Addr(a), line)
			copy(ref[a:], line)
			markWritten(a, LineSize)
		case 2:
			op = "Read"
			if got := p.Read(Addr(a), n); !bytes.Equal(got, ref[a:a+n]) {
				t.Fatalf("size %d seed %d step %d: Read(%#x, %d) differs from model", size, seed, step, a, n)
			}
		case 3:
			op = "ReadInto"
			dst := bytes.Repeat([]byte{0xAA}, int(n))
			p.ReadInto(Addr(a), dst)
			if !bytes.Equal(dst, ref[a:a+n]) {
				t.Fatalf("size %d seed %d step %d: ReadInto(%#x, %d) differs from model", size, seed, step, a, n)
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
			a = dst
		}
		// The bytes around the op every step, the whole store now and
		// then: a whole-store compare of a multi-leaf store every step
		// would dominate the test.
		lo := a - min(a, PageSize)
		check(step, op, lo, min(a+n+PageSize, size)-lo)
		if size <= HugePageSize || step%100 == 99 {
			check(step, op, 0, size)
		}
	}
	check(1500, "end", 0, size)
	for _, pg := range allocatedPages(t, p) {
		if !written[pg] {
			t.Fatalf("size %d seed %d: page %d allocated but never written", size, seed, pg)
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
	if got := allocatedPages(t, p); len(got) != 0 {
		t.Fatalf("reads, Zero and Copy of untouched pages allocated pages %v", got)
	}

	p.Write(3*PageSize+10, []byte{1})
	if got := allocatedPages(t, p); len(got) != 1 || got[0] != 3 {
		t.Fatalf("one-byte write allocated pages %v, want [3]", got)
	}
	p.Zero(0, size)
	p.Copy(3*PageSize, 50*PageSize, PageSize) // untouched source onto page 3
	if got := allocatedPages(t, p); len(got) != 1 {
		t.Fatalf("Zero and Copy from untouched pages changed the allocated pages to %v", got)
	}
	if p.Read(3*PageSize+10, 1)[0] != 0 {
		t.Fatal("Zero did not clear an allocated page")
	}
}

// oneByte and sinkPhysical keep TestPhysicalFootprint's source bytes out
// of the measured function and its stores on the heap, so that exactly the
// store's own allocations count.
var (
	oneByte      = []byte{1}
	sinkPhysical *Physical
)

// TestPhysicalFootprint pins what a store costs before and at its first
// write: a Table I store of 256 MB is a 128-slot directory, and a one-byte
// write allocates one 4 KB leaf and one 4 KB page. A dense page directory
// (512 KB at this size) fails here.
func TestPhysicalFootprint(t *testing.T) {
	const size = 256 << 20
	measure := func(f func()) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f()
			}
		})
	}
	empty := measure(func() { sinkPhysical = NewPhysical(size) })
	if got := empty.AllocedBytesPerOp(); got > 2048 {
		t.Fatalf("NewPhysical(256 MiB) allocates %d bytes, want at most 2048", got)
	}
	const a = 5*HugePageSize + 3*PageSize + 10
	written := measure(func() {
		sinkPhysical = NewPhysical(size)
		sinkPhysical.Write(a, oneByte)
	})
	if got, want := written.AllocsPerOp()-empty.AllocsPerOp(), int64(2); got != want {
		t.Fatalf("a one-byte write makes %d allocations, want %d (a leaf and a page)", got, want)
	}
	// The allocator adds a header to a leaf, which holds pointers, and
	// rounds it up to its size class.
	if got, limit := written.AllocedBytesPerOp()-empty.AllocedBytesPerOp(), int64(2*PageSize+1024); got > limit {
		t.Fatalf("a one-byte write allocates %d bytes, want at most %d (a leaf and a page)", got, limit)
	}
	p := NewPhysical(size)
	p.Write(a, oneByte)
	if got := allocatedPages(t, p); len(got) != 1 || got[0] != a>>PageShift || allocatedLeaves(p) != 1 {
		t.Fatalf("one-byte write allocated pages %v in %d leaves, want [%d] in 1", got, allocatedLeaves(p), a>>PageShift)
	}
}
