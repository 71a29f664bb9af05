package cache

import (
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"mcsquare/internal/memdata"
)

// refArray is the reference an array is checked against: per set, the
// lines it holds and when each was last touched.
type refArray struct {
	n    int // set count
	sets map[int]map[memdata.Addr]uint64
	tick uint64
}

// setOf returns the index of line's set.
func (r *refArray) setOf(line memdata.Addr) int { return int(line/memdata.LineSize) % r.n }

func (r *refArray) set(line memdata.Addr) map[memdata.Addr]uint64 {
	s := r.setOf(line)
	if r.sets[s] == nil {
		r.sets[s] = map[memdata.Addr]uint64{}
	}
	return r.sets[s]
}

// lru returns the least recently touched line of a full set.
func (r *refArray) lru(set map[memdata.Addr]uint64) memdata.Addr {
	var v memdata.Addr
	first := true
	for line, t := range set {
		if first || t < set[v] {
			v, first = line, false
		}
	}
	return v
}

// TestArrayMatchesReference runs random installs, invalidations, lookups
// and fills on arrays of several metadata blocks against a map-of-sets
// reference: presence, the way a lookup lands in, and the way place picks
// (the line's own way on a hit, else a free way, else the set's LRU way)
// must agree after every operation. Lines come from a few sets spread over
// more than one block, so the array must allocate each block at the first
// fill that lands in it, and never for a lookup or an invalidation: a line
// of a set no fill reaches is probed and dropped after every operation. One
// geometry has a way count that does not divide the block size, so a set
// crosses a block boundary and the array allocates all its metadata at its
// first fill. The test also checks the carved line bytes after every
// operation: every valid way has bytes and no two ways share them, a way
// refilled after an invalidation carves nothing, and the array has carved
// exactly the ways ever filled, rounded up to whole chunks.
func TestArrayMatchesReference(t *testing.T) {
	for _, g := range []struct {
		name       string
		sets, ways int
		drawn      []int // the sets lines are drawn from
		probe      int   // a set no fill reaches
		straddles  bool  // a set crosses a block boundary
	}{
		{"four blocks", 4096, 4, []int{0, 1, 2, 1023, 1024, 1025, 1026, 2047}, 3000, false},
		{"sets cross blocks", 4096, 3, []int{0, 1, 1364, 1365, 1366, 2730, 2731, 4095}, 3000, true},
	} {
		t.Run(g.name, func(t *testing.T) {
			checkArrayAgainstReference(t, g.sets, g.ways, g.drawn, g.probe, g.straddles)
		})
	}
}

func checkArrayAgainstReference(t *testing.T, sets, ways int, drawn []int, probe int, straddles bool) {
	a := newArray(sets*ways*memdata.LineSize, ways)
	// Chunks of 4 lines, so the array carves several as ways fill.
	const chunk = 4
	a.chunkShift = 2
	ref := &refArray{n: sets, sets: map[int]map[memdata.Addr]uint64{}}
	rng := rand.New(rand.NewSource(1))
	filled := map[int]bool{} // ways ever installed
	blocks := map[int]bool{} // blocks ever filled
	touch := func(i int, line memdata.Addr) {
		a.touch(i)
		ref.tick++
		ref.set(line)[line] = ref.tick
	}
	inSet := func(i int, line memdata.Addr) bool {
		base := ref.setOf(line) * ways
		return i >= base && i < base+ways
	}
	// lineOf returns the k-th line of set s.
	lineOf := func(s, k int) memdata.Addr { return memdata.Addr(s+k*sets) * memdata.LineSize }
	checkBlocks := func(op int) {
		for b := range a.blocks {
			want := blocks[b] || straddles && len(blocks) > 0
			if got := a.blocks[b].keys != nil; got != want {
				t.Fatalf("op %d: block %d present: %v, want %v (blocks filled: %v)", op, b, got, want, blocks)
			}
		}
	}
	checkBytes := func(op int) {
		owner := map[*[memdata.LineSize]byte]int{}
		for _, s := range drawn {
			for i := s * ways; i < (s+1)*ways; i++ {
				if a.blocks[i>>blockShift].keys == nil {
					continue
				}
				if a.line(i).slot == 0 {
					if a.valid(i) {
						t.Fatalf("op %d: valid way %d has no bytes", op, i)
					}
					continue
				}
				d := a.data(i)
				if j, dup := owner[d]; dup {
					t.Fatalf("op %d: ways %d and %d share their bytes", op, j, i)
				}
				owner[d] = i
			}
		}
		if len(owner) != len(filled) || a.carved != len(filled) {
			t.Fatalf("op %d: %d ways have bytes and %d were carved, %d were ever filled", op, len(owner), a.carved, len(filled))
		}
		if got, want := len(a.chunks)*chunk, (len(filled)+chunk-1)/chunk*chunk; got != want {
			t.Fatalf("op %d: %d line slots carved for %d filled ways, want %d", op, got, len(filled), want)
		}
	}
	for op := 0; op < 200000; op++ {
		// Three lines per way, so sets overflow and evict.
		line := lineOf(drawn[rng.Intn(len(drawn))], rng.Intn(3*ways))
		set := ref.set(line)
		_, held := set[line]
		cl, i := a.lookup(line)
		if (cl != nil) != held || (i >= 0) != held || a.has(line) != held {
			t.Fatalf("op %d: lookup(%#x) = %v, %d; reference holds it: %v", op, line, cl != nil, i, held)
		}
		if held && (!inSet(i, line) || a.tag(i) != line || cl != a.line(i)) {
			t.Fatalf("op %d: lookup(%#x) landed on way %d holding %#x", op, line, i, a.tag(i))
		}
		switch rng.Intn(4) {
		case 0, 1: // access: touch a hit, fill a miss
			v, hit := a.place(line)
			if hit != held || held && v != i {
				t.Fatalf("op %d: place(%#x) = %d, %v; lookup found way %d", op, line, v, hit, i)
			}
			if held {
				touch(i, line)
				break
			}
			if !inSet(v, line) {
				t.Fatalf("op %d: place way %d outside %#x's set", op, v, line)
			}
			if len(set) < ways {
				if a.valid(v) {
					t.Fatalf("op %d: place way %d is valid though the set has a free way", op, v)
				}
			} else {
				if want := ref.lru(set); !a.valid(v) || a.tag(v) != want {
					t.Fatalf("op %d: place way %d holds %#x, want LRU line %#x", op, v, a.tag(v), want)
				}
				delete(set, a.tag(v))
				a.invalidate(v)
			}
			slot, chunks := a.line(v).slot, len(a.chunks)
			a.install(v, line)
			if filled[v] && (a.line(v).slot != slot || len(a.chunks) != chunks) {
				t.Fatalf("op %d: refilling way %d moved its bytes from slot %d to %d, chunks %d -> %d",
					op, v, slot, a.line(v).slot, chunks, len(a.chunks))
			}
			filled[v] = true
			blocks[v>>blockShift] = true
			touch(v, line)
		case 2: // invalidate
			if held {
				a.invalidate(i)
				delete(set, line)
			} else {
				a.drop(line)
			}
		case 3: // lookup only
		}
		// Nothing but a fill allocates metadata.
		p := lineOf(probe, rng.Intn(3*ways))
		if _, j := a.lookup(p); j >= 0 || a.has(p) {
			t.Fatalf("op %d: line %#x of a set never filled is cached in way %d", op, p, j)
		}
		a.drop(p)
		checkBlocks(op)
		checkBytes(op)
	}
	want := 0
	for _, s := range ref.sets {
		want += len(s)
	}
	if n := len(a.validWays()); n != want {
		t.Fatalf("%d valid ways, reference holds %d lines", n, want)
	}
}

// TestArrayInstallRejectsUnalignedTag: keys use bit 0 as the valid bit,
// so only line-aligned tags can be stored. The way's block is present
// before the bad install, so the only panic left is the alignment check's.
func TestArrayInstallRejectsUnalignedTag(t *testing.T) {
	a := newArray(4*4*memdata.LineSize, 4)
	i, _ := a.place(0)
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, "installing unaligned tag") {
			t.Fatalf("install of an unaligned tag: recovered %v, want the unaligned-tag panic", r)
		}
	}()
	a.install(i, 1)
}

// TestWayFootprint pins what a way costs: a 16-byte key and LRU entry and
// a 16-byte state record, allocated only when a fill first lands in the
// way's block, with its 64 line bytes carved only at its own first fill. A
// fresh Table I array, L2 or L1, allocates itself and its block directory
// and nothing else; its first fill allocates one block of metadata and the
// first chunk of line bytes. A field added to either record, or metadata or
// bytes allocated up front, shows up here.
func TestWayFootprint(t *testing.T) {
	if k, l := unsafe.Sizeof(wayKey{}), unsafe.Sizeof(cacheLine{}); k != 16 || l != 16 {
		t.Fatalf("a way's metadata is %d+%d bytes, want 16+16", k, l)
	}
	cfg := DefaultConfig(8)
	for _, g := range []struct {
		name             string
		size, ways       int
		blocks, blockLen int
	}{
		{"L2", cfg.L2Size, cfg.L2Ways, 8, 1 << blockShift},
		{"L1", cfg.L1Size, cfg.L1Ways, 1, cfg.L1Size / memdata.LineSize},
	} {
		t.Run(g.name, func(t *testing.T) {
			if got := testing.AllocsPerRun(10, func() { arraySink = newArray(g.size, g.ways) }); got != 2 {
				t.Fatalf("a fresh array makes %v allocations, want 2: itself and its block directory", got)
			}
			a := newArray(g.size, g.ways)
			if len(a.blocks) != g.blocks || len(a.validWays()) != 0 || len(a.chunks) != 0 || a.carved != 0 {
				t.Fatalf("a fresh array has %d blocks, %d valid ways, %d chunks and %d carved lines, want %d blocks and nothing else",
					len(a.blocks), len(a.validWays()), len(a.chunks), a.carved, g.blocks)
			}
			for b := range a.blocks {
				if a.blocks[b].keys != nil || a.blocks[b].lines != nil {
					t.Fatalf("a fresh array has block %d", b)
				}
			}
			// The last set, so a block other than the first is filled.
			line := memdata.Addr(a.setMask) * memdata.LineSize
			fill := func(a *array) {
				i, _ := a.place(line)
				a.install(i, line)
			}
			fill(a)
			for b := range a.blocks {
				want := 0
				if b == len(a.blocks)-1 {
					want = g.blockLen
				}
				if k, l := len(a.blocks[b].keys), len(a.blocks[b].lines); k != want || l != want {
					t.Fatalf("after one fill block %d holds %d keys and %d lines, want %d", b, k, l, want)
				}
			}
			if got := testing.AllocsPerRun(10, func() {
				a := newArray(g.size, g.ways)
				fill(a)
				arraySink = a
			}); got != 2+4 {
				t.Fatalf("a fresh array and its first fill make %v allocations, want 2+4: one block's keys and lines, the chunk list and one chunk of bytes", got)
			}
		})
	}
}

var arraySink *array
