package cache

import (
	"math/rand"
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
// and victim choices on a small array against a map-of-sets reference:
// presence, the way a lookup lands in, and the LRU victim of a full set
// must agree after every operation. It also checks the carved line bytes
// after every operation: every valid way has bytes and no two ways share
// them, a way refilled after an invalidation carves nothing, and the array
// has carved exactly the ways ever filled, rounded up to whole chunks.
func TestArrayMatchesReference(t *testing.T) {
	const sets, ways = 8, 4
	a := newArray(sets*ways*memdata.LineSize, ways)
	// Chunks of 4 lines, so the array carves 8 of them as ways fill.
	const chunk = 4
	a.chunkShift = 2
	ref := &refArray{n: sets, sets: map[int]map[memdata.Addr]uint64{}}
	rng := rand.New(rand.NewSource(1))
	filled := map[int]bool{} // ways ever installed
	touch := func(i int, line memdata.Addr) {
		a.touch(i)
		ref.tick++
		ref.set(line)[line] = ref.tick
	}
	inSet := func(i int, line memdata.Addr) bool {
		base := ref.setOf(line) * ways
		return i >= base && i < base+ways
	}
	checkBytes := func(op int) {
		owner := map[*[memdata.LineSize]byte]int{}
		for i := range a.lines {
			if a.lines[i].slot == 0 {
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
		if len(owner) != len(filled) {
			t.Fatalf("op %d: %d ways have bytes, %d were ever filled", op, len(owner), len(filled))
		}
		if got, want := len(a.chunks)*chunk, (len(filled)+chunk-1)/chunk*chunk; got != want {
			t.Fatalf("op %d: %d line slots carved for %d filled ways, want %d", op, got, len(filled), want)
		}
	}
	for op := 0; op < 200000; op++ {
		// Three times the array's lines, so sets overflow and evict.
		line := memdata.Addr(rng.Intn(3*sets*ways)) * memdata.LineSize
		set := ref.set(line)
		_, held := set[line]
		cl, i := a.lookup(line)
		if (cl != nil) != held || (i >= 0) != held {
			t.Fatalf("op %d: lookup(%#x) = %v, %d; reference holds it: %v", op, line, cl != nil, i, held)
		}
		if held && (!inSet(i, line) || a.tag(i) != line || cl != &a.lines[i]) {
			t.Fatalf("op %d: lookup(%#x) landed on way %d holding %#x", op, line, i, a.tag(i))
		}
		switch rng.Intn(4) {
		case 0, 1: // access: touch a hit, fill a miss
			if held {
				touch(i, line)
				continue
			}
			v := a.victim(line)
			if !inSet(v, line) {
				t.Fatalf("op %d: victim way %d outside %#x's set", op, v, line)
			}
			if len(set) < ways {
				if a.valid(v) {
					t.Fatalf("op %d: victim way %d is valid though the set has a free way", op, v)
				}
			} else {
				if want := ref.lru(set); !a.valid(v) || a.tag(v) != want {
					t.Fatalf("op %d: victim way %d holds %#x, want LRU line %#x", op, v, a.tag(v), want)
				}
				delete(set, a.tag(v))
				a.invalidate(v)
			}
			slot, chunks := a.lines[v].slot, len(a.chunks)
			a.install(v, line)
			if filled[v] && (a.lines[v].slot != slot || len(a.chunks) != chunks) {
				t.Fatalf("op %d: refilling way %d moved its bytes from slot %d to %d, chunks %d -> %d",
					op, v, slot, a.lines[v].slot, chunks, len(a.chunks))
			}
			filled[v] = true
			touch(v, line)
		case 2: // invalidate
			if held {
				a.invalidate(i)
				delete(set, line)
			}
		case 3: // lookup only
		}
		checkBytes(op)
	}
	n := 0
	for i := range a.keys {
		if a.valid(i) {
			n++
		}
	}
	want := 0
	for _, s := range ref.sets {
		want += len(s)
	}
	if n != want {
		t.Fatalf("%d valid ways, reference holds %d lines", n, want)
	}
}

// TestArrayInstallRejectsUnalignedTag: keys use bit 0 as the valid bit,
// so only line-aligned tags can be stored.
func TestArrayInstallRejectsUnalignedTag(t *testing.T) {
	a := newArray(4*4*memdata.LineSize, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("install of an unaligned tag did not panic")
		}
	}()
	a.install(0, 1)
}

// TestWayFootprint pins what a way costs before it is filled: a 16-byte
// key and LRU entry and a 16-byte state record, with its 64 line bytes
// carved only at its first fill, so a fresh array has carved none. A field
// added to either record, or bytes allocated up front, shows up here.
func TestWayFootprint(t *testing.T) {
	if k, l := unsafe.Sizeof(wayKey{}), unsafe.Sizeof(cacheLine{}); k != 16 || l != 16 {
		t.Fatalf("a way's metadata is %d+%d bytes, want 16+16", k, l)
	}
	a := newArray(DefaultConfig(8).L2Size, DefaultConfig(8).L2Ways)
	if len(a.chunks) != 0 || a.carved != 0 {
		t.Fatalf("a fresh array has carved %d chunks and %d lines, want none", len(a.chunks), a.carved)
	}
}
