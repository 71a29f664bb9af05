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
// must agree after every operation.
func TestArrayMatchesReference(t *testing.T) {
	const sets, ways = 8, 4
	a := newArray(sets*ways*memdata.LineSize, ways)
	ref := &refArray{n: sets, sets: map[int]map[memdata.Addr]uint64{}}
	rng := rand.New(rand.NewSource(1))
	touch := func(i int, line memdata.Addr) {
		a.touch(&a.lines[i])
		ref.tick++
		ref.set(line)[line] = ref.tick
	}
	inSet := func(i int, line memdata.Addr) bool {
		base := ref.setOf(line) * ways
		return i >= base && i < base+ways
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
			a.install(v, line)
			touch(v, line)
		case 2: // invalidate
			if held {
				a.invalidate(i)
				delete(set, line)
			}
		case 3: // lookup only
		}
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

// TestCacheLineFootprint pins cacheLine at 80 bytes: tag and validity live
// in the array's keys, and a field added back shows up here as a
// footprint change.
func TestCacheLineFootprint(t *testing.T) {
	if got := unsafe.Sizeof(cacheLine{}); got != 80 {
		t.Fatalf("cacheLine is %d bytes, want 80", got)
	}
}
