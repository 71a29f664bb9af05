package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mcsquare/internal/memdata"
)

const line = memdata.LineSize

func rng(start, size uint64) memdata.Range {
	return memdata.Range{Start: memdata.Addr(start), Size: size}
}

func mustInsert(t *testing.T, c *CTT, dst memdata.Range, src memdata.Addr) {
	t.Helper()
	if !c.Insert(dst, src) {
		t.Fatalf("Insert(%+v <- %#x) hit capacity", dst, src)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertBasic(t *testing.T) {
	c := NewCTT(16)
	mustInsert(t, c, rng(0x1000, 2*line), 0x8000)
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
	e := c.LookupDest(0x1000 + 70)
	if e == nil || e.Src != 0x8000 {
		t.Fatalf("LookupDest = %+v", e)
	}
	if e.SrcFor(0x1040) != 0x8040 {
		t.Fatalf("SrcFor = %#x", e.SrcFor(0x1040))
	}
	if c.LookupDest(0x1000+2*line) != nil {
		t.Fatal("LookupDest past end matched")
	}
}

func TestInsertTrimsOverlappingDest(t *testing.T) {
	c := NewCTT(16)
	mustInsert(t, c, rng(0x1000, 4*line), 0x8000)
	// New copy overwrites the middle two lines of the old destination.
	mustInsert(t, c, rng(0x1040, 2*line), 0x20000)
	// Old entry must be split into the first and last line.
	if e := c.LookupDest(0x1000); e == nil || e.Src != 0x8000 || e.Dst.Size != line {
		t.Fatalf("head fragment: %+v", e)
	}
	if e := c.LookupDest(0x10C0); e == nil || e.Src != 0x80C0 || e.Dst.Size != line {
		t.Fatalf("tail fragment: %+v", e)
	}
	if e := c.LookupDest(0x1040); e == nil || e.Src != 0x20000 || e.Dst.Size != 2*line {
		t.Fatalf("new entry: %+v", e)
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestInsertExactOverwriteReplaces(t *testing.T) {
	c := NewCTT(16)
	mustInsert(t, c, rng(0x1000, 2*line), 0x8000)
	mustInsert(t, c, rng(0x1000, 2*line), 0x9000)
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
	if e := c.LookupDest(0x1000); e.Src != 0x9000 {
		t.Fatalf("Src = %#x", e.Src)
	}
}

func TestChainCollapse(t *testing.T) {
	c := NewCTT(16)
	// copy 1: A(0x8000) -> B(0x1000); copy 2: B -> C(0x4000).
	mustInsert(t, c, rng(0x1000, 2*line), 0x8000)
	mustInsert(t, c, rng(0x4000, 2*line), 0x1000)
	e := c.LookupDest(0x4000)
	if e == nil || e.Src != 0x8000 {
		t.Fatalf("chain not collapsed: %+v", e)
	}
	if c.Stats.Collapses == 0 {
		t.Fatal("collapse not counted")
	}
}

func TestChainCollapsePartial(t *testing.T) {
	c := NewCTT(16)
	// B[0x1000,0x1080) <- A. Then C <- [0xFC0, 0x10C0): one line before B,
	// two lines inside B's tracked range... only the first line of B is
	// covered by the new source's middle portion.
	mustInsert(t, c, rng(0x1000, 2*line), 0x8000)
	// New copy: dst 0x4000 size 4 lines, src 0xFC0 (covers line before B,
	// B's two lines, then one line after B).
	mustInsert(t, c, rng(0x4000, 4*line), 0xFC0)
	// Expect three pieces: src 0xFC0 (1 line, not redirected),
	// src 0x8000 (2 lines, redirected), src 0x10C0->? (1 line, not redirected).
	if e := c.LookupDest(0x4000); e == nil || e.Src != 0xFC0 || e.Dst.Size != line {
		t.Fatalf("head piece: %+v", e)
	}
	if e := c.LookupDest(0x4040); e == nil || e.Src != 0x8000 || e.Dst.Size != 2*line {
		t.Fatalf("redirected piece: %+v", e)
	}
	if e := c.LookupDest(0x40C0); e == nil || e.Src != 0x1080 || e.Dst.Size != line {
		t.Fatalf("tail piece: %+v", e)
	}
}

func TestIdentityPieceDropped(t *testing.T) {
	c := NewCTT(16)
	// B <- A, then A <- B: the second collapses to A <- A and is dropped.
	mustInsert(t, c, rng(0x1000, line), 0x8000)
	mustInsert(t, c, rng(0x8000, line), 0x1000)
	if c.LookupDest(0x8000) != nil {
		t.Fatal("identity copy was tracked")
	}
	if c.Stats.Identities != 1 {
		t.Fatalf("Identities = %d", c.Stats.Identities)
	}
	// The original entry must survive.
	if c.LookupDest(0x1000) == nil {
		t.Fatal("original entry lost")
	}
}

func TestAdjacentMerge(t *testing.T) {
	c := NewCTT(16)
	// Element-by-element copies of a contiguous array merge into one entry.
	for i := uint64(0); i < 8; i++ {
		mustInsert(t, c, rng(0x1000+i*line, line), memdata.Addr(0x8000+i*line))
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1 merged entry", c.Len())
	}
	e := c.LookupDest(0x1000)
	if e.Dst.Size != 8*line || e.Src != 0x8000 {
		t.Fatalf("merged entry: %+v", e)
	}
	if c.Stats.Merges != 7 {
		t.Fatalf("Merges = %d", c.Stats.Merges)
	}
}

func TestMergeBackward(t *testing.T) {
	c := NewCTT(16)
	mustInsert(t, c, rng(0x1040, line), 0x8040)
	mustInsert(t, c, rng(0x1000, line), 0x8000) // immediately before existing
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
	e := c.LookupDest(0x1000)
	if e.Dst.Size != 2*line || e.Src != 0x8000 {
		t.Fatalf("merged entry: %+v", e)
	}
}

func TestMergeRespectsMaxSize(t *testing.T) {
	c := NewCTT(16)
	mustInsert(t, c, rng(0x400000, MaxEntrySize), 0x4000000)
	// Adjacent in both dst and src, but merging would exceed 2 MB.
	mustInsert(t, c, rng(0x400000+MaxEntrySize, line), 0x4000000+MaxEntrySize)
	if c.Len() != 2 {
		t.Fatalf("Len = %d, merge exceeded 21-bit size", c.Len())
	}
}

func TestNoMergeWhenSourcesDisjoint(t *testing.T) {
	c := NewCTT(16)
	mustInsert(t, c, rng(0x1000, line), 0x8000)
	mustInsert(t, c, rng(0x1040, line), 0x9000) // adjacent dst, distant src
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestRemoveDestRange(t *testing.T) {
	c := NewCTT(16)
	mustInsert(t, c, rng(0x1000, 4*line), 0x8000)
	// Write to the second line: the entry splits around it.
	trimmed := c.RemoveDestRange(rng(0x1040, line))
	if trimmed != line {
		t.Fatalf("trimmed = %d", trimmed)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if c.LookupDest(0x1040) != nil {
		t.Fatal("trimmed line still tracked")
	}
	if e := c.LookupDest(0x1000); e == nil || e.Dst.Size != line {
		t.Fatalf("head: %+v", e)
	}
	if e := c.LookupDest(0x1080); e == nil || e.Src != 0x8080 || e.Dst.Size != 2*line {
		t.Fatalf("tail: %+v", e)
	}
	// Removing a range nothing tracks returns 0.
	if c.RemoveDestRange(rng(0x90000, line)) != 0 {
		t.Fatal("untracked trim returned nonzero")
	}
}

func TestSrcOverlapping(t *testing.T) {
	c := NewCTT(16)
	mustInsert(t, c, rng(0x1000, 2*line), 0x8000)
	mustInsert(t, c, rng(0x4000, 2*line), 0x8040) // shares source line 0x8040
	got := c.SrcOverlapping(rng(0x8040, line))
	if len(got) != 2 {
		t.Fatalf("SrcOverlapping found %d entries, want 2", len(got))
	}
	if got[0].ID >= got[1].ID {
		t.Fatal("SrcOverlapping not in insertion order")
	}
	if !c.HasSrcOverlap(rng(0x8000, 1)) || c.HasSrcOverlap(rng(0x20000, line)) {
		t.Fatal("HasSrcOverlap wrong")
	}
}

func TestCapacityRefusalLeavesTableUnchanged(t *testing.T) {
	c := NewCTT(2)
	mustInsert(t, c, rng(0x1000, line), 0x8000)
	mustInsert(t, c, rng(0x3000, line), 0x9000)
	// This insert would split nothing and add one entry: over capacity.
	if c.Insert(rng(0x5000, line), 0xA000) {
		t.Fatal("Insert succeeded over capacity")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d after refused insert", c.Len())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// An exact overwrite frees as much as it adds and must succeed.
	if !c.Insert(rng(0x1000, line), 0xB000) {
		t.Fatal("replacement insert refused")
	}
}

func TestSmallest(t *testing.T) {
	c := NewCTT(16)
	if c.Smallest() != nil {
		t.Fatal("Smallest of empty table")
	}
	mustInsert(t, c, rng(0x1000, 4*line), 0x8000)
	mustInsert(t, c, rng(0x3000, line), 0x9000)
	mustInsert(t, c, rng(0x5000, 2*line), 0xA000)
	if e := c.Smallest(); e.Dst.Start != 0x3000 {
		t.Fatalf("Smallest = %+v", e)
	}
}

func TestInsertAlignmentPanics(t *testing.T) {
	c := NewCTT(16)
	for name, fn := range map[string]func(){
		"unaligned dst":  func() { c.Insert(rng(0x1001, line), 0x8000) },
		"partial line":   func() { c.Insert(rng(0x1000, 32), 0x8000) },
		"zero size":      func() { c.Insert(rng(0x1000, 0), 0x8000) },
		"over huge page": func() { c.Insert(rng(0x1000, MaxEntrySize+line), 0x8000) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// ---------------------------------------------------------------------------
// Oracle-based randomized test.
//
// The oracle maps every destination byte to the "ultimate" source byte it
// will be lazily filled from (or nothing if untracked). The CTT must agree:
// for every tracked destination byte, following the entry's mapping and the
// oracle's mapping must land at the same address.
// ---------------------------------------------------------------------------

type byteOracle struct {
	m map[memdata.Addr]memdata.Addr // dst byte -> ultimate src byte
}

func newByteOracle() *byteOracle { return &byteOracle{m: make(map[memdata.Addr]memdata.Addr)} }

func (o *byteOracle) insert(dst memdata.Range, src memdata.Addr) {
	// Resolve each new destination byte through the existing mapping
	// (chain collapse), dropping identities.
	resolved := make([]memdata.Addr, dst.Size)
	for i := uint64(0); i < dst.Size; i++ {
		s := src + memdata.Addr(i)
		if ult, ok := o.m[s]; ok {
			s = ult
		}
		resolved[i] = s
	}
	for i := uint64(0); i < dst.Size; i++ {
		d := dst.Start + memdata.Addr(i)
		if resolved[i] == d {
			delete(o.m, d)
		} else {
			o.m[d] = resolved[i]
		}
	}
}

func (o *byteOracle) removeDest(r memdata.Range) {
	for i := uint64(0); i < r.Size; i++ {
		delete(o.m, r.Start+memdata.Addr(i))
	}
}

func TestCTTMatchesOracleRandomized(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	c := NewCTT(1 << 16) // effectively unbounded for this test
	o := newByteOracle()

	const region = 1 << 16 // keep addresses colliding often
	randLineAddr := func() memdata.Addr {
		return memdata.Addr(r.Intn(region/line)) * line
	}

	for step := 0; step < 3000; step++ {
		switch r.Intn(3) {
		case 0, 1: // insert
			size := uint64(1+r.Intn(8)) * line
			dst := memdata.Range{Start: randLineAddr(), Size: size}
			src := memdata.Addr(r.Intn(region)) // arbitrary byte alignment
			c.Insert(dst, src)
			o.insert(dst, src)
		case 2: // remove a dest range (a write or MCFREE)
			size := uint64(1+r.Intn(4)) * line
			rr := memdata.Range{Start: randLineAddr(), Size: size}
			c.RemoveDestRange(rr)
			o.removeDest(rr)
		}
		if step%100 == 0 {
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Full cross-check over the region.
	for a := memdata.Addr(0); a < region; a++ {
		e := c.LookupDest(a)
		want, tracked := o.m[a]
		if e == nil {
			if tracked {
				t.Fatalf("byte %#x: oracle tracked -> %#x, CTT untracked", a, want)
			}
			continue
		}
		got := e.SrcFor(a)
		if !tracked {
			t.Fatalf("byte %#x: CTT tracked -> %#x, oracle untracked", a, got)
		}
		if got != want {
			t.Fatalf("byte %#x: CTT -> %#x, oracle -> %#x", a, got, want)
		}
	}
}

// ---------------------------------------------------------------------------
// Reference model for the CTT's indexes.
//
// Every indexed query has a one-line linear-scan definition over Entries().
// The random walk below inserts, trims and splits entries that straddle
// 2 MB segment boundaries, fill whole 2 MB pages, or are a line long, and
// after every step compares each query against its definition.
// ---------------------------------------------------------------------------

// linearDestCover is DestCover by definition over ents (the table's
// Entries()): every overlapping entry, in destination order.
func linearDestCover(ents []*Entry, r memdata.Range) []*Entry {
	var out []*Entry
	for _, e := range ents {
		if e.Dst.Overlaps(r) {
			out = append(out, e)
		}
	}
	slices.SortFunc(out, func(a, b *Entry) int { return cmp.Compare(a.Dst.Start, b.Dst.Start) })
	return out
}

func linearLookupDest(ents []*Entry, a memdata.Addr) *Entry {
	for _, e := range ents {
		if e.Dst.Contains(a) {
			return e
		}
	}
	return nil
}

// linearSrcOverlapping is SrcOverlapping by definition, in ID order.
func linearSrcOverlapping(ents []*Entry, r memdata.Range) []*Entry {
	var out []*Entry
	for _, e := range ents {
		if e.SrcRange().Overlaps(r) {
			out = append(out, e)
		}
	}
	return out
}

// linearSmallest is the smallest (size, ID) entry whose ID is not claimed.
func linearSmallest(ents []*Entry, claimed map[uint64]bool) *Entry {
	var best *Entry
	for _, e := range ents {
		if claimed[e.ID] {
			continue
		}
		if best == nil || e.Dst.Size < best.Dst.Size || e.Dst.Size == best.Dst.Size && e.ID < best.ID {
			best = e
		}
	}
	return best
}

func TestCTTIndexMatchesLinearScan(t *testing.T) {
	const seg = 1 << segShift
	for _, capacity := range []int{1, 8, 8192} {
		t.Run(fmt.Sprintf("capacity%d", capacity), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(capacity)))
			c := NewCTT(capacity)
			// Addresses cluster within 512 lines of the boundaries of four
			// 2 MB segments, so entries straddle them and collide often.
			nearBoundary := func() memdata.Addr {
				b := memdata.Addr(1+r.Intn(4)) * seg
				return b + memdata.Addr(r.Intn(1024)-512)*line
			}
			size := func() uint64 {
				switch r.Intn(32) {
				case 0:
					return MaxEntrySize
				case 1:
					return uint64(1+r.Intn(MaxEntrySize/line)) * line
				default:
					return uint64(1+r.Intn(4)) * line
				}
			}
			// Sources sit in their own four segments, at byte alignment.
			srcNear := func() memdata.Addr { return nearBoundary() + 8*seg + memdata.Addr(r.Intn(line)) }
			queries := func(ents []*Entry) []memdata.Range {
				qs := []memdata.Range{
					{Start: nearBoundary(), Size: line},
					{Start: nearBoundary() + memdata.Addr(r.Intn(line)), Size: uint64(1 + r.Intn(3*line))},
					{Start: nearBoundary(), Size: size()},
					{Start: nearBoundary(), Size: MaxEntrySize},
					{Start: srcNear(), Size: uint64(1 + r.Intn(4*line))},
					{Start: srcNear(), Size: size()},
					{Start: nearBoundary(), Size: 0},
				}
				// The edges of a few live entries, from both sides.
				for i := 0; i < 4 && len(ents) > 0; i++ {
					e := ents[r.Intn(len(ents))]
					qs = append(qs,
						memdata.Range{Start: e.Dst.Start - 1, Size: 1},
						memdata.Range{Start: e.Dst.End() - 1, Size: 2},
						memdata.Range{Start: e.Dst.End(), Size: line},
						memdata.Range{Start: e.Src, Size: 1})
				}
				return qs
			}
			var straddled, fullPage bool
			check := func(step int, op string) {
				t.Helper()
				if err := c.CheckInvariants(); err != nil {
					t.Fatalf("step %d (%s): %v", step, op, err)
				}
				ents := c.Entries()
				for _, e := range ents {
					lo, hi := segsOf(e.Dst)
					straddled = straddled || lo != hi
					fullPage = fullPage || e.Dst.Size == MaxEntrySize
				}
				if c.Len() != len(ents) || !slices.IsSortedFunc(ents, byID) {
					t.Fatalf("step %d (%s): Len %d, Entries %d, not in ID order", step, op, c.Len(), len(ents))
				}
				for _, q := range queries(ents) {
					if got, want := c.DestCover(q), linearDestCover(ents, q); !slices.Equal(got, want) {
						t.Fatalf("step %d (%s): DestCover(%+v) = %v, want %v", step, op, q, got, want)
					}
					if got, want := c.SrcOverlapping(q), linearSrcOverlapping(ents, q); !slices.Equal(got, want) {
						t.Fatalf("step %d (%s): SrcOverlapping(%+v) = %v, want %v", step, op, q, got, want)
					}
					if got, want := c.HasSrcOverlap(q), len(linearSrcOverlapping(ents, q)) > 0; got != want {
						t.Fatalf("step %d (%s): HasSrcOverlap(%+v) = %v, want %v", step, op, q, got, want)
					}
					for _, a := range []memdata.Addr{q.Start, q.End(), q.Start - 1} {
						if got, want := c.LookupDest(a), linearLookupDest(ents, a); got != want {
							t.Fatalf("step %d (%s): LookupDest(%#x) = %v, want %v", step, op, a, got, want)
						}
					}
				}
				if got, want := c.Smallest(), linearSmallest(ents, nil); got != want {
					t.Fatalf("step %d (%s): Smallest = %v, want %v", step, op, got, want)
				}
				// Claim about a third of the live entries plus IDs that are
				// gone, as the engine's free workers do.
				claimed := map[uint64]bool{c.nextID + 1: true}
				for _, e := range ents {
					if r.Intn(3) == 0 {
						claimed[e.ID] = true
					}
				}
				eng := &Engine{ctt: c, freeing: claimed}
				if got, want := eng.pickFreeEntry(), linearSmallest(ents, claimed); got != want {
					t.Fatalf("step %d (%s): pickFreeEntry = %v, want %v", step, op, got, want)
				}
			}

			for step := 0; step < 1500; step++ {
				switch k := r.Intn(10); {
				case k < 6:
					dst := memdata.Range{Start: nearBoundary(), Size: size()}
					src := srcNear()
					switch ents := c.Entries(); {
					case r.Intn(4) == 0:
						// A source among the destinations: chain collapse.
						src = nearBoundary() + memdata.Addr(r.Intn(line))
					case r.Intn(3) == 0 && len(ents) > 0:
						// Continue a live entry in both spaces: a merge.
						e := ents[r.Intn(len(ents))]
						dst.Start, src = memdata.LineUp(e.Dst.End()), e.Src+memdata.Addr(memdata.LineUp(e.Dst.End())-e.Dst.Start)
					}
					if !dst.Overlaps(memdata.Range{Start: src, Size: dst.Size}) {
						c.Insert(dst, src)
					}
					check(step, "insert")
				case c.Len() == capacity:
					// RemoveDestRange does not enforce capacity (a CPU write
					// cannot stall on a full table) and one range splits at
					// most one entry, so trims and splits need a free slot;
					// a full table drops a whole entry instead.
					ents := c.Entries()
					c.RemoveDestRange(ents[r.Intn(len(ents))].Dst)
					check(step, "remove")
				case k < 8:
					// Split a live entry by trimming a line from its middle.
					ents := c.Entries()
					if len(ents) == 0 {
						continue
					}
					e := ents[r.Intn(len(ents))]
					mid := memdata.LineAlign(e.Dst.Start + memdata.Addr(r.Int63n(int64(e.Dst.Size))))
					c.RemoveDestRange(memdata.Range{Start: mid, Size: line})
					check(step, "split")
				default:
					c.RemoveDestRange(memdata.Range{Start: nearBoundary(), Size: size()})
					check(step, "trim")
				}
			}
			if !straddled || !fullPage {
				t.Errorf("walk missed a case: entry straddling 2 MB %v, full 2 MB entry %v", straddled, fullPage)
			}
			if capacity > 1 && (c.Stats.HighWater < capacity && c.Stats.HighWater < 200 || c.Stats.Merges == 0 || c.Stats.Collapses == 0) {
				t.Errorf("walk too tame: high water %d, merges %d, collapses %d", c.Stats.HighWater, c.Stats.Merges, c.Stats.Collapses)
			}
		})
	}
}

// TestCheckInvariantsCatchesCorruptIndex: each index corruption the
// linear-time checker is meant to see makes it fail.
func TestCheckInvariantsCatchesCorruptIndex(t *testing.T) {
	build := func() *CTT {
		c := NewCTT(16)
		mustInsert(t, c, rng(0x1000, 2*line), 0x8000)
		mustInsert(t, c, rng(0x4000, line), 0x1FFFE0) // source straddles 2 MB
		mustInsert(t, c, rng(0x6000, line), 0xA000)
		return c
	}
	for name, corrupt := range map[string]func(c *CTT){
		"out of order": func(c *CTT) { c.dst[0], c.dst[1] = c.dst[1], c.dst[0] },
		"overlapping":  func(c *CTT) { c.dst[0].Dst.Size = 0x4000 },
		"lost source":  func(c *CTT) { c.srcSeg[1] = c.srcSeg[1][:0] },
		"stale source": func(c *CTT) { c.srcSeg[7] = []*Entry{c.dst[2]} },
		"twice":        func(c *CTT) { c.srcSeg[0] = append(c.srcSeg[0], c.dst[0]) },
		"moved source": func(c *CTT) { c.srcSeg[7], c.srcSeg[1] = c.srcSeg[1], nil },
	} {
		c := build()
		corrupt(c)
		if err := c.CheckInvariants(); err == nil {
			t.Errorf("%s: CheckInvariants passed a corrupt index", name)
		}
	}
}

// TestCTTAllowsCopyOntoLiveSource pins the overlap DESIGN.md §5 describes:
// chain collapsing redirects a copy whose source is a live destination, but
// a later copy may land on a live entry's source, and the table keeps both.
func TestCTTAllowsCopyOntoLiveSource(t *testing.T) {
	c := NewCTT(16)
	mustInsert(t, c, rng(0x1000, 2*line), 0x8000) // B <- A
	mustInsert(t, c, rng(0x8000, 2*line), 0xC000) // A <- C
	b, a := c.LookupDest(0x1000), c.LookupDest(0x8000)
	if b == nil || b.Src != 0x8000 || a == nil || a.Src != 0xC000 {
		t.Fatalf("entries: B %+v, A %+v", b, a)
	}
	if got := c.SrcOverlapping(a.Dst); len(got) != 1 || got[0] != b {
		t.Fatalf("SrcOverlapping(A) = %v, want B's entry", got)
	}
}

// allocTestCTT builds a full Table I CTT of disjoint 4 KiB copies that
// cannot merge, laid out like mcperf's core/ctt-destcover probe.
func allocTestCTT(tb testing.TB) *CTT {
	const entries = 2048
	c := NewCTT(entries)
	for i := 0; i < entries; i++ {
		dst := memdata.Range{Start: memdata.Addr(i) * 8 << 10, Size: 4 << 10}
		c.Insert(dst, memdata.Addr(1<<30)+memdata.Addr(i)*16<<10)
	}
	if c.Len() != entries {
		tb.Fatalf("CTT holds %d entries, want %d", c.Len(), entries)
	}
	return c
}

// TestCTTLookupAllocations pins the allocation cost of the queries the
// controller makes on every access: the destination lookups allocate only
// DestCover's result, and the free-entry and BPQ-conflict checks nothing.
func TestCTTLookupAllocations(t *testing.T) {
	c := allocTestCTT(t)
	hitLine := memdata.Range{Start: 1000*8<<10 + 5*line, Size: line}
	missLine := memdata.Range{Start: 1000*8<<10 + 4<<10, Size: line}
	eng := &Engine{
		ctt:     c,
		freeing: map[uint64]bool{1: true, 2: true},
		held:    make(map[memdata.Addr]*heldWrite),
	}
	copyRange := memdata.Range{Start: 64 << 20, Size: MaxEntrySize}
	var sink *Entry
	cases := []struct {
		name string
		max  float64
		fn   func()
	}{
		{"LookupDest hit", 0, func() { sink = c.LookupDest(hitLine.Start) }},
		{"LookupDest miss", 0, func() { sink = c.LookupDest(missLine.Start) }},
		{"DestCover miss", 0, func() {
			if len(c.DestCover(missLine)) != 0 {
				t.Fatal("DestCover missed nothing")
			}
		}},
		{"DestCover hit", 1, func() {
			if len(c.DestCover(hitLine)) != 1 {
				t.Fatal("DestCover hit nothing")
			}
		}},
		{"pickFreeEntry", 0, func() { sink = eng.pickFreeEntry() }},
		{"conflictsWithHeld empty BPQ", 0, func() {
			if eng.conflictsWithHeld(copyRange) {
				t.Fatal("conflict with an empty BPQ")
			}
		}},
	}
	for _, tc := range cases {
		if got := testing.AllocsPerRun(100, tc.fn); got > tc.max {
			t.Errorf("%s: %v allocs/op, want at most %v", tc.name, got, tc.max)
		}
	}
	// A full BPQ on every controller: the check walks the held lines.
	for i := 0; i < 8*4; i++ {
		eng.held[memdata.Addr(96<<20)+memdata.Addr(i)*line] = &heldWrite{}
	}
	if got := testing.AllocsPerRun(100, func() {
		if eng.conflictsWithHeld(copyRange) {
			t.Fatal("conflict with lines outside the range")
		}
	}); got != 0 {
		t.Errorf("conflictsWithHeld non-empty BPQ: %v allocs/op, want 0", got)
	}
	_ = sink
	if e := c.Smallest(); e == nil || e.ID != 1 {
		t.Fatalf("Smallest = %+v, want entry 1", e)
	}
	if e := eng.pickFreeEntry(); e == nil || e.ID != 3 {
		t.Fatalf("pickFreeEntry = %+v, want entry 3", e)
	}
}

// TestConflictsWithHeld checks the held-line scan against the line walk it
// replaces: a held line conflicts exactly when it is one of r's lines.
func TestConflictsWithHeld(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	eng := &Engine{held: make(map[memdata.Addr]*heldWrite)}
	for trial := 0; trial < 2000; trial++ {
		clear(eng.held)
		for i := r.Intn(5); i > 0; i-- {
			eng.held[memdata.Addr(r.Intn(64))*line] = &heldWrite{}
		}
		q := memdata.Range{Start: memdata.Addr(r.Intn(64 * line)), Size: uint64(r.Intn(8 * line))}
		want := false
		for _, l := range q.Lines() {
			if _, ok := eng.held[l]; ok {
				want = true
			}
		}
		if got := eng.conflictsWithHeld(q); got != want {
			t.Fatalf("conflictsWithHeld(%+v) with held %v = %v, want %v", q, eng.held, got, want)
		}
	}
}

// BenchmarkCTTDestCover mirrors mcperf's core/ctt-destcover probe: one-line
// queries spread over a full 2,048-entry table.
func BenchmarkCTTDestCover(b *testing.B) {
	c := allocTestCTT(b)
	const entries = 2048
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := memdata.Addr(i*7919%entries)*8<<10 + memdata.Addr(i%64)*memdata.LineSize
		c.DestCover(memdata.Range{Start: a, Size: memdata.LineSize})
	}
}

func BenchmarkCTTInsertLookup(b *testing.B) {
	c := NewCTT(2048)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst := rng(uint64(i%1000)*4096, 16*line)
		c.Insert(dst, memdata.Addr(0x10000000+uint64(i%997)*4096))
		c.LookupDest(dst.Start + 64)
		if c.Len() > 1500 {
			c.RemoveDestRange(dst)
		}
	}
}

// Property: PreviewSources predicts exactly the source ranges the insert
// creates (same table state, no mutation by the preview).
func TestPreviewSourcesMatchesInsertQuick(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		c := NewCTT(1 << 12)
		// Seed with a few random entries.
		for i := 0; i < 5; i++ {
			size := uint64(1+r.Intn(6)) * line
			dst := memdata.Addr(r.Intn(1<<14)) &^ (line - 1)
			src := memdata.Addr(r.Intn(1 << 14))
			c.Insert(memdata.Range{Start: dst, Size: size}, src)
		}
		size := uint64(1+r.Intn(6)) * line
		dst := memdata.Range{Start: memdata.Addr(r.Intn(1<<14)) &^ (line - 1), Size: size}
		src := memdata.Addr(r.Intn(1 << 14))

		preview := c.PreviewSources(dst, src)
		before := c.Len()
		if !c.Insert(dst, src) {
			t.Fatal("insert refused with huge capacity")
		}
		_ = before
		// Every byte of the inserted destination must map to the source
		// byte the preview predicted.
		pi := 0
		off := uint64(0)
		for _, e := range c.DestCover(dst) {
			part := e.Dst.Intersect(dst)
			for b := uint64(0); b < part.Size; b++ {
				want := e.SrcFor(part.Start + memdata.Addr(b))
				// Advance through preview ranges to find the matching byte.
				for pi < len(preview) && off >= preview[pi].Size {
					pi++
					off = 0
				}
				if pi >= len(preview) {
					break // identity-dropped bytes have no preview range
				}
				got := preview[pi].Start + memdata.Addr(off)
				if got != want {
					t.Fatalf("trial %d: preview %#x != actual %#x", trial, got, want)
				}
				off++
			}
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}
