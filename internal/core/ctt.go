// Package core implements the paper's primary contribution: the (MC)²
// memory-controller extensions for lazy memory copies. It provides
//
//   - the Copy Tracking Table (CTT): prospective-copy entries with the
//     paper's destination-overlap trimming, copy-chain collapsing, and
//     contiguous-copy merging (§III-A1);
//   - the Bounce Pending Queue (BPQ): held writes to tracked source
//     buffers while lazy copies execute (§III-A2);
//   - the lazy-copy Engine that installs itself as a memctrl.Hook and
//     implements the six-state consistency protocol of Fig 9.
//
// The paper keeps one CTT per memory controller and broadcasts updates so
// the tables stay identical; we model that as a single shared CTT, which is
// semantically equivalent to perfectly-snooped consistent tables. BPQs
// remain per controller.
package core

import (
	"cmp"
	"fmt"
	"slices"

	"mcsquare/internal/memdata"
)

// MaxEntrySize is the largest copy a single CTT entry can track: the
// paper's 21-bit size field, i.e. one 2 MB huge page.
const MaxEntrySize = 2 << 20

// segShift buckets source addresses into 2 MB segments for indexed
// lookups. Since no entry exceeds MaxEntrySize, an entry's source range
// spans at most two segments, and a query range of up to MaxEntrySize spans
// at most two as well.
const segShift = 21

// Entry is one prospective copy: the destination byte range Dst will,
// when accessed, be lazily filled from the source starting at Src.
//
// The hardware entry is 16 bytes (52-bit source and destination physical
// addresses, 21-bit size, active bit); we carry the same information in
// native types. Destination ranges of live entries are pairwise disjoint
// at byte granularity.
type Entry struct {
	ID  uint64
	Dst memdata.Range
	Src memdata.Addr
}

// SrcRange returns the source byte range of the entry.
func (e *Entry) SrcRange() memdata.Range {
	return memdata.Range{Start: e.Src, Size: e.Dst.Size}
}

// SrcFor maps a destination address inside the entry to its source address.
func (e *Entry) SrcFor(a memdata.Addr) memdata.Addr {
	return e.Src + (a - e.Dst.Start)
}

// CTTStats counts CTT activity.
type CTTStats struct {
	Inserts    uint64 // MCLAZY operations accepted
	Pieces     uint64 // entries created (after splits/merges)
	Merges     uint64 // pieces absorbed into an adjacent entry
	Collapses  uint64 // pieces redirected through an existing entry (chain collapse)
	Identities uint64 // pieces dropped because source == destination after collapse
	Trims      uint64 // destination-range removals (writes, bounces, MCFREE)
	Removed    uint64 // entries fully removed
	HighWater  int    // max simultaneous entries

	// Byte ledger: every destination byte that enters tracking is counted
	// in DeferredBytes (post-collapse, post-identity-drop), and every byte
	// that leaves is counted in UntrackedBytes; ReplacedBytes is the
	// portion of UntrackedBytes trimmed by a newer overlapping Insert.
	// The books are kept by independent code paths (Insert's piece loop vs
	// RemoveDestRange's geometric trimming vs the per-entry size deltas
	// behind TrackedBytes), so
	//
	//	DeferredBytes - UntrackedBytes == TrackedBytes()
	//
	// is a real conservation law, checked by CheckInvariants.
	DeferredBytes  uint64 // destination bytes newly tracked by Insert
	UntrackedBytes uint64 // destination bytes untracked via RemoveDestRange
	ReplacedBytes  uint64 // untracked bytes displaced by a newer Insert
}

// CTT is the Copy Tracking Table. It is a pure data structure: all timing
// (lookup latency, stalls) is charged by the Engine. Not safe for
// concurrent use; the simulator is single-threaded.
type CTT struct {
	capacity int
	// noMerge disables adjacency merging (ablation): element-by-element
	// copies then occupy one entry each instead of coalescing.
	noMerge bool
	nextID  uint64
	// dst holds every live entry, sorted by destination start. Live
	// destination ranges are pairwise disjoint, so the order is total, the
	// ends are sorted too, and the entries overlapping any range form one
	// contiguous run found by binary search. It is the table's only list of
	// live entries.
	dst []*Entry
	// srcSeg buckets entries by the 2 MB segments their source range
	// touches. Source ranges may overlap (one source, many destinations), so
	// they have no order a single sorted slice could keep.
	srcSeg map[uint64][]*Entry
	// trackedBytes is the summed destination size of live entries,
	// maintained incrementally by register/remove/mutate and cross-checked
	// against the index by CheckInvariants.
	trackedBytes uint64
	// Scratch for one call: RemoveDestRange's snapshot of the run it trims
	// and collapse's pieces. Their capacity is reused across calls.
	cover  []*Entry
	pieces []piece

	Stats CTTStats
}

// NewCTT creates a table with the given entry capacity (the paper uses
// 2,048 entries = 32 KB of SRAM).
func NewCTT(capacity int) *CTT { return newCTT(capacity, false) }

func newCTT(capacity int, noMerge bool) *CTT {
	if capacity <= 0 {
		panic("core: CTT capacity must be positive")
	}
	return &CTT{
		capacity: capacity,
		noMerge:  noMerge,
		srcSeg:   make(map[uint64][]*Entry),
	}
}

// Len returns the number of live entries.
func (t *CTT) Len() int { return len(t.dst) }

func segsOf(r memdata.Range) (lo, hi uint64) {
	if r.Empty() {
		return 1, 0 // empty iteration
	}
	return uint64(r.Start) >> segShift, uint64(r.End()-1) >> segShift
}

// dstSearch returns the index of the first entry whose destination ends
// after a, or Len() if there is none.
func (t *CTT) dstSearch(a memdata.Addr) int {
	lo, hi := 0, len(t.dst)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if t.dst[m].Dst.End() <= a {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// destRun returns the half-open index interval [i, j) of the entries whose
// destination overlaps r. The run aliases the index: callers must not
// mutate the table while they walk it.
func (t *CTT) destRun(r memdata.Range) (i, j int) {
	if r.Empty() {
		return 0, 0
	}
	i = t.dstSearch(r.Start)
	j = i
	for j < len(t.dst) && t.dst[j].Dst.Start < r.End() {
		j++
	}
	return i, j
}

func (t *CTT) register(e *Entry) {
	t.indexAdd(e)
	t.trackedBytes += e.Dst.Size
	if len(t.dst) > t.Stats.HighWater {
		t.Stats.HighWater = len(t.dst)
	}
}

func (t *CTT) indexAdd(e *Entry) {
	// e is disjoint from every live destination, so the first entry ending
	// after its start begins after its end: that is e's slot.
	t.dst = slices.Insert(t.dst, t.dstSearch(e.Dst.Start), e)
	t.srcAdd(e)
}

func (t *CTT) indexRemove(e *Entry) {
	i := t.dstSearch(e.Dst.Start)
	if i == len(t.dst) || t.dst[i] != e {
		panic(fmt.Sprintf("core: CTT index lost entry %d", e.ID))
	}
	t.dst = slices.Delete(t.dst, i, i+1)
	t.srcRemove(e)
}

func (t *CTT) srcAdd(e *Entry) {
	lo, hi := segsOf(e.SrcRange())
	for s := lo; s <= hi; s++ {
		t.srcSeg[s] = append(t.srcSeg[s], e)
	}
}

func (t *CTT) srcRemove(e *Entry) {
	lo, hi := segsOf(e.SrcRange())
	for s := lo; s <= hi; s++ {
		list := t.srcSeg[s]
		for i, x := range list {
			if x == e {
				t.srcSeg[s] = append(list[:i], list[i+1:]...)
				break
			}
		}
		if len(t.srcSeg[s]) == 0 {
			delete(t.srcSeg, s)
		}
	}
}

func (t *CTT) remove(e *Entry) {
	t.indexRemove(e)
	t.trackedBytes -= e.Dst.Size
	t.Stats.Removed++
}

// mutate applies a destination-range change to an entry: its source index
// entries are refreshed and its new geometry installed. Every mutation
// either shrinks the destination (a trim) or grows it into a free range
// adjacent to it (a merge), so the entry keeps its slot in the sorted
// destination index. Its source buckets change only when its source range
// moves to other 2 MB segments.
func (t *CTT) mutate(e *Entry, dst memdata.Range, src memdata.Addr) {
	oldLo, oldHi := segsOf(e.SrcRange())
	newLo, newHi := segsOf(memdata.Range{Start: src, Size: dst.Size})
	moved := oldLo != newLo || oldHi != newHi
	if moved {
		t.srcRemove(e)
	}
	t.trackedBytes += dst.Size - e.Dst.Size // unsigned wrap cancels out
	e.Dst = dst
	e.Src = src
	if moved {
		t.srcAdd(e)
	}
}

// DestCover returns the live entries whose destination range overlaps r,
// sorted by destination start. Destination ranges are disjoint, so the
// result segments r without overlap. The slice is the caller's own (nil on
// a miss), so the caller may mutate the table while walking it.
func (t *CTT) DestCover(r memdata.Range) []*Entry {
	i, j := t.destRun(r)
	if i == j {
		return nil
	}
	return append([]*Entry(nil), t.dst[i:j]...)
}

// HasDestOverlap reports whether any live entry's destination overlaps r.
// Unlike DestCover it allocates nothing on a hit.
func (t *CTT) HasDestOverlap(r memdata.Range) bool {
	i, j := t.destRun(r)
	return i < j
}

// LookupDest returns the entry whose destination contains a, or nil.
func (t *CTT) LookupDest(a memdata.Addr) *Entry {
	if i := t.dstSearch(a); i < len(t.dst) && t.dst[i].Dst.Start <= a {
		return t.dst[i]
	}
	return nil
}

// SrcOverlapping returns the live entries whose source range overlaps r,
// in insertion order. Source ranges may overlap each other (one source,
// many destinations).
func (t *CTT) SrcOverlapping(r memdata.Range) []*Entry {
	return t.appendSrcOverlapping(nil, r)
}

// appendSrcOverlapping appends SrcOverlapping(r) to out, which must be
// empty, so a caller can reuse its capacity.
func (t *CTT) appendSrcOverlapping(out []*Entry, r memdata.Range) []*Entry {
	lo, hi := segsOf(r)
	for s := lo; s <= hi; s++ {
		for _, e := range t.srcSeg[s] {
			// An entry whose source spans two segments sits in both
			// buckets: report it from the first bucket it shares with r.
			if elo, _ := segsOf(e.SrcRange()); max(elo, lo) == s && e.SrcRange().Overlaps(r) {
				out = append(out, e)
			}
		}
	}
	slices.SortFunc(out, byID)
	return out
}

func byID(a, b *Entry) int { return cmp.Compare(a.ID, b.ID) }

// HasSrcOverlap reports whether any live entry's source overlaps r.
func (t *CTT) HasSrcOverlap(r memdata.Range) bool {
	lo, hi := segsOf(r)
	for s := lo; s <= hi; s++ {
		for _, e := range t.srcSeg[s] {
			if e.SrcRange().Overlaps(r) {
				return true
			}
		}
	}
	return false
}

// RemoveDestRange stops tracking every destination byte in r: overlapping
// entries are removed, resized, or split (a write to the middle of an
// entry's destination leaves two entries). Returns the number of
// destination bytes that were tracked.
func (t *CTT) RemoveDestRange(r memdata.Range) uint64 {
	var trimmed uint64
	// Trimming edits the index, so walk a snapshot of the run.
	i, j := t.destRun(r)
	t.cover = append(t.cover[:0], t.dst[i:j]...)
	for _, e := range t.cover {
		trimmed += e.Dst.Intersect(r).Size
		t.trimEntry(e, r)
	}
	clear(t.cover)
	if trimmed > 0 {
		t.Stats.Trims++
		t.Stats.UntrackedBytes += trimmed
	}
	return trimmed
}

// TrackedBytes returns the summed destination size of live entries.
func (t *CTT) TrackedBytes() uint64 { return t.trackedBytes }

// trimEntry removes the part of e's destination overlapped by r.
func (t *CTT) trimEntry(e *Entry, r memdata.Range) {
	lo, hi := e.Dst.Minus(r)
	switch {
	case lo.Empty() && hi.Empty():
		t.remove(e)
	case hi.Empty():
		t.mutate(e, lo, e.SrcFor(lo.Start))
	case lo.Empty():
		t.mutate(e, hi, e.SrcFor(hi.Start))
	default:
		src0 := e.SrcFor(lo.Start)
		src1 := e.SrcFor(hi.Start)
		t.mutate(e, lo, src0)
		t.nextID++
		t.register(&Entry{ID: t.nextID, Dst: hi, Src: src1})
	}
}

// piece is a fragment of a new prospective copy after chain collapsing.
type piece struct {
	dst memdata.Range
	src memdata.Addr
}

// collapse splits the copy (dst ← src) wherever its source range overlaps
// an existing entry's destination: those fragments are redirected to the
// older entry's source, so a copy of a lazy copy never chains (§III-A1:
// "A→B then B→C yields C←A"). Fragments whose source equals their
// destination after redirection are dropped — memory already holds the
// right bytes. The result is the table's scratch, valid until the next
// collapse.
func (t *CTT) collapse(dst memdata.Range, src memdata.Addr, record bool) []piece {
	srcR := memdata.Range{Start: src, Size: dst.Size}
	i, j := t.destRun(srcR)
	out := t.pieces[:0]
	cur := src
	end := srcR.End()
	emit := func(from, to memdata.Addr, redirect *Entry) {
		if to <= from {
			return
		}
		p := piece{
			dst: memdata.Range{Start: dst.Start + (from - src), Size: uint64(to - from)},
			src: from,
		}
		if redirect != nil {
			p.src = redirect.SrcFor(from)
			if record {
				t.Stats.Collapses++
			}
		}
		if p.src == p.dst.Start {
			if record {
				t.Stats.Identities++
			}
			return
		}
		out = append(out, p)
	}
	for _, e := range t.dst[i:j] {
		o := e.Dst.Intersect(srcR)
		emit(cur, o.Start, nil)
		emit(o.Start, o.End(), e)
		cur = o.End()
	}
	emit(cur, end, nil)
	t.pieces = out
	return out
}

// tryMerge attempts to absorb p into an entry adjacent in both destination
// and source space (the paper merges element-by-element copies of an
// array into one entry). Reports whether p was absorbed.
func (t *CTT) tryMerge(p piece) bool {
	if t.noMerge {
		return false
	}
	// Existing entry immediately before the piece.
	if p.dst.Start > 0 {
		if e := t.LookupDest(p.dst.Start - 1); e != nil &&
			e.Dst.End() == p.dst.Start &&
			e.SrcRange().End() == p.src &&
			e.Dst.Size+p.dst.Size <= MaxEntrySize {
			t.mutate(e, memdata.Range{Start: e.Dst.Start, Size: e.Dst.Size + p.dst.Size}, e.Src)
			t.Stats.Merges++
			return true
		}
	}
	// Existing entry immediately after the piece.
	if e := t.LookupDest(p.dst.End()); e != nil &&
		e.Dst.Start == p.dst.End() &&
		e.Src == p.src+memdata.Addr(p.dst.Size) &&
		e.Dst.Size+p.dst.Size <= MaxEntrySize {
		t.mutate(e, memdata.Range{Start: p.dst.Start, Size: e.Dst.Size + p.dst.Size}, p.src)
		t.Stats.Merges++
		return true
	}
	return false
}

// Insert records the prospective copy (dst ← src). It applies, in order:
// destination-overlap trimming of existing entries, chain collapsing of the
// new copy, and adjacency merging. It returns false — leaving the table
// unchanged — if the result would exceed capacity; the caller (the Engine)
// then stalls the MCLAZY until asynchronous freeing makes room.
//
// dst must be cacheline-aligned with a positive cacheline-multiple size of
// at most MaxEntrySize (the MCLAZY alignment rules, §III-C).
func (t *CTT) Insert(dst memdata.Range, src memdata.Addr) bool {
	if !memdata.IsLineAligned(dst.Start) || dst.Size == 0 || dst.Size%memdata.LineSize != 0 {
		panic(fmt.Sprintf("core: Insert with unaligned destination %+v", dst))
	}
	if dst.Size > MaxEntrySize {
		panic(fmt.Sprintf("core: Insert larger than a huge page: %d", dst.Size))
	}

	// Capacity dry run: count how trimming and splitting change the table.
	delta := 0
	i, j := t.destRun(dst)
	for _, e := range t.dst[i:j] {
		switch lo, hi := e.Dst.Minus(dst); {
		case lo.Empty() && hi.Empty():
			delta--
		case !lo.Empty() && !hi.Empty():
			delta++
		}
	}
	pieces := t.collapse(dst, src, true)
	needed := 0
	for range pieces {
		needed++ // merges can only reduce this; a safe upper bound
	}
	if t.Len()+delta+needed > t.capacity {
		return false
	}

	t.Stats.ReplacedBytes += t.RemoveDestRange(dst)
	for _, p := range pieces {
		t.Stats.DeferredBytes += p.dst.Size
		if t.tryMerge(p) {
			continue
		}
		t.nextID++
		t.register(&Entry{ID: t.nextID, Dst: p.dst, Src: p.src})
		t.Stats.Pieces++
	}
	t.Stats.Inserts++
	return true
}

// PreviewSources returns the post-collapse source ranges the copy
// (dst ← src) would track if inserted now, without mutating the table or
// its statistics. The Engine uses it to stall MCLAZY operations whose
// effective sources land on BPQ-held lines.
func (t *CTT) PreviewSources(dst memdata.Range, src memdata.Addr) []memdata.Range {
	pieces := t.collapse(dst, src, false)
	out := make([]memdata.Range, 0, len(pieces))
	for _, p := range pieces {
		out = append(out, memdata.Range{Start: p.src, Size: p.dst.Size})
	}
	return out
}

// Entries returns the live entries in insertion order. IDs are assigned
// in increasing order as entries are created, so that is ID order.
func (t *CTT) Entries() []*Entry {
	out := slices.Clone(t.dst)
	slices.SortFunc(out, byID)
	return out
}

// Smallest returns the live entry with the smallest destination size
// (lowest ID breaks ties), or nil when the table is empty. The asynchronous
// freeing policy evicts smallest-first (§III-A1).
func (t *CTT) Smallest() *Entry { return t.smallestUnclaimed(nil) }

// smallestUnclaimed is Smallest over the entries whose ID is not in
// claimed. It scans the index in place and allocates nothing.
func (t *CTT) smallestUnclaimed(claimed map[uint64]bool) *Entry {
	var best *Entry
	for _, e := range t.dst {
		if best != nil && (e.Dst.Size > best.Dst.Size || e.Dst.Size == best.Dst.Size && e.ID > best.ID) {
			continue
		}
		if !claimed[e.ID] {
			best = e
		}
	}
	return best
}

// CheckInvariants verifies structural invariants; tests call it after every
// mutation. It returns an error describing the first violation found. It
// runs in time linear in the table size.
func (t *CTT) CheckInvariants() error {
	if t.Len() > t.capacity {
		return fmt.Errorf("ctt: %d entries exceed capacity %d", t.Len(), t.capacity)
	}
	type srcSlot struct {
		e   *Entry
		seg uint64
	}
	slots := make(map[srcSlot]bool)
	for seg, list := range t.srcSeg {
		for _, e := range list {
			if slots[srcSlot{e, seg}] {
				return fmt.Errorf("ctt: src index holds entry %d twice in segment %d", e.ID, seg)
			}
			slots[srcSlot{e, seg}] = true
		}
	}
	var liveBytes uint64
	need := 0
	for i, e := range t.dst {
		if e.Dst.Empty() {
			return fmt.Errorf("ctt: entry %d has empty destination", e.ID)
		}
		if e.Dst.Size > MaxEntrySize {
			return fmt.Errorf("ctt: entry %d size %d exceeds 2 MB", e.ID, e.Dst.Size)
		}
		if e.ID == 0 || e.ID > t.nextID {
			return fmt.Errorf("ctt: entry %d has an ID never issued (next %d)", e.ID, t.nextID)
		}
		// Sorted and disjoint: each destination starts at or after the end
		// of the one before it, so the order is strict.
		if i > 0 && t.dst[i-1].Dst.End() > e.Dst.Start {
			return fmt.Errorf("ctt: destination index out of order or overlapping at entries %d and %d", t.dst[i-1].ID, e.ID)
		}
		liveBytes += e.Dst.Size
		lo, hi := segsOf(e.SrcRange())
		for seg := lo; seg <= hi; seg++ {
			if !slots[srcSlot{e, seg}] {
				return fmt.Errorf("ctt: src index lost entry %d", e.ID)
			}
			need++
		}
	}
	if len(slots) != need {
		return fmt.Errorf("ctt: src index holds %d slots, the %d live entries need %d", len(slots), t.Len(), need)
	}
	if liveBytes != t.trackedBytes {
		return fmt.Errorf("ctt: tracked-byte counter %d != live entry bytes %d", t.trackedBytes, liveBytes)
	}
	if t.Stats.DeferredBytes-t.Stats.UntrackedBytes != t.trackedBytes {
		return fmt.Errorf("ctt: byte conservation violated: deferred %d - untracked %d != tracked %d",
			t.Stats.DeferredBytes, t.Stats.UntrackedBytes, t.trackedBytes)
	}
	return nil
}
