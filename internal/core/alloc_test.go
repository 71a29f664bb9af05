package core

import (
	"testing"

	"mcsquare/internal/memdata"
)

// TestBounceReadAllocations pins a CTT bounce read at zero allocations
// once warm, with tracing, faults and invariants off: the read, its
// compose request and source snapshots, and the write-back of the
// reconstructed line all come from pools. Each read bounces the next line
// of one lazy copy from an unaligned source, so it composes from two
// source lines, writes the line back and trims the entry's front.
func TestBounceReadAllocations(t *testing.T) {
	r := newRig(t, DefaultParams())
	r.fill(21)
	dst := memdata.Range{Start: 0x40000, Size: 256 * memdata.LineSize}
	const src = memdata.Addr(0x10000 + 8)
	r.run(func() { r.lazyCopy(dst, src) })

	var got []byte
	keep := func(d []byte) { got = append(got[:0], d...) }
	next := dst.Start
	bounce := func() {
		a := next
		next += memdata.LineSize
		r.mc(a).ReadLine(a, 0, keep)
		r.eng.Drain()
	}
	bounce()
	bounces := r.lazy.Stats.Bounces
	if got := testing.AllocsPerRun(100, bounce); got != 0 {
		t.Errorf("bounce read: %v allocs/op, want 0", got)
	}
	if n := r.lazy.Stats.Bounces - bounces; n != 101 {
		t.Fatalf("%d reads bounced, want 101", n)
	}
	if r.lazy.Stats.BounceWritebacks == 0 {
		t.Fatal("no bounce wrote its line back")
	}
	last := next - memdata.LineSize
	if want := r.shadow.ReadLine(last); string(got) != string(want) {
		t.Fatalf("bounce of %#x returned the wrong line", last)
	}
}
