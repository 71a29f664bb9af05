package memdata

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestLineHelpers(t *testing.T) {
	cases := []struct {
		a       Addr
		aligned Addr
		off     uint64
		up      Addr
	}{
		{0, 0, 0, 0},
		{1, 0, 1, 64},
		{63, 0, 63, 64},
		{64, 64, 0, 64},
		{100, 64, 36, 128},
		{4096, 4096, 0, 4096},
	}
	for _, c := range cases {
		if got := LineAlign(c.a); got != c.aligned {
			t.Errorf("LineAlign(%d) = %d, want %d", c.a, got, c.aligned)
		}
		if got := LineOffset(c.a); got != c.off {
			t.Errorf("LineOffset(%d) = %d, want %d", c.a, got, c.off)
		}
		if got := LineUp(c.a); got != c.up {
			t.Errorf("LineUp(%d) = %d, want %d", c.a, got, c.up)
		}
	}
}

func TestAlignRem(t *testing.T) {
	cases := []struct {
		a     Addr
		align uint64
		want  uint64
	}{
		{0, 64, 0},
		{1, 64, 63},
		{64, 64, 0},
		{100, 64, 28},
		{4095, 4096, 1},
		{4097, 4096, 4095},
	}
	for _, c := range cases {
		if got := AlignRem(c.a, c.align); got != c.want {
			t.Errorf("AlignRem(%d,%d) = %d, want %d", c.a, c.align, got, c.want)
		}
	}
}

func TestRangeBasics(t *testing.T) {
	r := Range{Start: 100, Size: 50} // [100,150)
	if r.End() != 150 {
		t.Fatalf("End = %d", r.End())
	}
	if !r.Contains(100) || !r.Contains(149) || r.Contains(150) || r.Contains(99) {
		t.Fatal("Contains wrong at boundaries")
	}
	if !r.Overlaps(Range{Start: 149, Size: 1}) || r.Overlaps(Range{Start: 150, Size: 10}) {
		t.Fatal("Overlaps wrong at boundaries")
	}
	if (Range{}).Overlaps(r) {
		t.Fatal("empty range overlaps")
	}
	got := r.Intersect(Range{Start: 120, Size: 100})
	if got.Start != 120 || got.Size != 30 {
		t.Fatalf("Intersect = %+v", got)
	}
}

func TestRangeSubtract(t *testing.T) {
	r := Range{Start: 100, Size: 100} // [100,200)
	cases := []struct {
		o    Range
		want []Range
	}{
		{Range{Start: 0, Size: 50}, []Range{r}},                      // disjoint
		{Range{Start: 100, Size: 100}, nil},                          // exact
		{Range{Start: 50, Size: 300}, nil},                           // superset
		{Range{Start: 100, Size: 30}, []Range{{130, 70}}},            // prefix
		{Range{Start: 170, Size: 30}, []Range{{100, 70}}},            // suffix
		{Range{Start: 140, Size: 20}, []Range{{100, 40}, {160, 40}}}, // middle
		{Range{Start: 90, Size: 20}, []Range{{110, 90}}},             // overlap left
		{Range{Start: 190, Size: 20}, []Range{{100, 90}}},            // overlap right
	}
	for _, c := range cases {
		got := r.Subtract(c.o)
		if len(got) != len(c.want) {
			t.Fatalf("Subtract(%+v) = %+v, want %+v", c.o, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("Subtract(%+v) = %+v, want %+v", c.o, got, c.want)
			}
		}
	}
}

// Property: Subtract + Intersect partition the range exactly.
func TestRangeSubtractPartitionQuick(t *testing.T) {
	f := func(s1, n1, s2, n2 uint16) bool {
		r := Range{Start: Addr(s1), Size: uint64(n1)}
		o := Range{Start: Addr(s2), Size: uint64(n2)}
		covered := uint64(0)
		for _, p := range r.Subtract(o) {
			if p.Empty() || !r.ContainsRange(p) || p.Overlaps(o) {
				return false
			}
			covered += p.Size
		}
		return covered+r.Intersect(o).Size == r.Size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestRangeLines(t *testing.T) {
	r := Range{Start: 100, Size: 100} // touches lines 64,128,192
	lines := r.Lines()
	want := []Addr{64, 128, 192}
	if len(lines) != len(want) {
		t.Fatalf("Lines = %v", lines)
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Fatalf("Lines = %v, want %v", lines, want)
		}
	}
	if r.NumLines() != 3 {
		t.Fatalf("NumLines = %d", r.NumLines())
	}
	if (Range{}).NumLines() != 0 || len((Range{}).Lines()) != 0 {
		t.Fatal("empty range has lines")
	}
	one := Range{Start: 64, Size: 64}
	if one.NumLines() != 1 {
		t.Fatalf("aligned single line NumLines = %d", one.NumLines())
	}
}

func TestPhysicalReadWrite(t *testing.T) {
	p := NewPhysical(1 << 16)
	data := []byte("hello, lazy memcpy")
	p.Write(1000, data)
	if got := p.Read(1000, uint64(len(data))); !bytes.Equal(got, data) {
		t.Fatalf("Read = %q", got)
	}
	// Read must return a copy, not an alias.
	got := p.Read(1000, 5)
	got[0] = 'X'
	if p.Read(1000, 1)[0] != 'h' {
		t.Fatal("Read aliased backing store")
	}
}

func TestPhysicalLines(t *testing.T) {
	p := NewPhysical(1 << 12)
	line := make([]byte, LineSize)
	for i := range line {
		line[i] = byte(i)
	}
	p.WriteLine(128, line)
	if got := p.ReadLine(128); !bytes.Equal(got, line) {
		t.Fatal("ReadLine mismatch")
	}
}

func TestPhysicalZeroAndCopy(t *testing.T) {
	p := NewPhysical(1 << 12)
	p.Write(0, []byte{1, 2, 3, 4})
	p.Copy(100, 0, 4)
	if !bytes.Equal(p.Read(100, 4), []byte{1, 2, 3, 4}) {
		t.Fatal("Copy mismatch")
	}
	p.Zero(100, 2)
	if !bytes.Equal(p.Read(100, 4), []byte{0, 0, 3, 4}) {
		t.Fatal("Zero mismatch")
	}
}

// Every bad access must panic with memdata's own message, not a runtime
// slice error, including the cases where a+n wraps past 2^64.
func TestPhysicalBoundsPanics(t *testing.T) {
	p := NewPhysical(64)
	for name, fn := range map[string]func(){
		"read past end":     func() { p.Read(60, 8) },
		"write past end":    func() { p.Write(64, []byte{1}) },
		"unaligned line":    func() { p.ReadLine(3) },
		"short line write":  func() { p.WriteLine(0, []byte{1, 2}) },
		"read wraps":        func() { p.Read(^Addr(0)-7, 16) },
		"read into wraps":   func() { p.ReadInto(^Addr(0)-7, make([]byte, 16)) },
		"write wraps":       func() { p.Write(^Addr(0), []byte{1, 2}) },
		"zero wraps":        func() { p.Zero(8, ^uint64(0)) },
		"copy src wraps":    func() { p.Copy(0, ^Addr(0)-3, 8) },
		"copy dst wraps":    func() { p.Copy(^Addr(0)-3, 0, 8) },
		"longer than store": func() { p.Read(0, 65) },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "memdata: ") {
					t.Errorf("%s: panic %q, want a memdata panic", name, msg)
				}
			}()
			fn()
		}()
	}
}
