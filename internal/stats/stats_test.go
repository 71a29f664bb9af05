package stats

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 || h.Percentile(50) != 0 {
		t.Fatal("empty histogram not zero-valued")
	}
	for _, v := range []float64{5, 1, 3, 2, 4} {
		h.Add(v)
	}
	if h.N() != 5 || h.Mean() != 3 || h.Min() != 1 || h.Max() != 5 {
		t.Fatalf("basics wrong: n=%d mean=%v min=%v max=%v", h.N(), h.Mean(), h.Min(), h.Max())
	}
	if p := h.Percentile(50); p != 3 {
		t.Fatalf("p50 = %v", p)
	}
	if p := h.Percentile(100); p != 5 {
		t.Fatalf("p100 = %v", p)
	}
	if p := h.Percentile(0); p != 1 {
		t.Fatalf("p0 = %v", p)
	}
}

// TestHistogramGrow: Grow keeps the samples and their order, and the n
// Adds after it land in the same backing array.
func TestHistogramGrow(t *testing.T) {
	var h Histogram
	h.Add(3)
	h.Add(1)
	h.Grow(100)
	base := &h.samples[0]
	for i := 0; i < 100; i++ {
		h.Add(float64(i))
	}
	if &h.samples[0] != base {
		t.Fatal("Adds after Grow(100) reallocated the samples")
	}
	if got := h.Samples()[:3]; !reflect.DeepEqual(got, []float64{3, 1, 0}) {
		t.Fatalf("samples after Grow start %v, want [3 1 0]", got)
	}
	h.Grow(0) // enough room already: nothing moves
	if &h.samples[0] != base || h.N() != 102 {
		t.Fatal("Grow(0) moved or changed the samples")
	}
}

func TestPercentileMonotoneQuick(t *testing.T) {
	f := func(vals []float64, a, b uint8) bool {
		var h Histogram
		for _, v := range vals {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				h.Add(v)
			}
		}
		p1, p2 := float64(a%101), float64(b%101)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		return h.Percentile(p1) <= h.Percentile(p2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCDF(t *testing.T) {
	var h Histogram
	for _, i := range rand.New(rand.NewSource(1)).Perm(100) {
		h.Add(float64(i + 1))
	}
	h.Percentile(50) // a partly partitioned scratch copy must not confuse CDF
	cdf := h.CDF([]float64{0, 50, 100, 200})
	want := []float64{0, 0.5, 1, 1}
	for i := range want {
		if math.Abs(cdf[i]-want[i]) > 1e-9 {
			t.Fatalf("CDF = %v, want %v", cdf, want)
		}
	}
	if p := h.Percentile(99); p != 99 {
		t.Fatalf("p99 after CDF = %v, want 99", p)
	}
}

func TestHistogramAgainstSort(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	var h Histogram
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = rnd.Float64() * 1000
		h.Add(vals[i])
	}
	sort.Float64s(vals)
	for _, p := range []float64{1, 25, 50, 75, 99} {
		want := vals[int(math.Ceil(p/100*1000))-1]
		if got := h.Percentile(p); got != want {
			t.Fatalf("p%v = %v, want %v", p, got, want)
		}
	}
}

func TestTableOutput(t *testing.T) {
	tb := NewTable("Figure 10: Copy latency", "size", "memcpy_ns", "mc2_ns")
	tb.AddRow(64, 15.25, 30.0)
	tb.AddRow("1KB", 250.123456, 100)
	out := tb.String()
	if !strings.HasPrefix(out, "# Figure 10: Copy latency\n") {
		t.Fatalf("missing title: %q", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines", len(lines))
	}
	if lines[1] != "size\tmemcpy_ns\tmc2_ns" {
		t.Fatalf("header = %q", lines[1])
	}
	if lines[2] != "64\t15.25\t30" {
		t.Fatalf("row = %q", lines[2])
	}
	if tb.NumRows() != 2 {
		t.Fatalf("NumRows = %d", tb.NumRows())
	}
}

func TestConversions(t *testing.T) {
	if CyclesToNs(4) != 1 {
		t.Fatal("4 cycles should be 1 ns at 4 GHz")
	}
	if CyclesToMs(4e6) != 1 {
		t.Fatal("4M cycles should be 1 ms")
	}
	if Speedup(200, 100) != 2 {
		t.Fatal("speedup wrong")
	}
	if !math.IsInf(Speedup(1, 0), 1) {
		t.Fatal("zero-division speedup should be +Inf")
	}
}

func TestTableRawValues(t *testing.T) {
	tb := NewTable("raw", "a", "b")
	tb.AddRow(uint64(7), 0.123456789)
	tb.AddRow("label", 3)
	if v := tb.Value(0, 0); v != uint64(7) {
		t.Fatalf("Value(0,0) = %v (%T)", v, v)
	}
	// Float must return the exact stored value, not a re-parse of the
	// "%.4g" rendering (merge-time normalization depends on this).
	if f, ok := tb.Float(0, 1); !ok || f != 0.123456789 {
		t.Fatalf("Float(0,1) = %v, %v", f, ok)
	}
	if f, ok := tb.Float(1, 1); !ok || f != 3 {
		t.Fatalf("Float(1,1) = %v, %v", f, ok)
	}
	if _, ok := tb.Float(1, 0); ok {
		t.Fatal("Float on a string cell should report false")
	}
}

func TestTableAddRowCopies(t *testing.T) {
	vals := []interface{}{1, 2}
	tb := NewTable("copy", "a", "b")
	tb.AddRow(vals...)
	vals[0] = 99
	if v := tb.Value(0, 0); v != 1 {
		t.Fatalf("AddRow aliased caller slice: Value(0,0) = %v", v)
	}
}

func TestConcatAndAppendRows(t *testing.T) {
	mk := func(v int) *Table {
		p := NewTable("part", "x", "y")
		p.AddRow(v, float64(v)/2)
		return p
	}
	merged := Concat("merged", []string{"x", "y"}, mk(1), mk(2), mk(3))
	if merged.NumRows() != 3 {
		t.Fatalf("NumRows = %d", merged.NumRows())
	}
	// Row order follows part order, raw values preserved.
	for i := 0; i < 3; i++ {
		if v := merged.Value(i, 0); v != i+1 {
			t.Fatalf("row %d col 0 = %v", i, v)
		}
		if f, ok := merged.Float(i, 1); !ok || f != float64(i+1)/2 {
			t.Fatalf("row %d col 1 = %v, %v", i, f, ok)
		}
	}
	// A concatenated table renders exactly like a serially built one.
	serial := NewTable("merged", "x", "y")
	serial.AddRow(1, 0.5)
	serial.AddRow(2, 1.0)
	serial.AddRow(3, 1.5)
	if merged.String() != serial.String() {
		t.Fatalf("merged render differs:\n%s---\n%s", merged.String(), serial.String())
	}
}

// TestAppendRowsWidthError pins the structured-error contract: rows wider
// OR narrower than the destination are rejected with a *RowWidthError, and
// nothing is appended (the old code silently accepted narrower rows,
// leaving truncated lines in merged figures).
func TestAppendRowsWidthError(t *testing.T) {
	narrow := NewTable("narrow", "a")
	wide := NewTable("wide", "a", "b")
	wide.AddRow(1, 2)
	err := narrow.AppendRows(wide)
	var rwe *RowWidthError
	if !errors.As(err, &rwe) {
		t.Fatalf("appending a wider row: err = %v, want *RowWidthError", err)
	}
	if rwe.Want != 1 || rwe.Have != 2 || rwe.Part != "wide" || rwe.Row != 0 {
		t.Fatalf("wider-row error detail = %+v", rwe)
	}

	dst := NewTable("dst", "a", "b")
	ok := NewTable("ok", "a", "b")
	ok.AddRow(1, 2)
	short := NewTable("short", "a")
	short.AddRow(9)
	err = dst.AppendRows(ok, short)
	if !errors.As(err, &rwe) {
		t.Fatalf("appending a narrower row: err = %v, want *RowWidthError", err)
	}
	if rwe.Want != 2 || rwe.Have != 1 || rwe.Part != "short" {
		t.Fatalf("narrower-row error detail = %+v", rwe)
	}
	// The failed call is atomic: not even the valid part landed.
	if dst.NumRows() != 0 {
		t.Fatalf("failed AppendRows appended %d row(s)", dst.NumRows())
	}
}

// TestSamplesInsertionOrder is the regression test for the Samples()
// contract: order statistics in between must not reorder what Samples
// returns (the old implementation sorted h.samples in place).
func TestSamplesInsertionOrder(t *testing.T) {
	var h Histogram
	for _, v := range []float64{3, 1, 2} {
		h.Add(v)
	}
	if p := h.Percentile(50); p != 2 {
		t.Fatalf("P50 = %v, want 2", p)
	}
	if got := h.Samples(); !reflect.DeepEqual(got, []float64{3, 1, 2}) {
		t.Fatalf("Samples() after Percentile = %v, want insertion order [3 1 2]", got)
	}
	if m := h.Min(); m != 1 {
		t.Fatalf("Min = %v", m)
	}
	if got := h.Samples(); !reflect.DeepEqual(got, []float64{3, 1, 2}) {
		t.Fatalf("Samples() after Min = %v, want insertion order [3 1 2]", got)
	}
	// Adding after an order statistic invalidates the sorted view.
	h.Add(0)
	if m := h.Min(); m != 0 {
		t.Fatalf("Min after Add = %v, want 0", m)
	}
	if got := h.Samples(); !reflect.DeepEqual(got, []float64{3, 1, 2, 0}) {
		t.Fatalf("Samples() after Add+Min = %v", got)
	}
	if cdf := h.CDF([]float64{1.5}); cdf[0] != 0.5 {
		t.Fatalf("CDF(1.5) = %v, want 0.5", cdf[0])
	}
	if got := h.Samples(); !reflect.DeepEqual(got, []float64{3, 1, 2, 0}) {
		t.Fatalf("Samples() after CDF = %v", got)
	}
}

// TestRunningSumMatchesLoop checks that Sum and Mean, read from the sum
// Add keeps, carry the same bits as adding Samples() in insertion order
// from 0: with NaN, ±Inf and ±0 among the inputs, and over 375,000 random
// samples (one fleet run's worth) at every prefix length.
func TestRunningSumMatchesLoop(t *testing.T) {
	loop := func(h *Histogram) (sum, mean float64) {
		for _, v := range h.Samples() {
			sum += v
		}
		if h.N() > 0 {
			mean = sum / float64(h.N())
		}
		return sum, mean
	}
	check := func(name string, h *Histogram) {
		t.Helper()
		sum, mean := loop(h)
		if math.Float64bits(h.Sum()) != math.Float64bits(sum) {
			t.Fatalf("%s: Sum = %v (%#x), loop gives %v (%#x)", name, h.Sum(), math.Float64bits(h.Sum()), sum, math.Float64bits(sum))
		}
		if math.Float64bits(h.Mean()) != math.Float64bits(mean) {
			t.Fatalf("%s: Mean = %v, loop gives %v", name, h.Mean(), mean)
		}
	}
	negZero := math.Copysign(0, -1)
	special := [][]float64{
		{},
		{negZero},
		{negZero, negZero},
		{0, negZero},
		{negZero, 0},
		{math.Inf(1)},
		{math.Inf(1), math.Inf(-1)},
		{math.Inf(-1), 1, negZero},
		{math.NaN()},
		{1, math.NaN(), 2},
		{math.MaxFloat64, math.MaxFloat64, -math.MaxFloat64},
		{1e16, 1, -1e16, 1},
		{0.1, 0.2, 0.3, negZero, math.Inf(1), math.NaN(), math.Inf(-1)},
	}
	for i, in := range special {
		var h Histogram
		check("empty", &h)
		for j, v := range in {
			h.Add(v)
			check(fmt.Sprintf("special %d prefix %d", i, j+1), &h)
		}
		// Order statistics in between must not disturb the sum.
		h.Percentile(50)
		h.Min()
		check(fmt.Sprintf("special %d after Percentile", i), &h)
	}

	rnd := rand.New(rand.NewSource(7))
	var h Histogram
	var sum float64
	for i := 0; i < 375000; i++ {
		var v float64
		switch rnd.Intn(4) {
		case 0:
			v = math.Floor(rnd.ExpFloat64() * 2e5)
		case 1:
			v = rnd.NormFloat64() * 1e-3
		case 2:
			v = rnd.Float64() * 1e12
		default:
			v = -rnd.Float64()
		}
		h.Add(v)
		sum += v
		if math.Float64bits(h.Sum()) != math.Float64bits(sum) {
			t.Fatalf("random prefix %d: Sum = %v, loop gives %v", i+1, h.Sum(), sum)
		}
		if i%50000 == 0 {
			h.Percentile(99.9)
		}
	}
	check("random", &h)
}

// TestClockConversions pins the clock-aware converter: default 4 GHz is
// byte-compatible with the legacy helpers, and a slow clock scales
// wall-time summaries accordingly (the old hardcoded conversion reported
// 2 GHz machines as twice as fast as they are).
func TestClockConversions(t *testing.T) {
	if DefaultClock.CyclesToNs(4) != CyclesToNs(4) || DefaultClock.CyclesToMs(4e6) != CyclesToMs(4e6) {
		t.Fatal("DefaultClock diverges from the legacy 4 GHz helpers")
	}
	slow := Clock(2)
	if got := slow.CyclesToNs(4); got != 2 {
		t.Fatalf("2 GHz: 4 cycles = %v ns, want 2", got)
	}
	if got := slow.CyclesToMs(8e6); got != 4 {
		t.Fatalf("2 GHz: 8M cycles = %v ms, want 4", got)
	}
	if got := slow.CyclesPerSecond(); got != 2e9 {
		t.Fatalf("2 GHz: CyclesPerSecond = %v", got)
	}
	// Hand-built zero clocks fall back to the Table I default rather than
	// dividing by zero.
	if got := Clock(0).CyclesToNs(4); got != 1 {
		t.Fatalf("zero clock: 4 cycles = %v ns, want 1", got)
	}
}

func TestFormatFloatStability(t *testing.T) {
	// The rendering contract the figure files depend on: integral floats
	// print without a decimal point, others as %.4g.
	cases := []struct {
		v    float64
		want string
	}{
		{30.0, "30"},
		{-2, "-2"},
		{15.25, "15.25"},
		{250.123456, "250.1"},
		{0.0625, "0.0625"},
		{1e16, "1e+16"},
	}
	for _, c := range cases {
		tb := NewTable("f", "v")
		tb.AddRow(c.v)
		if got := tb.Rows()[0][0]; got != c.want {
			t.Errorf("format(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

// sameValue is == that also matches NaN with NaN.
func sameValue(a, b float64) bool { return a == b || (a != a && b != b) }

// TestPercentileSelectionMatchesSort pins selection against the sorted-copy
// reference it replaced, value for value: every n up to 2,000 and a
// fleet-sized 375,000, inputs that are random, sorted, reversed, constant,
// three-valued or laced with NaN, ±Inf and ±0, percentiles read in a
// shuffled order so later reads select inside brackets pinned by earlier
// ones, and an Add between two rounds of reads to show it drops the pins.
func TestPercentileSelectionMatchesSort(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0}
	inputs := []struct {
		name string
		gen  func(i, n int) float64
	}{
		{"uniform", func(int, int) float64 { return rnd.Float64() * 1000 }},
		{"sorted", func(i, _ int) float64 { return float64(i) }},
		{"reversed", func(i, n int) float64 { return float64(n - i) }},
		{"equal", func(int, int) float64 { return 7 }},
		{"three", func(int, int) float64 { return float64(rnd.Intn(3)) }},
		{"special", func(int, int) float64 {
			if rnd.Intn(4) == 0 {
				return specials[rnd.Intn(len(specials))]
			}
			return rnd.NormFloat64()
		}},
	}
	ps := []float64{0, 0.1, 1, 25, 50, 95, 99, 99.9, 100}
	sizes := make([]int, 0, 2001)
	for n := 1; n <= 2000; n++ {
		sizes = append(sizes, n)
	}
	sizes = append(sizes, 375000)

	check := func(name string, h *Histogram, ref []float64) {
		n := len(ref)
		rnd.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
		for _, p := range ps {
			rank := max(int(math.Ceil(p/100*float64(n)))-1, 0)
			if got := h.Percentile(p); !sameValue(got, ref[rank]) {
				t.Fatalf("%s n=%d: p%v = %v, want %v (reads %v)", name, n, p, got, ref[rank], ps)
			}
		}
		if got := h.Min(); !sameValue(got, ref[0]) {
			t.Fatalf("%s n=%d: Min = %v, want %v", name, n, got, ref[0])
		}
		if got := h.Max(); !sameValue(got, ref[n-1]) {
			t.Fatalf("%s n=%d: Max = %v, want %v", name, n, got, ref[n-1])
		}
	}
	for _, in := range inputs {
		for _, n := range sizes {
			var h Histogram
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = in.gen(i, n)
				h.Add(vals[i])
			}
			ref := slices.Clone(vals)
			sort.Float64s(ref)
			check(in.name, &h, ref)
			// cmp.Compare orders NaN first, as sort.Float64s does.
			extra := in.gen(n, n+1)
			vals = append(vals, extra)
			h.Add(extra)
			at, _ := slices.BinarySearchFunc(ref, extra, cmp.Compare[float64])
			check(in.name+"+Add", &h, slices.Insert(ref, at, extra))
			if got := h.Samples(); !slices.EqualFunc(got, vals, sameValue) {
				t.Fatalf("%s n=%d: Samples() lost insertion order", in.name, n)
			}
		}
	}
}

// medianOfThreeKiller returns n values on which each of selectRank's
// 2·log2(n) rounds, selecting a rank past the first few hundred, drops a
// handful of values at most, so it must fall back to sorting. It replays
// those rounds with the real pivot and partition on stand-ins: unset+i is
// sample i while its value is unset, larger than every value set. Each
// round sets the next smallest values on the slots the pivot reads, until
// two of each three are set, which makes the pivot one of the smallest
// values left in the bracket.
func medianOfThreeKiller(n int) []float64 {
	const unset = 1 << 40
	slots := make([]float64, n)
	for i := range slots {
		slots[i] = unset + float64(i)
	}
	vals := make([]float64, n)
	next := 0.0
	set := func(slot int) {
		vals[int(slots[slot]-unset)] = next
		slots[slot] = next
		next++
	}
	lo, hi := 0, n
	for rounds := 2 * bits.Len(uint(n)); rounds > 0; rounds-- {
		// The ninther's slots, as pivot reads them (n stays above 128).
		w, m, d := hi-lo, lo+(hi-lo)/2, (hi-lo)/8
		for _, three := range [][3]int{{lo, lo + d, lo + 2*d}, {m - d, m, m + d}, {lo + w - 1 - 2*d, lo + w - 1 - d, hi - 1}} {
			isSet := 0
			for _, s := range three {
				if slots[s] < unset {
					isSet++
				}
			}
			for _, s := range three {
				if isSet < 2 && slots[s] >= unset {
					set(s)
					isSet++
				}
			}
		}
		lo += partitionBelow(slots[lo:hi], pivot(slots[lo:hi]))
	}
	for s := range slots {
		if slots[s] >= unset {
			set(s)
		}
	}
	return vals
}

// TestPercentileAdversarialBounded feeds selection the inputs that defeat
// a median-of-three pivot: the killer above, which must run out of
// partition rounds and fall back to sorting what is left, and an organ
// pipe, which the ninther pivot must handle without falling back, as it
// must a constant input; the fallback is checked on the first read, the
// one over the whole input. All must return the sorted reference's
// values.
func TestPercentileAdversarialBounded(t *testing.T) {
	const n = 200000
	organ, equal := make([]float64, n), make([]float64, n)
	for i := range organ {
		organ[i], equal[i] = float64(min(i, n-1-i)), 7
	}
	for _, c := range []struct {
		name     string
		vals     []float64
		fallback bool
	}{
		{"killer", medianOfThreeKiller(n), true},
		{"organ-pipe", organ, false},
		{"equal", equal, false},
	} {
		var h Histogram
		for _, v := range c.vals {
			h.Add(v)
		}
		ref := slices.Clone(c.vals)
		sort.Float64s(ref)
		for i, p := range []float64{50, 99, 99.9} {
			before := sortFallbacks.Load()
			rank := int(math.Ceil(p/100*n)) - 1
			if got := h.Percentile(p); got != ref[rank] {
				t.Fatalf("%s: p%v = %v, want %v", c.name, p, got, ref[rank])
			}
			if fell := sortFallbacks.Load() > before; i == 0 && fell != c.fallback {
				t.Fatalf("%s: p%v fell back to sorting: %v, want %v", c.name, p, fell, c.fallback)
			}
		}
	}
}

// TestPercentilePinsBracket: a read selects only inside the bracket the
// ranks read before it left, so values outside it stay where they are.
func TestPercentilePinsBracket(t *testing.T) {
	const n = 10000
	rnd := rand.New(rand.NewSource(1))
	var h Histogram
	for i := 0; i < n; i++ {
		h.Add(rnd.Float64())
	}
	h.Percentile(50)
	below := slices.Clone(h.scratch[:n/2])
	h.Percentile(99)
	if !slices.Equal(h.scratch[:n/2], below) {
		t.Fatal("reading p99 after p50 moved values below the p50 rank")
	}
	above := slices.Clone(h.scratch[n/2:])
	h.Percentile(25)
	if !slices.Equal(h.scratch[n/2:], above) {
		t.Fatal("reading p25 after p50 and p99 moved values above the p50 rank")
	}
}

// TestHistogramAllocations pins what order statistics allocate: nothing
// for Min, Max or a repeated Percentile, and for the first Percentile after
// an Add no more than the one 8-byte-per-sample scratch copy and the pin
// list.
func TestHistogramAllocations(t *testing.T) {
	const n = 100000
	rnd := rand.New(rand.NewSource(1))
	var h Histogram
	h.Grow(n + 100)
	for i := 0; i < n; i++ {
		h.Add(rnd.Float64())
	}
	minMax := func() { h.Min(); h.Max() }
	reads := func() { h.Percentile(50); h.Percentile(99); h.Percentile(99.9) }
	if a := testing.AllocsPerRun(10, minMax); a != 0 {
		t.Fatalf("Min and Max before any Percentile: %v allocs, want 0", a)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	reads()
	runtime.ReadMemStats(&after)
	if allocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc; allocs > 2 || bytes > 8*n+8192 {
		t.Fatalf("first reads: %d allocs, %d bytes; want at most the scratch copy (%d bytes, rounded up to 8 KiB pages) and the pin list", allocs, bytes, 8*n)
	}

	if a := testing.AllocsPerRun(10, reads); a != 0 {
		t.Fatalf("repeated Percentile on an unchanged histogram: %v allocs, want 0", a)
	}
	if a := testing.AllocsPerRun(10, minMax); a != 0 {
		t.Fatalf("Min and Max after Percentile: %v allocs, want 0", a)
	}
	if a := testing.AllocsPerRun(10, func() { h.Add(1); h.Percentile(50) }); a > 2 {
		t.Fatalf("first Percentile after an Add: %v allocs, want at most 2", a)
	}
}

// BenchmarkHistogramPercentiles reads p50, p99 and p99.9 from a fresh
// histogram of 375,000 latencies, the size of one fleet-sweep run.
func BenchmarkHistogramPercentiles(b *testing.B) {
	rnd := rand.New(rand.NewSource(1))
	vals := make([]float64, 375000)
	for i := range vals {
		vals[i] = math.Floor(rnd.ExpFloat64() * 2e5)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := Histogram{samples: vals}
		benchSink = h.Percentile(50) + h.Percentile(99) + h.Percentile(99.9)
	}
}

var benchSink float64
