package stats

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
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
	for i := 1; i <= 100; i++ {
		h.Add(float64(i))
	}
	cdf := h.CDF([]float64{0, 50, 100, 200})
	want := []float64{0, 0.5, 1, 1}
	for i := range want {
		if math.Abs(cdf[i]-want[i]) > 1e-9 {
			t.Fatalf("CDF = %v, want %v", cdf, want)
		}
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
