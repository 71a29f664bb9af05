// Package stats provides the small measurement toolkit used by the
// benchmark harness: latency histograms with percentiles, throughput
// helpers, and tab-separated table emission matching the paper artifact's
// figureX.txt outputs.
package stats

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
)

// Histogram accumulates individual samples (e.g. per-operation latencies in
// cycles). The zero value is ready to use.
//
// The sample slice is kept in insertion order forever, so Samples() is the
// same whatever order statistics were read in between; Min and Max scan
// it. Percentile works on one scratch copy, built on the first read after
// an Add, and partitions it only as far as the ranks read so far need: it
// selects rank k inside the bracket between the nearest already-selected
// ("pinned") ranks on either side, then pins k. Reading p50, p99 and p99.9
// from n samples moves about 3n values in all, where a full sort makes
// n log n comparisons. CDF sorts the scratch copy fully, after which a
// Percentile is an index. Values are ordered as sort.Float64s orders them,
// NaN first.
type Histogram struct {
	samples []float64 // insertion order, never reordered
	sum     float64   // running sum of samples, added in insertion order from 0
	scratch []float64 // partitioned copy of samples; stale once shorter
	nans    int       // scratch[:nans] holds the NaNs
	// pins are ascending ranks r whose scratch[r] is final: nothing
	// before it is larger and nothing after it smaller.
	pins   []int
	sorted bool // scratch is fully sorted
}

// Add records one sample.
func (h *Histogram) Add(v float64) {
	h.samples = append(h.samples, v)
	h.sum += v
}

// Grow reserves room for n more samples, so that many Adds do not
// reallocate.
func (h *Histogram) Grow(n int) {
	if cap(h.samples)-len(h.samples) < n {
		s := make([]float64, len(h.samples), len(h.samples)+n)
		copy(s, h.samples)
		h.samples = s
	}
}

// N returns the number of samples.
func (h *Histogram) N() int { return len(h.samples) }

// Sum returns the sum of all samples (0 with no samples), added in
// insertion order.
func (h *Histogram) Sum() float64 { return h.sum }

// Mean returns the arithmetic mean (0 with no samples).
func (h *Histogram) Mean() float64 {
	if len(h.samples) == 0 {
		return 0
	}
	return h.sum / float64(len(h.samples))
}

// Min returns the smallest sample (0 with no samples), NaN if any sample
// is NaN.
func (h *Histogram) Min() float64 {
	if len(h.samples) == 0 {
		return 0
	}
	return slices.Min(h.samples)
}

// Max returns the largest sample (0 with no samples), NaN only if every
// sample is NaN.
func (h *Histogram) Max() float64 {
	if len(h.samples) == 0 {
		return 0
	}
	m := h.samples[0]
	for _, v := range h.samples[1:] {
		if cmp.Less(m, v) {
			m = v
		}
	}
	return m
}

// Percentile returns the p-th percentile (p in [0,100]) by nearest-rank.
func (h *Histogram) Percentile(p float64) float64 {
	n := len(h.samples)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return h.at(0)
	}
	if p >= 100 {
		return h.at(n - 1)
	}
	rank := int(math.Ceil(p/100*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	return h.at(rank)
}

// Samples returns a copy of the raw samples in insertion order, regardless
// of any order statistics computed in between.
func (h *Histogram) Samples() []float64 {
	out := make([]float64, len(h.samples))
	copy(out, h.samples)
	return out
}

// at returns the sample of sorted rank k, selecting it within its bracket
// unless it is already in place.
func (h *Histogram) at(k int) float64 {
	s := h.view()
	if h.sorted || k < h.nans {
		return s[k]
	}
	i, pinned := slices.BinarySearch(h.pins, k)
	if !pinned {
		lo, hi := h.nans, len(s)
		if i > 0 {
			lo = h.pins[i-1] + 1
		}
		if i < len(h.pins) {
			hi = h.pins[i]
		}
		selectRank(s[lo:hi], k-lo)
		if h.pins == nil {
			h.pins = make([]int, 0, 4) // a fleet run reads up to four ranks
		}
		h.pins = slices.Insert(h.pins, i, k)
	}
	return s[k]
}

// view returns the scratch copy, rebuilding it, in the buffer it already
// has when that is large enough, if samples were added since it was built.
// The NaNs go to the front, where they sort, so selection compares numbers
// only.
func (h *Histogram) view() []float64 {
	n := len(h.samples)
	if len(h.scratch) == n {
		return h.scratch
	}
	s := h.scratch[:0]
	if cap(s) < n {
		s = nil // append sizes a new buffer to n and does not zero it first
	}
	s = append(s, h.samples...)
	h.nans = 0
	for i, v := range s {
		if v != v {
			s[i], s[h.nans] = s[h.nans], v
			h.nans++
		}
	}
	h.scratch, h.pins, h.sorted = s, h.pins[:0], false
	return s
}

// sortFallbacks counts the selections that ran out of rounds and sorted
// what was left.
var sortFallbacks atomic.Int64

// selectRank reorders a, which holds no NaN, so that a[k] is the value of
// sorted rank k, with nothing larger before it and nothing smaller after.
// It is introselect: each round splits the bracket holding k around a
// median-of-three pivot and keeps k's side. If 2·log2(len(a)) rounds leave
// more than a few values, it sorts them, so the worst case stays
// O(n log n).
func selectRank(a []float64, k int) {
	lo, hi := 0, len(a)
	for rounds := 2 * bits.Len(uint(len(a))); hi-lo > 16; rounds-- {
		if rounds == 0 {
			sortFallbacks.Add(1)
			break
		}
		p := pivot(a[lo:hi])
		if j := lo + partitionBelow(a[lo:hi], p); k < j {
			hi = j
		} else if j > lo {
			lo = j
		} else if e := lo + partitionAtMost(a[lo:hi], p); k < e {
			return // p is the bracket's smallest value and a[lo:e] its copies
		} else {
			lo = e
		}
	}
	slices.Sort(a[lo:hi])
}

// pivot returns the median of a's first, middle and last values or, when
// a is long, Tukey's ninther: the median of three such medians taken near
// its start, middle and end. The ninther keeps inputs that defeat a plain
// median of three, such as an organ pipe, from running out of rounds.
func pivot(a []float64) float64 {
	n, m, d := len(a), len(a)/2, len(a)/8
	if n > 128 {
		return median(median(a[0], a[d], a[2*d]), median(a[m-d], a[m], a[m+d]),
			median(a[n-1-2*d], a[n-1-d], a[n-1]))
	}
	return median(a[0], a[m], a[n-1])
}

func median(x, y, z float64) float64 { return max(min(x, y), min(max(x, y), z)) }

// partitionBelow moves the values of a below p to its front and returns
// their count. It does not branch on the comparison, which data in random
// order would mispredict half the time: every value is swapped into place
// and the count grows by the comparison's 0 or 1.
func partitionBelow(a []float64, p float64) int {
	j := 0
	for i, x := range a {
		a[i] = a[j]
		a[j] = x
		j += b2i(x < p)
	}
	return j
}

// partitionAtMost is partitionBelow for the values not above p.
func partitionAtMost(a []float64, p float64) int {
	j := 0
	for i, x := range a {
		a[i] = a[j]
		a[j] = x
		j += b2i(x <= p)
	}
	return j
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// CDF returns, for each of the given thresholds, the fraction of samples
// less than or equal to it (the paper's Fig 4 shape).
func (h *Histogram) CDF(thresholds []float64) []float64 {
	s := h.view()
	if !h.sorted {
		slices.Sort(s[h.nans:])
		h.sorted = true
	}
	out := make([]float64, len(thresholds))
	for i, t := range thresholds {
		idx := sort.SearchFloat64s(s, math.Nextafter(t, math.Inf(1)))
		if len(s) > 0 {
			out[i] = float64(idx) / float64(len(s))
		}
	}
	return out
}

// Table accumulates rows and writes them tab-separated, one figure per
// file, like the paper artifact's results/figureX.txt. Raw values are kept
// alongside their formatted rendering so that merge steps (the parallel
// experiment runner assembles sweep figures from independently computed
// cells) can post-process exact numbers instead of re-parsing strings.
type Table struct {
	Title   string
	Columns []string
	rows    [][]interface{}
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends one row; values are formatted with %v (floats compactly).
func (t *Table) AddRow(values ...interface{}) {
	t.rows = append(t.rows, append([]interface{}(nil), values...))
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// Rows returns the formatted rows.
func (t *Table) Rows() [][]string {
	out := make([][]string, len(t.rows))
	for i, row := range t.rows {
		out[i] = formatRow(row)
	}
	return out
}

// Value returns the raw value at (row, col) as it was passed to AddRow.
func (t *Table) Value(row, col int) interface{} { return t.rows[row][col] }

// Float returns the raw value at (row, col) as a float64. It reports false
// for non-numeric cells.
func (t *Table) Float(row, col int) (float64, bool) {
	switch x := t.rows[row][col].(type) {
	case float64:
		return x, true
	case float32:
		return float64(x), true
	case int:
		return float64(x), true
	case int64:
		return float64(x), true
	case uint64:
		return float64(x), true
	case uint:
		return float64(x), true
	}
	return 0, false
}

// RowWidthError reports a row that does not match the destination table's
// column count during a merge. It carries enough structure for callers (the
// figure merges assembling sweep cells) to say exactly which part broke.
type RowWidthError struct {
	Table string // destination table title
	Part  string // source table title
	Row   int    // row index within the source part
	Want  int    // destination column count
	Have  int    // offending row's cell count
}

func (e *RowWidthError) Error() string {
	return fmt.Sprintf("stats: appending %d-cell row (row %d of %q) to %d-column table %q",
		e.Have, e.Row, e.Part, e.Want, e.Table)
}

// AppendRows appends every row of the given tables, in order, preserving
// raw values. Every row must match the destination's column count exactly;
// a mismatch — wider or narrower — returns a *RowWidthError and appends
// nothing. (Narrower rows used to be accepted silently, leaving truncated
// lines in merged figures; now the producer's bug surfaces at merge time.)
func (t *Table) AppendRows(parts ...*Table) error {
	for _, p := range parts {
		for i, row := range p.rows {
			if len(row) != len(t.Columns) {
				return &RowWidthError{Table: t.Title, Part: p.Title, Row: i,
					Want: len(t.Columns), Have: len(row)}
			}
		}
	}
	for _, p := range parts {
		t.rows = append(t.rows, p.rows...)
	}
	return nil
}

// Concat builds a table with the given title and columns holding the rows
// of each part in submission order. It is the canonical merge for sweep
// figures whose rows are computed as independent jobs. Parts are authored
// in code, so a width mismatch panics with the *RowWidthError detail.
func Concat(title string, columns []string, parts ...*Table) *Table {
	t := NewTable(title, columns...)
	if err := t.AppendRows(parts...); err != nil {
		panic(err.Error())
	}
	return t
}

// WriteTo writes the table: a comment line with the title, the header, and
// tab-separated rows. It implements io.WriterTo.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", t.Title)
	b.WriteString(strings.Join(t.Columns, "\t"))
	b.WriteByte('\n')
	for _, row := range t.rows {
		b.WriteString(strings.Join(formatRow(row), "\t"))
		b.WriteByte('\n')
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

func formatRow(row []interface{}) []string {
	out := make([]string, len(row))
	for i, v := range row {
		switch x := v.(type) {
		case float64:
			out[i] = formatFloat(x)
		case float32:
			out[i] = formatFloat(float64(x))
		default:
			out[i] = fmt.Sprintf("%v", v)
		}
	}
	return out
}

// String renders the table as its file content.
func (t *Table) String() string {
	var b strings.Builder
	if _, err := t.WriteTo(&b); err != nil {
		return err.Error()
	}
	return b.String()
}

func formatFloat(f float64) string {
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return fmt.Sprintf("%.0f", f)
	}
	return fmt.Sprintf("%.4g", f)
}

// Clock converts simulated cycles to wall time for a CPU frequency in GHz.
// Construct it from the machine spec's ClockGHz (cliutil.SpecClock); the
// package-level CyclesToNs/CyclesToMs helpers are the DefaultClock
// shorthand and are only correct for specs that keep the Table I clock.
type Clock float64

// DefaultClock is the paper's Table I frequency.
const DefaultClock Clock = 4

// orDefault guards hand-built zero values; specs validate ClockGHz > 0.
func (c Clock) orDefault() float64 {
	if c <= 0 {
		return float64(DefaultClock)
	}
	return float64(c)
}

// CyclesToNs converts cycles at this clock to nanoseconds.
func (c Clock) CyclesToNs(cycles uint64) float64 { return float64(cycles) / c.orDefault() }

// CyclesToMs converts cycles at this clock to milliseconds.
func (c Clock) CyclesToMs(cycles uint64) float64 { return float64(cycles) / (c.orDefault() * 1e6) }

// CyclesPerSecond returns the clock rate in cycles per second.
func (c Clock) CyclesPerSecond() float64 { return c.orDefault() * 1e9 }

// CyclesToNs converts cycles at the default 4 GHz clock to nanoseconds.
func CyclesToNs(cycles uint64) float64 { return DefaultClock.CyclesToNs(cycles) }

// CyclesToMs converts cycles at the default 4 GHz clock to milliseconds.
func CyclesToMs(cycles uint64) float64 { return DefaultClock.CyclesToMs(cycles) }

// Speedup formats new vs old as a multiplicative factor (old/new).
func Speedup(oldV, newV float64) float64 {
	if newV == 0 {
		return math.Inf(1)
	}
	return oldV / newV
}
