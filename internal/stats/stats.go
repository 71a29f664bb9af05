// Package stats provides the small measurement toolkit used by the
// benchmark harness: latency histograms with percentiles, throughput
// helpers, and tab-separated table emission matching the paper artifact's
// figureX.txt outputs.
package stats

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Histogram accumulates individual samples (e.g. per-operation latencies in
// cycles). The zero value is ready to use.
//
// The sample slice is kept in insertion order forever; order statistics
// (Percentile, Min, Max, CDF) work on a lazily maintained sorted copy. An
// earlier implementation sorted h.samples in place, so any Percentile call
// silently reordered what Samples() returned afterwards — a contract
// violation consumers (access-order figures, fleet service-time replay)
// could not detect.
type Histogram struct {
	samples []float64 // insertion order, never reordered
	sorted  []float64 // lazily built sorted copy; nil when stale
}

// Add records one sample.
func (h *Histogram) Add(v float64) {
	h.samples = append(h.samples, v)
	h.sorted = nil
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

// Sum returns the sum of all samples (0 with no samples).
func (h *Histogram) Sum() float64 {
	sum := 0.0
	for _, v := range h.samples {
		sum += v
	}
	return sum
}

// Mean returns the arithmetic mean (0 with no samples).
func (h *Histogram) Mean() float64 {
	if len(h.samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range h.samples {
		sum += v
	}
	return sum / float64(len(h.samples))
}

// Min returns the smallest sample (0 with no samples).
func (h *Histogram) Min() float64 {
	if len(h.samples) == 0 {
		return 0
	}
	return h.sortedView()[0]
}

// Max returns the largest sample (0 with no samples).
func (h *Histogram) Max() float64 {
	if len(h.samples) == 0 {
		return 0
	}
	s := h.sortedView()
	return s[len(s)-1]
}

// Percentile returns the p-th percentile (p in [0,100]) by nearest-rank.
func (h *Histogram) Percentile(p float64) float64 {
	if len(h.samples) == 0 {
		return 0
	}
	s := h.sortedView()
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank]
}

// Samples returns a copy of the raw samples in insertion order, regardless
// of any order statistics computed in between.
func (h *Histogram) Samples() []float64 {
	out := make([]float64, len(h.samples))
	copy(out, h.samples)
	return out
}

// sortedView returns the sorted copy of the samples, (re)building it only
// when samples were added since the last order statistic.
func (h *Histogram) sortedView() []float64 {
	if h.sorted == nil {
		h.sorted = make([]float64, len(h.samples))
		copy(h.sorted, h.samples)
		sort.Float64s(h.sorted)
	}
	return h.sorted
}

// CDF returns, for each of the given thresholds, the fraction of samples
// less than or equal to it (the paper's Fig 4 shape).
func (h *Histogram) CDF(thresholds []float64) []float64 {
	s := h.sortedView()
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
