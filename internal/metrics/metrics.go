// Package metrics provides the summary statistics used to report the
// paper's experiments: per-configuration speedups over the download-all
// baseline, medians and means across network configurations, and simple
// text rendering helpers for the figure harnesses.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Mean returns the arithmetic mean (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Median returns the median (0 for an empty slice).
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Percentile returns the p-th percentile (linear interpolation between
// closest ranks). p is clamped to [0, 100].
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := SortedCopy(xs)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Min returns the minimum (0 for an empty slice).
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum (0 for an empty slice).
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// StdDev returns the population standard deviation.
func StdDev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var sumSq float64
	for _, x := range xs {
		d := x - m
		sumSq += d * d
	}
	return math.Sqrt(sumSq / float64(len(xs)))
}

// JainIndex returns Jain's fairness index of the allocations:
// (Σx)² / (n·Σx²), in (0, 1] with 1 meaning perfectly equal shares. It is
// the cross-tenant fairness statistic on per-tenant iteration throughput.
// An empty slice yields 0; an all-zero slice (everyone equally starved)
// yields 1.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// SortedCopy returns an ascending copy of xs.
func SortedCopy(xs []float64) []float64 {
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return s
}

// Summary bundles the common statistics of one sample.
type Summary struct {
	N            int
	Mean, Median float64
	Min, Max     float64
	P25, P75     float64
	StdDev       float64
}

// Summarize computes a Summary.
func Summarize(xs []float64) Summary {
	return Summary{
		N: len(xs), Mean: Mean(xs), Median: Median(xs),
		Min: Min(xs), Max: Max(xs),
		P25: Percentile(xs, 25), P75: Percentile(xs, 75),
		StdDev: StdDev(xs),
	}
}

// String renders the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.2f median=%.2f min=%.2f p25=%.2f p75=%.2f max=%.2f sd=%.2f",
		s.N, s.Mean, s.Median, s.Min, s.P25, s.P75, s.Max, s.StdDev)
}

// Speedups returns base[i]/alg[i] for each configuration — "the performance
// of an algorithm on a particular configuration is measured as the speedup
// it achieves over the download-all strategy".
func Speedups(base, alg []float64) []float64 {
	if len(base) != len(alg) {
		panic(fmt.Sprintf("metrics: mismatched lengths %d vs %d", len(base), len(alg)))
	}
	out := make([]float64, len(base))
	for i := range base {
		if alg[i] <= 0 {
			out[i] = 0
			continue
		}
		out[i] = base[i] / alg[i]
	}
	return out
}

// Sparkline renders xs as a compact unicode bar series, handy for showing
// sorted per-configuration speedups in terminal output.
func Sparkline(xs []float64, width int) string {
	if len(xs) == 0 || width <= 0 {
		return ""
	}
	blocks := []rune("▁▂▃▄▅▆▇█")
	lo, hi := Min(xs), Max(xs)
	span := hi - lo
	var sb strings.Builder
	stride := float64(len(xs)) / float64(width)
	if stride < 1 {
		stride = 1
	}
	for i := 0.0; int(i) < len(xs) && sb.Len() < width*4; i += stride {
		x := xs[int(i)]
		idx := 0
		if span > 0 {
			idx = int((x - lo) / span * float64(len(blocks)-1))
		}
		sb.WriteRune(blocks[idx])
	}
	return sb.String()
}

// Table is a minimal fixed-width text table for figure output.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			if i == len(cells)-1 {
				sb.WriteString(c) // no trailing padding
			} else {
				fmt.Fprintf(&sb, "%-*s", widths[i], c)
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return sb.String()
}
