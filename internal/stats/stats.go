// Package stats provides the small statistical and formatting helpers the
// experiment harness uses: percentiles for latency reporting, geometric
// means for the paper's aggregate speedups, and fixed-width table output.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Percentile returns the p-th percentile (0..100) of xs using
// nearest-rank on a sorted copy. It panics on an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: percentile of empty slice")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}

// GeoMean returns the geometric mean of xs (which must all be positive).
// It returns 0 for an empty slice.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("stats: GeoMean of non-positive value %g", x))
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// HumanRate formats an operations-per-second rate like the paper's
// MOp/s axes.
func HumanRate(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2f GOp/s", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2f MOp/s", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.2f KOp/s", v/1e3)
	default:
		return fmt.Sprintf("%.2f Op/s", v)
	}
}

// HumanBytes formats a byte quantity.
func HumanBytes(v float64) string {
	switch {
	case v >= 1<<30:
		return fmt.Sprintf("%.2f GB", v/(1<<30))
	case v >= 1<<20:
		return fmt.Sprintf("%.2f MB", v/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.2f KB", v/(1<<10))
	default:
		return fmt.Sprintf("%.1f B", v)
	}
}

// Table accumulates rows and renders them with aligned columns, in the
// style of the paper's result tables.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
}

func formatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case math.Abs(v) >= 1e6 || math.Abs(v) < 1e-3:
		return fmt.Sprintf("%.3e", v)
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// String renders the table.
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
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// Sparkline renders values as a compact unicode bar chart (for sweeps in
// terminal output). An empty slice yields an empty string; a constant
// series renders mid-height bars.
func Sparkline(values []float64) string {
	if len(values) == 0 {
		return ""
	}
	bars := []rune("▁▂▃▄▅▆▇█")
	lo, hi := values[0], values[0]
	for _, v := range values {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var b strings.Builder
	for _, v := range values {
		idx := len(bars) / 2
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(bars)-1))
		}
		if idx < 0 {
			idx = 0
		}
		if idx >= len(bars) {
			idx = len(bars) - 1
		}
		b.WriteRune(bars[idx])
	}
	return b.String()
}
