// Package report renders the evaluation harness's results as aligned text
// tables, the form in which cmd/beaconbench and EXPERIMENTS.md present the
// reproduced figures.
package report

import (
	"fmt"
	"strings"
)

// Table is a simple column-aligned text table.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row; cells beyond the header count are dropped, missing
// cells render empty.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		b.WriteString(t.title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	sep := make([]string, len(t.headers))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// FormatRatio renders a speedup/ratio with sensible precision: 525.73x-style
// for large values, 1.08x-style for small ones.
func FormatRatio(v float64) string {
	switch {
	case v >= 100:
		return fmt.Sprintf("%.1fx", v)
	case v >= 10:
		return fmt.Sprintf("%.2fx", v)
	default:
		return fmt.Sprintf("%.3fx", v)
	}
}

// FormatPercent renders a fraction as a percentage.
func FormatPercent(v float64) string {
	return fmt.Sprintf("%.2f%%", 100*v)
}

// FormatGBs renders a bandwidth in GB/s with precision scaled to its
// magnitude (calibration tables span idle pointer-chase trickles to
// multi-GB/s streams).
func FormatGBs(v float64) string {
	switch {
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	case v >= 0.1:
		return fmt.Sprintf("%.3f", v)
	default:
		return fmt.Sprintf("%.5f", v)
	}
}

// KV renders an aligned key-value block (run provenance headers, summary
// footers): each key is left-padded to the widest, followed by its value.
func KV(title string, pairs ...[2]string) string {
	width := 0
	for _, p := range pairs {
		if len(p[0]) > width {
			width = len(p[0])
		}
	}
	var b strings.Builder
	if title != "" {
		b.WriteString(title)
		b.WriteByte('\n')
	}
	for _, p := range pairs {
		fmt.Fprintf(&b, "%-*s  %s\n", width, p[0], p[1])
	}
	return b.String()
}
