package report

import (
	"math"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	t.Parallel()
	tb := NewTable("title", "a", "bbbb", "c")
	tb.AddRow("1", "2", "3")
	tb.AddRow("longer", "x")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "title" {
		t.Errorf("title line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "a") || !strings.Contains(lines[1], "bbbb") {
		t.Errorf("header = %q", lines[1])
	}
	if !strings.Contains(lines[2], "----") {
		t.Errorf("separator = %q", lines[2])
	}
	// Column alignment: every data row must be at least as wide as headers.
	if len(lines) != 5 {
		t.Fatalf("lines = %d, want 5", len(lines))
	}
	// Extra cells are dropped, missing are blank.
	tb2 := NewTable("", "x")
	tb2.AddRow("a", "dropped")
	if strings.Contains(tb2.String(), "dropped") {
		t.Error("extra cell not dropped")
	}
}

func TestEmptyTable(t *testing.T) {
	t.Parallel()
	// A table with no rows still renders header and separator.
	tb := NewTable("", "col")
	lines := strings.Split(strings.TrimRight(tb.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("empty table rendered %d lines, want header+separator", len(lines))
	}
	if lines[0] != "col" || lines[1] != "---" {
		t.Errorf("empty table = %q", lines)
	}
	// A table with no headers at all degenerates to just its title.
	bare := NewTable("only title")
	if got := bare.String(); got != "only title\n\n\n" {
		t.Errorf("headerless table = %q", got)
	}
	// An empty AddRow renders a blank row, not a crash.
	tb.AddRow()
	if n := len(strings.Split(strings.TrimRight(tb.String(), "\n"), "\n")); n != 3 {
		t.Errorf("blank row table rendered %d lines, want 3", n)
	}
}

func TestColumnAlignment(t *testing.T) {
	t.Parallel()
	tb := NewTable("", "a", "b")
	tb.AddRow("wide-cell", "x")
	tb.AddRow("y", "z")
	lines := strings.Split(strings.TrimRight(tb.String(), "\n"), "\n")
	// All rows pad to the widest cell per column, so every line is the
	// same width.
	for _, l := range lines[1:] {
		if len(l) != len(lines[0]) {
			t.Errorf("misaligned line %q (%d bytes, header %d)", l, len(l), len(lines[0]))
		}
	}
}

func TestFormatRatio(t *testing.T) {
	t.Parallel()
	cases := []struct {
		v    float64
		want string
	}{
		{525.73, "525.7x"},
		{100, "100.0x"}, // boundary: >= 100 takes one decimal
		{99.99, "99.99x"},
		{12.345, "12.35x"}, // rounded
		{10, "10.00x"},     // boundary: >= 10 takes two decimals
		{1.084, "1.084x"},
		{0.5, "0.500x"},
		{0, "0.000x"},
	}
	for _, tc := range cases {
		if got := FormatRatio(tc.v); got != tc.want {
			t.Errorf("FormatRatio(%g) = %q, want %q", tc.v, got, tc.want)
		}
	}
	// Non-finite ratios must render recognizably, not as digits.
	if got := FormatRatio(math.NaN()); !strings.Contains(got, "NaN") {
		t.Errorf("FormatRatio(NaN) = %q", got)
	}
	if got := FormatRatio(math.Inf(1)); !strings.Contains(got, "Inf") {
		t.Errorf("FormatRatio(+Inf) = %q", got)
	}
}

func TestFormatPercent(t *testing.T) {
	t.Parallel()
	if got := FormatPercent(0.9652); got != "96.52%" {
		t.Errorf("FormatPercent = %q", got)
	}
	if got := FormatPercent(0); got != "0.00%" {
		t.Errorf("FormatPercent(0) = %q", got)
	}
	if got := FormatPercent(1.5); got != "150.00%" {
		t.Errorf("FormatPercent(1.5) = %q", got)
	}
}
