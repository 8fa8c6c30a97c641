package report

import (
	"fmt"

	"beacon/internal/obs"
)

// This file renders the obs package's utilization profiles (cycle
// accounting per resource, see obs.Obs.Track / obs.NewProfile) as the
// text tables cmd/beaconprof and cmd/beaconbench print: per-resource
// occupancy rankings, per-class rollups and the per-window
// critical-resource timeline.

// formatCycles renders a cycle count compactly (1.25 ns cycles).
func formatCycles(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

// usageRow renders one Usage as table cells for the given window span.
func usageRow(u obs.Usage, span int64) []string {
	return []string{
		u.Class,
		u.Name,
		fmt.Sprintf("%.0f", u.Width),
		FormatPercent(u.Occupancy(span)),
		FormatPercent(u.BusyFraction(span)),
		FormatPercent(u.Occupancy(span) - u.BusyFraction(span)),
		formatCycles(u.Wait),
	}
}

// UtilizationTable renders a window's occupancy ranking, highest first,
// truncated to top rows (top <= 0 means all). Columns: occupancy is
// (busy+stall)/(width*span); stall% is the occupancy share lost to
// stalls; wait is the aggregate queueing delay behind the resource.
func UtilizationTable(title string, w obs.Window, top int) string {
	t := NewTable(title, "class", "resource", "width", "occupancy", "busy", "stall", "wait")
	n := len(w.Ranked)
	if top > 0 && top < n {
		n = top
	}
	for _, u := range w.Ranked[:n] {
		t.AddRow(usageRow(u, w.Span())...)
	}
	if n < len(w.Ranked) {
		t.AddRow("...", fmt.Sprintf("(%d more)", len(w.Ranked)-n))
	}
	return t.String()
}

// ClassTable renders the per-class rollup of a profile's whole-run window:
// the "is it the DIMMs or the links" view.
func ClassTable(title string, p obs.Profile) string {
	t := NewTable(title, "class", "resources", "width", "occupancy", "busy", "stall", "wait")
	totals := p.ClassTotals()
	counts := map[string]int{}
	for _, u := range p.Run.Ranked {
		counts[u.Class]++
	}
	for _, u := range totals {
		t.AddRow(
			u.Class,
			fmt.Sprintf("%d", counts[u.Class]),
			fmt.Sprintf("%.0f", u.Width),
			FormatPercent(u.Occupancy(p.Run.Span())),
			FormatPercent(u.BusyFraction(p.Run.Span())),
			FormatPercent(u.Occupancy(p.Run.Span())-u.BusyFraction(p.Run.Span())),
			formatCycles(u.Wait),
		)
	}
	return t.String()
}

// CriticalSummary returns a one-line bottleneck statement for a run:
// the top-occupancy resource and its numbers, or a no-data notice when the
// profile has no accounted resources.
func CriticalSummary(p obs.Profile) string {
	u, ok := p.Run.Critical()
	if !ok {
		return "critical resource: none (no util.* metrics in artifact)"
	}
	span := p.Run.Span()
	return fmt.Sprintf("critical resource: %s %s (%s occupied, %s busy, %s stalled, wait %s cycles)",
		u.Class, u.Name,
		FormatPercent(u.Occupancy(span)),
		FormatPercent(u.BusyFraction(span)),
		FormatPercent(u.Occupancy(span)-u.BusyFraction(span)),
		formatCycles(u.Wait))
}

// WindowTable renders the per-sampling-window critical-resource timeline:
// one row per window with its top resource. max bounds the row count
// (<= 0 means all); when truncating, the rows are evenly thinned rather
// than cut at the front so the whole run stays visible.
func WindowTable(title string, p obs.Profile, max int) string {
	t := NewTable(title, "window", "cycles", "critical", "occupancy", "busy", "stall")
	ws := p.Windows
	stride := 1
	if max > 0 && len(ws) > max {
		stride = (len(ws) + max - 1) / max
	}
	for i := 0; i < len(ws); i += stride {
		w := ws[i]
		u, ok := w.Critical()
		if !ok {
			t.AddRow(fmt.Sprintf("[%d,%d)", w.From, w.To), formatCycles(float64(w.Span())), "-")
			continue
		}
		t.AddRow(
			fmt.Sprintf("[%d,%d)", w.From, w.To),
			formatCycles(float64(w.Span())),
			u.Class+" "+u.Name,
			FormatPercent(u.Occupancy(w.Span())),
			FormatPercent(u.BusyFraction(w.Span())),
			FormatPercent(u.Occupancy(w.Span())-u.BusyFraction(w.Span())),
		)
	}
	if stride > 1 {
		t.AddRow("...", fmt.Sprintf("(every %d of %d windows)", stride, len(ws)))
	}
	return t.String()
}
