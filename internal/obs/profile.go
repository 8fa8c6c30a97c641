package obs

import (
	"sort"
	"strings"
)

// This file turns Obs.Track's util.* gauge series back into
// utilization numbers and bottleneck rankings. It works on snapshots
// alone, so it applies equally to a live Registry and to a metrics
// artifact loaded from disk (cmd/beaconprof).

// utilPrefix is the metric namespace Obs.Track writes and NewProfile
// parses.
const utilPrefix = "util."

// Usage is one resource's accounted cycles over a window. Idle time is
// derived, not stored: Width*(To-From) - Busy - Stall.
type Usage struct {
	// Class is the resource class (ClassDIMM, ClassLink, ...).
	Class string
	// Name identifies the resource within its class.
	Name string
	// Width is the resource's parallel-server count.
	Width float64
	// Busy, Stall and Wait are cycle totals over the window. Busy and
	// Stall partition occupancy; Wait is the (non-exclusive) queueing
	// delay accumulated behind the resource.
	Busy, Stall, Wait float64
}

// Occupancy returns (busy+stall) / (width*window): the fraction of the
// resource's capacity that was occupied. window <= 0 or width 0 yields 0.
func (u Usage) Occupancy(window int64) float64 {
	if window <= 0 || u.Width <= 0 {
		return 0
	}
	return (u.Busy + u.Stall) / (u.Width * float64(window))
}

// BusyFraction returns busy / (width*window) — occupancy net of stalls.
func (u Usage) BusyFraction(window int64) float64 {
	if window <= 0 || u.Width <= 0 {
		return 0
	}
	return u.Busy / (u.Width * float64(window))
}

// Window attributes one time interval: every accounted resource's usage
// over [From, To), ranked by occupancy (descending; ties break by class
// then name, so identical runs rank identically).
type Window struct {
	From, To int64
	Ranked   []Usage
}

// Span returns the window length in cycles.
func (w Window) Span() int64 { return w.To - w.From }

// Critical returns the top-occupancy resource, false when the window has
// no accounted resources.
func (w Window) Critical() (Usage, bool) {
	if len(w.Ranked) == 0 {
		return Usage{}, false
	}
	return w.Ranked[0], true
}

// Profile is the utilization analysis of one job's snapshot series.
type Profile struct {
	// Run attributes the whole run: [0, last snapshot cycle).
	Run Window
	// Windows attributes each sampling interval (consecutive snapshot
	// pairs; the first window starts at cycle 0). Runs sampled only at
	// the end have a single window equal to Run.
	Windows []Window
}

// NewProfile parses the util.* metrics out of a snapshot series. Snapshots
// without util metrics yield an empty profile (no accounted resources).
func NewProfile(snaps []Snapshot) Profile {
	var p Profile
	if len(snaps) == 0 {
		return p
	}
	last := snaps[len(snaps)-1]
	p.Run = attributeDelta(Snapshot{}, last)
	prev := Snapshot{}
	for _, s := range snaps {
		if s.Cycle == prev.Cycle && prev.Values != nil {
			// The machine's forced end-of-run sample can duplicate the last
			// boundary snapshot; a zero-length window carries no information.
			continue
		}
		p.Windows = append(p.Windows, attributeDelta(prev, s))
		prev = s
	}
	return p
}

// ClassTotals aggregates the whole-run usage per class: summed cycles,
// summed width, ranked by aggregate occupancy. This is the "is it the
// DIMMs or the links" view.
func (p Profile) ClassTotals() []Usage {
	byClass := map[string]*Usage{}
	for _, u := range p.Run.Ranked {
		t, ok := byClass[u.Class]
		if !ok {
			t = &Usage{Class: u.Class, Name: "*"}
			byClass[u.Class] = t
		}
		t.Width += u.Width
		t.Busy += u.Busy
		t.Stall += u.Stall
		t.Wait += u.Wait
	}
	classes := make([]string, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	out := make([]Usage, 0, len(classes))
	for _, c := range classes {
		out = append(out, *byClass[c])
	}
	rankUsages(out, p.Run.Span())
	return out
}

// attributeDelta builds the window [prev.Cycle, cur.Cycle) from two
// cumulative snapshots (prev may be the zero Snapshot for run start).
func attributeDelta(prev, cur Snapshot) Window {
	w := Window{From: prev.Cycle, To: cur.Cycle}
	byKey := map[string]*Usage{}
	for name, v := range cur.Values {
		class, res, kind, ok := parseUtilName(name)
		if !ok {
			continue
		}
		key := class + "\x00" + res
		u, found := byKey[key]
		if !found {
			u = &Usage{Class: class, Name: res}
			byKey[key] = u
		}
		var pv float64
		if prev.Values != nil {
			pv = prev.Values[name]
		}
		switch kind {
		case "width":
			u.Width = v // constant, not a delta
		case "busy_cycles":
			u.Busy = v - pv
		case "stall_cycles":
			u.Stall = v - pv
		case "wait_cycles":
			u.Wait = v - pv
		}
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.Ranked = make([]Usage, 0, len(keys))
	for _, k := range keys {
		w.Ranked = append(w.Ranked, *byKey[k])
	}
	rankUsages(w.Ranked, w.Span())
	return w
}

// rankUsages orders by occupancy descending, breaking ties by (class,
// name) so the order is deterministic.
func rankUsages(us []Usage, span int64) {
	sort.Slice(us, func(i, j int) bool {
		oi, oj := us[i].Occupancy(span), us[j].Occupancy(span)
		if oi != oj {
			return oi > oj
		}
		if us[i].Class != us[j].Class {
			return us[i].Class < us[j].Class
		}
		return us[i].Name < us[j].Name
	})
}

// parseUtilName splits "util.<class>.<name>.<kind>" into its parts; ok is
// false for names outside the util namespace or with too few segments.
func parseUtilName(metric string) (class, name, kind string, ok bool) {
	if !strings.HasPrefix(metric, utilPrefix) {
		return "", "", "", false
	}
	rest := metric[len(utilPrefix):]
	dot := strings.IndexByte(rest, '.')
	if dot <= 0 {
		return "", "", "", false
	}
	class = rest[:dot]
	tail := rest[dot+1:]
	last := strings.LastIndexByte(tail, '.')
	if last <= 0 {
		return "", "", "", false
	}
	name, kind = tail[:last], tail[last+1:]
	switch kind {
	case "width", "busy_cycles", "stall_cycles", "wait_cycles":
		return class, name, kind, true
	}
	return "", "", "", false
}
