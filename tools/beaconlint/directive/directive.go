// Package directive implements the //beaconlint:allow escape hatch.
//
// A directive names the analyzers it silences and must carry a reason:
//
//	//beaconlint:allow nodeterminism wall-clock feeds progress output only
//	total += x //beaconlint:allow maporder,unitflow reason...
//
// Placement: on the flagged line itself (trailing comment) or on the line
// directly above it. The escape hatch is audited as strictly as the code:
//
//   - a directive without a reason is itself a diagnostic;
//   - a directive naming an analyzer that is not registered is a
//     diagnostic;
//   - a stale directive — one that silenced nothing — is a diagnostic, so
//     suppressions cannot outlive the code they excused.
package directive

import (
	"go/ast"
	"go/token"
	"sort"
	"strconv"
	"strings"

	"beacon/tools/beaconlint/analysis"
)

// Prefix introduces an allow directive.
const Prefix = "//beaconlint:allow"

// Directive is one parsed //beaconlint:allow comment.
type Directive struct {
	// Pos is the comment's position.
	Pos token.Pos
	// File and Line locate the comment for matching.
	File string
	Line int
	// Analyzers are the comma-separated analyzer names the directive
	// silences.
	Analyzers []string
	// Reason is the mandatory free-text justification.
	Reason string
	// used tracks, per analyzer name, whether the directive silenced at
	// least one diagnostic.
	used map[string]bool
}

// Collect parses all allow directives in files.
func Collect(fset *token.FileSet, files []*ast.File) []*Directive {
	var out []*Directive
	for _, file := range files {
		for _, group := range file.Comments {
			for _, c := range group.List {
				if !strings.HasPrefix(c.Text, Prefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, Prefix)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. //beaconlint:allowother
				}
				// A nested "//" ends the directive (so trailing commentary
				// and analysistest want-expectations don't become reason
				// text).
				if i := strings.Index(rest, "//"); i >= 0 {
					rest = rest[:i]
				}
				fields := strings.Fields(rest)
				d := &Directive{
					Pos:  c.Pos(),
					File: fset.Position(c.Pos()).Filename,
					Line: fset.Position(c.Pos()).Line,
					used: map[string]bool{},
				}
				if len(fields) > 0 {
					for _, name := range strings.Split(fields[0], ",") {
						if name != "" {
							d.Analyzers = append(d.Analyzers, name)
						}
					}
					d.Reason = strings.Join(fields[1:], " ")
				}
				out = append(out, d)
			}
		}
	}
	return out
}

// Apply filters diags through the directives and appends the directives'
// own diagnostics (missing reason, unknown analyzer, stale). known is the
// set of registered analyzer names.
func Apply(fset *token.FileSet, dirs []*Directive, diags []analysis.Diagnostic, known map[string]bool) []analysis.Diagnostic {
	byLoc := map[string][]*Directive{}
	key := func(file string, line int) string {
		return file + "\x00" + strconv.Itoa(line)
	}
	for _, d := range dirs {
		byLoc[key(d.File, d.Line)] = append(byLoc[key(d.File, d.Line)], d)
	}

	var kept []analysis.Diagnostic
	for _, diag := range diags {
		pos := fset.Position(diag.Pos)
		suppressed := false
		// A directive matches from the flagged line or the line above.
		for _, line := range []int{pos.Line, pos.Line - 1} {
			for _, d := range byLoc[key(pos.Filename, line)] {
				if d.Reason == "" {
					continue // defective directives never silence
				}
				for _, name := range d.Analyzers {
					if name == diag.Analyzer {
						d.used[name] = true
						suppressed = true
					}
				}
			}
		}
		if !suppressed {
			kept = append(kept, diag)
		}
	}

	for _, d := range dirs {
		switch {
		case len(d.Analyzers) == 0:
			kept = append(kept, analysis.Diagnostic{
				Pos:      d.Pos,
				Analyzer: "beaconlint",
				Message:  "beaconlint:allow directive names no analyzer; write //beaconlint:allow <analyzer> <reason>",
			})
		case d.Reason == "":
			kept = append(kept, analysis.Diagnostic{
				Pos:      d.Pos,
				Analyzer: "beaconlint",
				Message:  "beaconlint:allow directive has no reason; every suppression must say why (//beaconlint:allow <analyzer> <reason>)",
			})
		default:
			for _, name := range d.Analyzers {
				if !known[name] {
					kept = append(kept, analysis.Diagnostic{
						Pos:      d.Pos,
						Analyzer: "beaconlint",
						Message:  "beaconlint:allow names unknown analyzer " + strconv.Quote(name),
					})
					continue
				}
				if !d.used[name] {
					kept = append(kept, analysis.Diagnostic{
						Pos:      d.Pos,
						Analyzer: "beaconlint",
						Message:  "stale beaconlint:allow: no " + name + " diagnostic here anymore; delete the directive",
					})
				}
			}
		}
	}

	sort.SliceStable(kept, func(i, j int) bool {
		pi, pj := fset.Position(kept[i].Pos), fset.Position(kept[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return kept[i].Analyzer < kept[j].Analyzer
	})
	return kept
}
