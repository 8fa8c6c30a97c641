package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// OpenMetrics / Prometheus text exposition. The writer renders each
// registry's *final* snapshot (end-of-run values) plus histograms; the
// parser validates the exposition for tests and beaconprof -check, so the
// format the daemon will one day serve from /metrics is pinned by fixtures
// today.
//
// Metric names in the simulator are dotted (dram.s0.d0.reads) and may
// embed component names with hyphens (cxl.host-s0.up.busy_cycles); the
// exposition sanitizes every name to [a-zA-Z0-9_:] as the format requires.
// Job labels pass through as a job="<label>" label with standard escaping.

// sanitizeMetricName maps a registry metric name onto the OpenMetrics
// charset: letters, digits, '_' and ':' survive, everything else becomes
// '_', and a leading digit gains a '_' prefix.
func sanitizeMetricName(s string) string {
	if s == "" {
		return "_"
	}
	var b strings.Builder
	b.Grow(len(s) + 1)
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// escapeLabelValue escapes a label value per the exposition format.
func escapeLabelValue(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// omFloat renders a sample value; shortest round-trippable form.
func omFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// omSample is one exposition line body: optional label set + value.
type omSample struct {
	suffix string // appended to the family name ("", "_total", "_bucket", ...)
	labels string // rendered inside {...}; "" for none
	value  float64
}

// omFamily is one metric family in output order.
type omFamily struct {
	name    string // sanitized
	typ     string // gauge | counter | histogram
	samples []omSample
}

// writeOpenMetrics renders families in the given order.
func writeOpenMetrics(w io.Writer, fams []omFamily) error {
	bw := bufio.NewWriter(w)
	for _, f := range fams {
		if _, err := fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for _, s := range f.samples {
			line := f.name + s.suffix
			if s.labels != "" {
				line += "{" + s.labels + "}"
			}
			if _, err := fmt.Fprintf(bw, "%s %s\n", line, omFloat(s.value)); err != nil {
				return err
			}
		}
	}
	if _, err := io.WriteString(bw, "# EOF\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// appendRegistryFamilies converts one registry's dump into families,
// attaching jobLabel (when non-empty) to every sample. Counter names come
// from the live registry (the dump does not distinguish counter from
// gauge); fams is keyed by sanitized name so jobs sharing metric names
// merge into one family.
func appendRegistryFamilies(fams map[string]*omFamily, order *[]string, r *Registry, jobLabel string) {
	counters := map[string]bool{}
	for _, n := range r.counterNames() {
		counters[n] = true
	}
	dump := r.Dump()
	baseLabels := ""
	if jobLabel != "" {
		baseLabels = `job="` + escapeLabelValue(jobLabel) + `"`
	}
	family := func(raw, typ string) *omFamily {
		name := sanitizeMetricName(raw)
		f, ok := fams[name]
		if !ok {
			f = &omFamily{name: name, typ: typ}
			fams[name] = f
			*order = append(*order, name)
		}
		return f
	}

	final := dump.Final()
	names := make([]string, 0, len(final.Values))
	for n := range final.Values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if counters[n] {
			f := family(n, "counter")
			f.samples = append(f.samples, omSample{suffix: "_total", labels: baseLabels, value: final.Values[n]})
		} else {
			f := family(n, "gauge")
			f.samples = append(f.samples, omSample{labels: baseLabels, value: final.Values[n]})
		}
	}

	hnames := make([]string, 0, len(dump.Histograms))
	for n := range dump.Histograms {
		hnames = append(hnames, n)
	}
	sort.Strings(hnames)
	for _, n := range hnames {
		h := dump.Histograms[n]
		f := family(n, "histogram")
		sep := ""
		if baseLabels != "" {
			sep = ","
		}
		// Exposition buckets are cumulative; the dump's are per-bucket.
		var cum uint64
		for i, c := range h.Counts {
			cum += c
			le := "+Inf"
			if i < len(h.Bounds) {
				le = omFloat(h.Bounds[i])
			}
			f.samples = append(f.samples, omSample{
				suffix: "_bucket",
				labels: baseLabels + sep + `le="` + le + `"`,
				value:  float64(cum),
			})
		}
		f.samples = append(f.samples,
			omSample{suffix: "_sum", labels: baseLabels, value: h.Sum},
			omSample{suffix: "_count", labels: baseLabels, value: float64(h.Count)})
	}
}

// WriteOpenMetrics renders the registry's final snapshot and histograms in
// OpenMetrics text exposition format (unlabeled samples).
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	return (*Collection)(nil).WriteOpenMetricsWith(w, r)
}

// WriteOpenMetrics renders every job's final metrics in OpenMetrics text
// exposition format, one family per metric name with a job="<label>"
// label per sample. Jobs are label-sorted and families name-sorted, so
// identical collections produce identical bytes.
func (c *Collection) WriteOpenMetrics(w io.Writer) error {
	return c.WriteOpenMetricsWith(w, nil)
}

// WriteOpenMetricsWith renders the collection's job metrics merged with an
// extra unlabeled registry into one valid exposition (a single # EOF).
// The daemon's /metrics endpoint uses it to serve server-level counters
// (admissions, queue depth, cache traffic) alongside per-job simulation
// metrics. Either side may be nil; the extra registry's final snapshot is
// rendered, so callers snapshot it before writing.
func (c *Collection) WriteOpenMetricsWith(w io.Writer, extra *Registry) error {
	fams := map[string]*omFamily{}
	var order []string
	if c != nil {
		for _, o := range c.sorted() {
			appendRegistryFamilies(fams, &order, o.Metrics, o.Label)
		}
	}
	if extra != nil {
		appendRegistryFamilies(fams, &order, extra, "")
	}
	// order holds first-appearance order with possible job-interleaving;
	// sort it for a canonical exposition (names are unique in the map).
	sort.Strings(order)
	out := make([]omFamily, 0, len(order))
	for _, n := range order {
		out = append(out, *fams[n])
	}
	return writeOpenMetrics(w, out)
}

// OMSample is one parsed exposition sample.
type OMSample struct {
	// Name is the full sample name (family name + suffix).
	Name string
	// Labels holds the sample's label pairs.
	Labels map[string]string
	// Value is the sample value.
	Value float64
}

// OMFamily is one parsed metric family.
type OMFamily struct {
	// Name is the family name from its # TYPE line.
	Name string
	// Type is gauge, counter or histogram.
	Type string
	// Samples are the family's samples in file order.
	Samples []OMSample
}

// ParseOpenMetrics parses and validates a text exposition: every sample
// must belong to a declared family (with the suffixes its type allows),
// names must match the format's charset, and the input must end with the
// "# EOF" terminator. It returns the families in file order. This is the
// fixture parser the OpenMetrics goldens and beaconprof -check rely on;
// it accepts the subset of the format the writers emit (no exemplars, no
// timestamps).
func ParseOpenMetrics(r io.Reader) ([]*OMFamily, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var fams []*OMFamily
	byName := map[string]*OMFamily{}
	var cur *OMFamily
	sawEOF := false
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if sawEOF {
			return nil, fmt.Errorf("openmetrics: line %d: content after # EOF", lineNo)
		}
		if line == "" {
			return nil, fmt.Errorf("openmetrics: line %d: blank line", lineNo)
		}
		if strings.HasPrefix(line, "#") {
			switch {
			case line == "# EOF":
				sawEOF = true
			case strings.HasPrefix(line, "# TYPE "):
				rest := strings.TrimPrefix(line, "# TYPE ")
				parts := strings.Split(rest, " ")
				if len(parts) != 2 {
					return nil, fmt.Errorf("openmetrics: line %d: malformed TYPE line", lineNo)
				}
				name, typ := parts[0], parts[1]
				if !validMetricName(name) {
					return nil, fmt.Errorf("openmetrics: line %d: invalid metric name %q", lineNo, name)
				}
				switch typ {
				case "gauge", "counter", "histogram":
				default:
					return nil, fmt.Errorf("openmetrics: line %d: unsupported type %q", lineNo, typ)
				}
				if _, dup := byName[name]; dup {
					return nil, fmt.Errorf("openmetrics: line %d: duplicate family %q", lineNo, name)
				}
				cur = &OMFamily{Name: name, Type: typ}
				byName[name] = cur
				fams = append(fams, cur)
			case strings.HasPrefix(line, "# HELP "):
				// Accepted and ignored.
			default:
				return nil, fmt.Errorf("openmetrics: line %d: unrecognized comment %q", lineNo, line)
			}
			continue
		}
		s, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("openmetrics: line %d: %w", lineNo, err)
		}
		fam, suffix, err := resolveFamily(byName, cur, s.Name)
		if err != nil {
			return nil, fmt.Errorf("openmetrics: line %d: %w", lineNo, err)
		}
		if err := checkSuffix(fam.Type, suffix); err != nil {
			return nil, fmt.Errorf("openmetrics: line %d: %s: %w", lineNo, s.Name, err)
		}
		fam.Samples = append(fam.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawEOF {
		return nil, fmt.Errorf("openmetrics: missing # EOF terminator")
	}
	return fams, nil
}

// resolveFamily finds the family a sample belongs to: its exact name, or
// the name minus a typed suffix. The current family is tried first so
// histogram suffixes resolve even when another family's name is a prefix.
func resolveFamily(byName map[string]*OMFamily, cur *OMFamily, sample string) (*OMFamily, string, error) {
	if cur != nil && strings.HasPrefix(sample, cur.Name) {
		if suf := sample[len(cur.Name):]; validSuffix(suf) {
			return cur, suf, nil
		}
	}
	if f, ok := byName[sample]; ok {
		return f, "", nil
	}
	for _, suf := range []string{"_total", "_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(sample, suf); ok {
			if f, found := byName[base]; found {
				return f, suf, nil
			}
		}
	}
	return nil, "", fmt.Errorf("sample %q has no declared family", sample)
}

func validSuffix(s string) bool {
	switch s {
	case "", "_total", "_bucket", "_sum", "_count":
		return true
	}
	return false
}

// checkSuffix enforces which suffixes each family type may emit.
func checkSuffix(typ, suffix string) error {
	ok := false
	switch typ {
	case "gauge":
		ok = suffix == ""
	case "counter":
		ok = suffix == "_total"
	case "histogram":
		ok = suffix == "_bucket" || suffix == "_sum" || suffix == "_count"
	}
	if !ok {
		return fmt.Errorf("suffix %q not allowed for %s family", suffix, typ)
	}
	return nil
}

// parseSampleLine parses `name{label="v",...} value` (label set optional).
func parseSampleLine(line string) (OMSample, error) {
	s := OMSample{Labels: map[string]string{}}
	i := 0
	for i < len(line) && isNameChar(line[i], i == 0) {
		i++
	}
	if i == 0 {
		return s, fmt.Errorf("malformed sample %q", line)
	}
	s.Name = line[:i]
	rest := line[i:]
	if strings.HasPrefix(rest, "{") {
		end := -1
		// Scan for the closing brace outside quotes.
		inQuote := false
		for j := 1; j < len(rest); j++ {
			switch {
			case inQuote && rest[j] == '\\':
				j++ // skip escaped char
			case rest[j] == '"':
				inQuote = !inQuote
			case !inQuote && rest[j] == '}':
				end = j
			}
			if end >= 0 {
				break
			}
		}
		if end < 0 {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		if err := parseLabels(rest[1:end], s.Labels); err != nil {
			return s, err
		}
		rest = rest[end+1:]
	}
	if !strings.HasPrefix(rest, " ") {
		return s, fmt.Errorf("missing value in %q", line)
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return s, fmt.Errorf("bad value in %q: %w", line, err)
	}
	s.Value = v
	return s, nil
}

// parseLabels parses a comma-separated label body (no trailing comma).
func parseLabels(body string, out map[string]string) error {
	i := 0
	for i < len(body) {
		start := i
		for i < len(body) && isNameChar(body[i], i == start) {
			i++
		}
		if i == start || i >= len(body) || body[i] != '=' {
			return fmt.Errorf("malformed label at %q", body[start:])
		}
		name := body[start:i]
		i++ // '='
		if i >= len(body) || body[i] != '"' {
			return fmt.Errorf("label %s: missing opening quote", name)
		}
		i++
		var val strings.Builder
		for i < len(body) && body[i] != '"' {
			if body[i] == '\\' && i+1 < len(body) {
				i++
				switch body[i] {
				case 'n':
					val.WriteByte('\n')
				case '\\', '"':
					val.WriteByte(body[i])
				default:
					return fmt.Errorf("label %s: bad escape \\%c", name, body[i])
				}
			} else {
				val.WriteByte(body[i])
			}
			i++
		}
		if i >= len(body) {
			return fmt.Errorf("label %s: unterminated value", name)
		}
		i++ // closing quote
		if _, dup := out[name]; dup {
			return fmt.Errorf("duplicate label %s", name)
		}
		out[name] = val.String()
		if i < len(body) {
			if body[i] != ',' {
				return fmt.Errorf("expected ',' after label %s", name)
			}
			i++
		}
	}
	return nil
}

// isNameChar reports whether c may appear in a metric/label name; first
// restricts to the non-digit leading charset.
func isNameChar(c byte, first bool) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		return true
	case c >= '0' && c <= '9':
		return !first
	}
	return false
}

// validMetricName checks the exposition charset for a whole name.
func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if !isNameChar(s[i], i == 0) {
			return false
		}
	}
	return true
}
