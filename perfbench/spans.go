package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one op share Op; Parent
// is the enclosing span's ID (-1 for an op's root span).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Op     int           `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	// Alloc is heap bytes allocated process-wide while the span was open;
	// it is attributable to the span only where one goroutine runs.
	Alloc uint64 `json:"alloc_bytes"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. Safe for concurrent
// use; a nil tracer records nothing.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	allocAt []uint64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
var allocMu sync.Mutex

func heapAllocs() uint64 {
	allocMu.Lock()
	defer allocMu.Unlock()
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// begin opens a span and returns its ID.
func (t *tracer) begin(op, parent int, name string) int {
	if t == nil {
		return -1
	}
	a := heapAllocs()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: time.Since(t.t0)})
	t.allocAt = append(t.allocAt, a)
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	a := heapAllocs()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	t.spans[id].Alloc = a - t.allocAt[id]
}

// do runs f inside a span.
func (t *tracer) do(op, parent int, name string, f func() error) error {
	id := t.begin(op, parent, name)
	err := f()
	t.end(id)
	return err
}

// writeFile dumps every span as one JSON object per line.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanTotals aggregates the spans of one name.
type spanTotals struct {
	count int
	total time.Duration // summed duration
	self  time.Duration // summed self time
	alloc uint64
}

// totals aggregates spans by name. A span's self time is its duration
// minus the part of its interval that its children cover; overlapping
// children are counted once.
func totals(spans []span) map[string]*spanTotals {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]*spanTotals)
	for _, s := range spans {
		t := out[s.Name]
		if t == nil {
			t = &spanTotals{}
			out[s.Name] = t
		}
		t.count++
		t.total += s.dur()
		t.self += s.dur() - covered(s, children[s.ID])
		t.alloc += s.Alloc
	}
	return out
}

// covered returns how much of parent's interval the union of kids spans.
func covered(parent span, kids []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, reach time.Duration
	for _, x := range iv {
		lo := max(x[0], reach)
		if x[1] > lo {
			sum += x[1] - lo
		}
		reach = max(reach, x[1])
	}
	return sum
}
