package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// The benchmark's tracer. Spans are recorded only in the benchmark's own
// code, around the calls it makes into the program's public functions; the
// program itself is not instrumented. Spans stay in memory and are written
// once, when the run ends.

// Span is one timed call. Parent is the index of the enclosing span (-1 for
// a root); ReqID ties the spans of one request together (0 when the span
// belongs to no request).
type Span struct {
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	Parent int       `json:"parent"`
	ReqID  uint64    `json:"req_id,omitempty"`
}

// Dur is the span's wall duration.
func (s Span) Dur() time.Duration { return s.End.Sub(s.Start) }

// Tracer collects spans. A nil *Tracer records nothing, so untraced runs pay
// one nil check per call site.
type Tracer struct {
	mu    sync.Mutex
	spans []Span
}

// Begin opens a span under parent and returns its index (-1 on a nil
// tracer).
func (t *Tracer) Begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Name: name, Start: time.Now(), Parent: parent})
	return len(t.spans) - 1
}

// End closes span i.
func (t *Tracer) End(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// Add records a span whose endpoints were measured elsewhere (per-request
// spans stamped by the load generator).
func (t *Tracer) Add(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Do runs fn inside a span.
func (t *Tracer) Do(name string, parent int, fn func()) time.Duration {
	i := t.Begin(name, parent)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	t.End(i)
	return d
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children (overlapping children are merged, and
// children are clipped to the parent's interval).
func selfTimes(spans []Span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.Dur() - covered(s, spans, kids[i])
	}
	return out
}

// covered is the length of the union of the child intervals within p.
func covered(p Span, spans []Span, kids []int) time.Duration {
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := spans[k].Start, spans[k].End
		if a.Before(p.Start) {
			a = p.Start
		}
		if b.After(p.End) {
			b = p.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// layerRow is one line of the per-layer table.
type layerRow struct {
	Layer string
	Spans int
	Total time.Duration
	Self  time.Duration
}

// layerTable aggregates spans by name: total and self time per layer, in
// descending self time.
func layerTable(spans []Span) []layerRow {
	self := selfTimes(spans)
	byName := map[string]*layerRow{}
	var order []string
	for i, s := range spans {
		r := byName[s.Name]
		if r == nil {
			r = &layerRow{Layer: s.Name}
			byName[s.Name] = r
			order = append(order, s.Name)
		}
		r.Spans++
		r.Total += s.Dur()
		r.Self += self[i]
	}
	rows := make([]layerRow, 0, len(order))
	for _, n := range order {
		rows = append(rows, *byName[n])
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Self > rows[j].Self })
	return rows
}

// selfOf sums the self time of every span named name.
func selfOf(spans []Span, name string) time.Duration {
	self := selfTimes(spans)
	var d time.Duration
	for i, s := range spans {
		if s.Name == name {
			d += self[i]
		}
	}
	return d
}

// totalOf sums the duration of every span whose name is in names.
func totalOf(spans []Span, names ...string) time.Duration {
	var d time.Duration
	for _, s := range spans {
		for _, n := range names {
			if s.Name == n {
				d += s.Dur()
			}
		}
	}
	return d
}

// printLayerTable writes the per-layer table. The root span's self time is
// the part of the traced work no layer span covers; it is printed as the
// unaccounted remainder.
func printLayerTable(w io.Writer, spans []Span, root string) {
	rows := layerTable(spans)
	fmt.Fprintf(w, "%-36s %6s %12s %12s\n", "layer", "spans", "total_s", "self_s")
	for _, r := range rows {
		name := r.Layer
		if name == root {
			name += " (unaccounted)"
		}
		if r.Spans > 1000 {
			fmt.Fprintf(w, "%-36s %6d %12s %12s\n", name, r.Spans, "(per request)", "")
			continue
		}
		fmt.Fprintf(w, "%-36s %6d %12.4f %12.4f\n", name, r.Spans, r.Total.Seconds(), r.Self.Seconds())
	}
}

// writeSpans dumps the spans as JSON lines under dir.
func writeSpans(dir, name string, spans []Span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	var b strings.Builder
	enc := json.NewEncoder(&b)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return "", err
		}
	}
	return path, os.WriteFile(path, []byte(b.String()), 0o644)
}
