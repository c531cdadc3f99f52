package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// A Bucket is one cumulative histogram bucket in a snapshot.
type Bucket struct {
	// UpperBound is the inclusive upper bound (le); +Inf for the last.
	UpperBound float64 `json:"le"`
	// Count is the cumulative number of observations <= UpperBound.
	Count uint64 `json:"count"`
}

// A Metric is one registry entry frozen at snapshot time.
type Metric struct {
	Name string `json:"name"`
	Help string `json:"help,omitempty"`
	// Type is "counter", "gauge", or "histogram".
	Type string `json:"type"`
	// Value holds the counter or gauge value.
	Value float64 `json:"value,omitempty"`
	// Max holds a gauge's high-water mark.
	Max float64 `json:"max,omitempty"`
	// Count, Sum, Buckets describe a histogram.
	Count   uint64   `json:"count,omitempty"`
	Sum     float64  `json:"sum,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot freezes every registered metric, sorted by name, so exports are
// deterministic for a given set of values.
func (r *Registry) Snapshot() []Metric {
	r.mu.Lock()
	names := make([]string, 0, len(r.entries))
	for name := range r.entries {
		names = append(names, name)
	}
	entries := make([]*entry, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		entries = append(entries, r.entries[name])
	}
	r.mu.Unlock()

	out := make([]Metric, 0, len(entries))
	for _, e := range entries {
		m := Metric{Name: e.name, Help: e.help}
		switch e.kind {
		case kindCounter:
			m.Type = "counter"
			m.Value = float64(e.c.Value())
		case kindGauge:
			m.Type = "gauge"
			m.Value = float64(e.g.Value())
			m.Max = float64(e.g.Max())
		case kindFloatGauge:
			m.Type = "gauge"
			m.Value = e.f.Value()
			m.Max = e.f.Max()
		case kindHistogram:
			m.Type = "histogram"
			m.Count = e.h.Count()
			m.Sum = e.h.Sum()
			m.Buckets = make([]Bucket, 0, len(e.h.counts))
			var cum uint64
			for i := range e.h.counts {
				cum += e.h.counts[i].Load()
				ub := math.Inf(1)
				if i < len(e.h.bounds) {
					ub = e.h.bounds[i]
				}
				m.Buckets = append(m.Buckets, Bucket{UpperBound: ub, Count: cum})
			}
		}
		out = append(out, m)
	}
	return out
}

// formatFloat renders a float the same way on every platform: shortest
// round-trip representation, with explicit +Inf/-Inf spellings matching the
// Prometheus text format.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// baseName strips a fixed label set ({...}) off a metric name, for the
// # HELP / # TYPE header lines.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// labeledName splices extra label pairs (already in `k="v"` form) into a
// metric name that may or may not carry a label set.
func labeledName(name string, labels ...string) string {
	if len(labels) == 0 {
		return name
	}
	l := strings.Join(labels, ",")
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:len(name)-1] + "," + l + "}"
	}
	return name + "{" + l + "}"
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4). Metrics appear in sorted name order; HELP/TYPE
// headers are emitted once per base name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	lastBase := ""
	for _, m := range r.Snapshot() {
		base := baseName(m.Name)
		if base != lastBase {
			if m.Help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", base, m.Help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", base, m.Type); err != nil {
				return err
			}
			lastBase = base
		}
		switch m.Type {
		case "histogram":
			for _, b := range m.Buckets {
				name := labeledName(m.Name, `le="`+formatFloat(b.UpperBound)+`"`)
				if _, err := fmt.Fprintf(w, "%s %d\n", strings.Replace(name, base, base+"_bucket", 1), b.Count); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s %s\n", strings.Replace(m.Name, base, base+"_sum", 1), formatFloat(m.Sum)); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s %d\n", strings.Replace(m.Name, base, base+"_count", 1), m.Count); err != nil {
				return err
			}
		case "gauge":
			if _, err := fmt.Fprintf(w, "%s %s\n", m.Name, formatFloat(m.Value)); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s %s\n", strings.Replace(m.Name, base, base+"_max", 1), formatFloat(m.Max)); err != nil {
				return err
			}
		default:
			if _, err := fmt.Fprintf(w, "%s %s\n", m.Name, formatFloat(m.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteJSON writes the registry as JSON lines: one metric object per line,
// in sorted name order. The encoding is hand-rolled so field order (and
// therefore the bytes) is deterministic.
func (r *Registry) WriteJSON(w io.Writer) error {
	var sb strings.Builder
	for _, m := range r.Snapshot() {
		sb.Reset()
		sb.WriteString(`{"name":`)
		sb.WriteString(strconv.Quote(m.Name))
		sb.WriteString(`,"type":"`)
		sb.WriteString(m.Type)
		sb.WriteString(`"`)
		switch m.Type {
		case "histogram":
			sb.WriteString(`,"count":`)
			sb.WriteString(strconv.FormatUint(m.Count, 10))
			sb.WriteString(`,"sum":`)
			sb.WriteString(jsonFloat(m.Sum))
			sb.WriteString(`,"buckets":[`)
			for i, b := range m.Buckets {
				if i > 0 {
					sb.WriteByte(',')
				}
				sb.WriteString(`{"le":`)
				if math.IsInf(b.UpperBound, 1) {
					sb.WriteString(`"+Inf"`)
				} else {
					sb.WriteString(jsonFloat(b.UpperBound))
				}
				sb.WriteString(`,"count":`)
				sb.WriteString(strconv.FormatUint(b.Count, 10))
				sb.WriteByte('}')
			}
			sb.WriteByte(']')
		case "gauge":
			sb.WriteString(`,"value":`)
			sb.WriteString(jsonFloat(m.Value))
			sb.WriteString(`,"max":`)
			sb.WriteString(jsonFloat(m.Max))
		default:
			sb.WriteString(`,"value":`)
			sb.WriteString(jsonFloat(m.Value))
		}
		sb.WriteString("}\n")
		if _, err := io.WriteString(w, sb.String()); err != nil {
			return err
		}
	}
	return nil
}

// jsonFloat renders a float as a JSON number (Inf/NaN, invalid in JSON,
// become quoted strings).
func jsonFloat(v float64) string {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return strconv.Quote(formatFloat(v))
	}
	return formatFloat(v)
}
