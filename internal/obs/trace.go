package obs

// The simulation-time tracer. Everything in this file is stamped with
// SimTime — deterministic frame/slot/codeword coordinates derived from the
// simulation itself — and nothing here may read the wall clock: libra-lint's
// determinism analyzer checks trace*.go in this package like any library
// file, while the metrics side (metrics.go) is exempt. Keeping the two
// clocks apart is what makes -trace-out byte-identical for any worker count
// while -metrics-out stays free to record real timings.
//
// Concurrency model: a Tracer hands out Streams. A Stream is an ordered,
// single-writer event buffer — the caller that owns a deterministic unit of
// work (a campaign spec, a policy run) appends to its own stream from one
// goroutine at a time. WriteJSON merges streams sorted by (name, id), and
// events within a stream keep append order, so the merged output depends
// only on the work performed, never on scheduling.

import (
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// SimTime is a deterministic simulation timestamp: the TDMA frame index,
// the slot within the frame, and the codeword within the slot. Components a
// subsystem does not track stay zero.
type SimTime struct {
	Frame    int64
	Slot     int64
	Codeword int64
}

// A Field is one key/value attribute on an event. Values are pre-rendered
// strings so the export path has no type switches and no formatting
// ambiguity.
type Field struct {
	Key string
	Val string
}

// F builds a string-valued field.
func F(key, val string) Field { return Field{Key: key, Val: val} }

// Fint builds an integer-valued field.
func Fint(key string, v int64) Field {
	return Field{Key: key, Val: strconv.FormatInt(v, 10)}
}

// Ffloat builds a float-valued field using the shortest round-trip
// representation (platform-independent).
func Ffloat(key string, v float64) Field {
	return Field{Key: key, Val: formatFloat(v)}
}

// An Event is one traced occurrence.
type Event struct {
	T      SimTime
	Kind   string
	Fields []Field
}

// A Stream is an ordered single-writer event buffer. A nil *Stream is a
// valid no-op sink, so instrumented code can call Event unconditionally.
type Stream struct {
	name   string
	id     uint64
	events []Event
}

// Event appends one event to the stream. Safe on a nil receiver (no-op).
func (s *Stream) Event(t SimTime, kind string, fields ...Field) {
	if s == nil {
		return
	}
	s.events = append(s.events, Event{T: t, Kind: kind, Fields: fields})
}

// Enabled reports whether events are being recorded — code paths that would
// do extra work just to build fields can skip it.
func (s *Stream) Enabled() bool { return s != nil }

// A Tracer owns a set of streams. The zero value is not usable; NewTracer.
type Tracer struct {
	mu      sync.Mutex
	streams []*Stream
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// Stream creates a stream named name with a deterministic id (e.g. a spec
// or policy index). Callers must choose (name, id) pairs that are unique and
// independent of worker count — they are the merge key. Safe on a nil
// receiver: returns nil, which is a valid no-op stream.
func (t *Tracer) Stream(name string, id uint64) *Stream {
	if t == nil {
		return nil
	}
	s := &Stream{name: name, id: id}
	t.mu.Lock()
	t.streams = append(t.streams, s)
	t.mu.Unlock()
	return s
}

// WriteJSON writes every event as one JSON line:
//
//	{"stream":"campaign/main","id":3,"frame":9,"slot":0,"cw":0,"kind":"rebeam","attrs":{...}}
//
// Streams are ordered by (name, id) and events keep their append order, so
// the bytes are identical for any worker count that produced the same work.
func (t *Tracer) WriteJSON(w io.Writer) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	streams := make([]*Stream, len(t.streams))
	copy(streams, t.streams)
	t.mu.Unlock()
	sort.Slice(streams, func(i, j int) bool {
		if streams[i].name != streams[j].name {
			return streams[i].name < streams[j].name
		}
		return streams[i].id < streams[j].id
	})

	var sb strings.Builder
	for _, s := range streams {
		for _, e := range s.events {
			sb.Reset()
			sb.WriteString(`{"stream":`)
			sb.WriteString(strconv.Quote(s.name))
			sb.WriteString(`,"id":`)
			sb.WriteString(strconv.FormatUint(s.id, 10))
			sb.WriteString(`,"frame":`)
			sb.WriteString(strconv.FormatInt(e.T.Frame, 10))
			sb.WriteString(`,"slot":`)
			sb.WriteString(strconv.FormatInt(e.T.Slot, 10))
			sb.WriteString(`,"cw":`)
			sb.WriteString(strconv.FormatInt(e.T.Codeword, 10))
			sb.WriteString(`,"kind":`)
			sb.WriteString(strconv.Quote(e.Kind))
			sb.WriteString(`,"attrs":{`)
			for i, f := range e.Fields {
				if i > 0 {
					sb.WriteByte(',')
				}
				sb.WriteString(strconv.Quote(f.Key))
				sb.WriteByte(':')
				sb.WriteString(strconv.Quote(f.Val))
			}
			sb.WriteString("}}\n")
			if _, err := io.WriteString(w, sb.String()); err != nil {
				return err
			}
		}
	}
	return nil
}

// active is the process-wide tracer the -trace-out flag installs; nil means
// tracing is off and every Stream call returns the no-op nil stream.
var active atomic.Pointer[Tracer]

// SetTracer installs (or, with nil, removes) the process-wide tracer.
func SetTracer(t *Tracer) { active.Store(t) }

// ActiveTracer returns the installed tracer, or nil when tracing is off.
// All of its methods are nil-safe, so call sites need no guard.
func ActiveTracer() *Tracer { return active.Load() }
