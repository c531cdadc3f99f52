package engine

import (
	"fmt"
	"time"
)

// Event kinds dispatched by the engine loop.
type eventKind uint8

const (
	// evSegment advances a station's LinkSim one boundary interval.
	evSegment eventKind = iota
	// evImpairStart applies a drawn SNR penalty to the station's serving
	// link (blockage onset); carries the penalty and its duration, both
	// drawn when the event was pushed.
	evImpairStart
	// evImpairEnd clears the penalty and draws the next impairment cycle.
	evImpairEnd
)

// String names the kind for traces.
func (k eventKind) String() string {
	switch k {
	case evSegment:
		return "segment"
	case evImpairStart:
		return "impair_start"
	case evImpairEnd:
		return "impair_end"
	}
	return "unknown"
}

// event is one scheduled occurrence. Randomness is attached at push time
// (penaltyDB, impairDur), never drawn by the handler.
type event struct {
	at     time.Duration
	entity int    // station ID — the total tie-break order with at and seq
	seq    uint64 // global push counter: stable order for identical (at, entity)
	kind   eventKind

	penaltyDB float64       // evImpairStart: SNR penalty to apply
	impairDur time.Duration // evImpairStart: how long it lasts
}

// before reports whether a orders before b: by time, then station, then push
// order. seq is unique, so the order is total and any correct heap pops the
// same sequence.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.entity != b.entity {
		return a.entity < b.entity
	}
	return a.seq < b.seq
}

// eventHeap is a binary min-heap over (at, entity, seq), typed so that push
// and pop move events by value instead of boxing them. Pushes happen only in
// the serial phases of the engine loop, so seq assignment — and therefore the
// full ordering — is identical for any worker count.
type eventHeap struct {
	ev  []event
	seq uint64
	// now is the time of the barrier being handled (0 before the first):
	// sim time never runs backwards, so push refuses anything earlier.
	now time.Duration
	// batch is the one buffer popBarrier refills; its contents are valid
	// until the next popBarrier.
	batch []event
}

func (h *eventHeap) Len() int { return len(h.ev) }

// push stamps the event with the next sequence number and enqueues it, or
// refuses an event timed before the barrier being handled.
func (h *eventHeap) push(e event) error {
	if e.at < h.now {
		return fmt.Errorf("engine: %v event for station %d at %v pushed before the barrier at %v", e.kind, e.entity, e.at, h.now)
	}
	e.seq = h.seq
	h.seq++
	h.ev = append(h.ev, e)
	// Sift up.
	ev := h.ev
	i := len(ev) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !ev[i].before(&ev[p]) {
			break
		}
		ev[i], ev[p] = ev[p], ev[i]
		i = p
	}
	return nil
}

// pop removes and returns the minimum event.
func (h *eventHeap) pop() event {
	ev := h.ev
	n := len(ev) - 1
	top := ev[0]
	ev[0] = ev[n]
	ev = ev[:n]
	h.ev = ev
	// Sift down.
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && ev[r].before(&ev[l]) {
			m = r
		}
		if !ev[m].before(&ev[i]) {
			break
		}
		ev[i], ev[m] = ev[m], ev[i]
		i = m
	}
	return top
}

// popBarrier removes and returns every event sharing the earliest timestamp —
// one synchronization barrier. The slice is ordered by (entity, seq) and
// reuses one buffer: it is valid until the next popBarrier.
func (h *eventHeap) popBarrier() []event {
	if len(h.ev) == 0 {
		return nil
	}
	at := h.ev[0].at
	h.now = at
	h.batch = h.batch[:0]
	for len(h.ev) > 0 && h.ev[0].at == at {
		h.batch = append(h.batch, h.pop())
	}
	return h.batch
}
