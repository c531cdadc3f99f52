package engine

import (
	"container/heap"
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

// eventHeap is a binary min-heap over (at, entity, seq). Pushes happen only
// in the serial phases of the engine loop, so seq assignment — and therefore
// the full ordering — is identical for any worker count.
type eventHeap struct {
	ev  []event
	seq uint64
	// now is the time of the barrier being handled (0 before the first):
	// sim time never runs backwards, so push refuses anything earlier.
	now time.Duration
}

func (h *eventHeap) Len() int { return len(h.ev) }

func (h *eventHeap) Less(i, j int) bool {
	a, b := h.ev[i], h.ev[j]
	if a.at != b.at {
		return a.at < b.at
	}
	if a.entity != b.entity {
		return a.entity < b.entity
	}
	return a.seq < b.seq
}

func (h *eventHeap) Swap(i, j int) { h.ev[i], h.ev[j] = h.ev[j], h.ev[i] }

func (h *eventHeap) Push(x any) { h.ev = append(h.ev, x.(event)) }

func (h *eventHeap) Pop() any {
	old := h.ev
	n := len(old)
	e := old[n-1]
	h.ev = old[:n-1]
	return e
}

// push stamps the event with the next sequence number and enqueues it, or
// refuses an event timed before the barrier being handled.
func (h *eventHeap) push(e event) error {
	if e.at < h.now {
		return fmt.Errorf("engine: %v event for station %d at %v pushed before the barrier at %v", e.kind, e.entity, e.at, h.now)
	}
	e.seq = h.seq
	h.seq++
	heap.Push(h, e)
	return nil
}

// popBarrier removes and returns every event sharing the earliest timestamp —
// one synchronization barrier. The slice is ordered by (entity, seq).
func (h *eventHeap) popBarrier() []event {
	if h.Len() == 0 {
		return nil
	}
	at := h.ev[0].at
	h.now = at
	var batch []event
	for h.Len() > 0 && h.ev[0].at == at {
		batch = append(batch, heap.Pop(h).(event))
	}
	return batch
}
