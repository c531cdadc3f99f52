package mac

import "github.com/libra-wlan/libra/internal/phy"

// TDMA slot scheduling for a multi-station AP. The X60 MAC divides each
// 10 ms frame into 100 slots (phy.SlotsPerFrame); an AP serving several
// stations grants each an equal share of them. Co-channel APs stagger their
// active windows by an offset so that lightly loaded deployments interleave
// cleanly and heavily loaded ones overlap — the overlap fraction is what the
// discrete-event engine's interference verdicts consume.

// SlotSchedule is one AP's slot allocation for a frame: a contiguous active
// window of Granted slots starting at Offset (mod phy.SlotsPerFrame), divided
// equally among Members stations.
type SlotSchedule struct {
	// Offset is the first active slot index (the AP's stagger position).
	Offset int
	// Granted is the total number of active slots in the window.
	Granted int
	// Members is the number of stations sharing the window.
	Members int
}

// EqualShare allocates a frame among members stations: every slot is granted
// and divided equally, so a station's airtime share is 1/members and a lone
// station owns the whole frame. demandSlots caps the per-station grant —
// SlotsPerFrame means uncapped; smaller values model stations whose offered
// load needs only part of a frame, leaving the tail of the window idle.
func EqualShare(offset, members, demandSlots int) SlotSchedule {
	if members <= 0 {
		return SlotSchedule{Offset: wrapSlot(offset)}
	}
	if demandSlots <= 0 || demandSlots > phy.SlotsPerFrame {
		demandSlots = phy.SlotsPerFrame
	}
	per := phy.SlotsPerFrame / members
	if per > demandSlots {
		per = demandSlots
	}
	if per < 1 {
		per = 1
	}
	granted := per * members
	if granted > phy.SlotsPerFrame {
		granted = phy.SlotsPerFrame
	}
	return SlotSchedule{Offset: wrapSlot(offset), Granted: granted, Members: members}
}

// wrapSlot normalizes a slot index into [0, SlotsPerFrame).
func wrapSlot(s int) int {
	s %= phy.SlotsPerFrame
	if s < 0 {
		s += phy.SlotsPerFrame
	}
	return s
}

// Share returns one station's airtime fraction of the frame. A lone uncapped
// station gets exactly 1. When members outnumber slots the share goes
// fractional — stations are served on alternating frames, which over the
// engine's multi-frame segments averages to the same airtime.
func (s SlotSchedule) Share() float64 {
	if s.Members <= 0 {
		return 0
	}
	return float64(s.Granted) / float64(phy.SlotsPerFrame*s.Members)
}

// Active reports whether the schedule transmits at all.
func (s SlotSchedule) Active() bool { return s.Granted > 0 && s.Members > 0 }

// Overlap returns the fraction of s's active window that falls inside o's
// active window (0 when either is idle). Windows wrap around the frame.
func (s SlotSchedule) Overlap(o SlotSchedule) float64 {
	if !s.Active() || !o.Active() {
		return 0
	}
	common := 0
	for _, iv := range intervals(s) {
		for _, jv := range intervals(o) {
			lo, hi := iv[0], iv[1]
			if jv[0] > lo {
				lo = jv[0]
			}
			if jv[1] < hi {
				hi = jv[1]
			}
			if hi > lo {
				common += hi - lo
			}
		}
	}
	return float64(common) / float64(s.Granted)
}

// intervals expands a (possibly wrapping) active window into one or two
// half-open [start, end) ranges inside the frame.
func intervals(s SlotSchedule) [][2]int {
	end := s.Offset + s.Granted
	if end <= phy.SlotsPerFrame {
		return [][2]int{{s.Offset, end}}
	}
	return [][2]int{{s.Offset, phy.SlotsPerFrame}, {0, end - phy.SlotsPerFrame}}
}
