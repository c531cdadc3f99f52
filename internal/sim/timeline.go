package sim

import (
	"context"
	"time"

	"github.com/libra-wlan/libra/internal/channel"
	"github.com/libra-wlan/libra/internal/core"
	"github.com/libra-wlan/libra/internal/dataset"
	"github.com/libra-wlan/libra/internal/phy"
	"github.com/libra-wlan/libra/internal/trace"
)

// RateInterval is a stretch of time at a constant delivery rate; a timeline
// run produces a sequence of them (consumed by the VR player of §8.4).
type RateInterval struct {
	Dur time.Duration
	Bps float64
}

// TimelineResult summarizes one policy run over one timeline.
type TimelineResult struct {
	// Bytes delivered over the whole timeline.
	Bytes float64
	// Breaks is the number of link breaks encountered.
	Breaks int
	// TotalRecoveryDelay sums per-break recovery delays. The paper's
	// Fig. 13 metric is TotalRecoveryDelay / Breaks.
	TotalRecoveryDelay time.Duration
	// Rate is the delivered-rate profile over time.
	Rate []RateInterval
	// Actions records the mechanism executed at each break (BA or RA),
	// in order — the input to the §7 future-work pattern predictor.
	Actions []dataset.Action
}

// MeanRecoveryDelay returns the average per-break recovery delay.
func (r *TimelineResult) MeanRecoveryDelay() time.Duration {
	if r.Breaks == 0 {
		return 0
	}
	return r.TotalRecoveryDelay / time.Duration(r.Breaks)
}

// tlState is the mutable link configuration a policy carries across
// segments.
type tlState struct {
	txBeam, rxBeam int
	mcs            phy.MCS
	// prev is the last observation taken (at bootstrap and after every
	// segment); its snapshot is nil until the first.
	prev observation
}

// observation records where a PHY observation was taken: the frozen
// snapshot, the beam pair and the SNR offset then in force. A Snapshot never
// changes, so materializing the observation later (measureInto) yields the
// bits measuring it at that moment would have, and only a LiBRA break, the
// one reader, pays for the power delay profile.
type observation struct {
	snap           *channel.Snapshot
	txBeam, rxBeam int
	offs           float64
}

// measureInto materializes o into m, reusing m's PDP buffer, with the offset
// applied to the power readings.
func (o *observation) measureInto(m *channel.Measurement) {
	o.snap.MeasureInto(m, o.txBeam, o.rxBeam)
	o.applyOffset(m)
}

// samePHY reports whether o and p observe the same snapshot and beam pair,
// so that their PDPs, ToF and noise are equal and only the offsets differ.
func (o *observation) samePHY(p *observation) bool {
	return o.snap == p.snap && o.txBeam == p.txBeam && o.rxBeam == p.rxBeam
}

// applyOffset shifts a measurement of o's snapshot and pair by o's offset:
// RSS and SNR shift together; noise is unaffected.
func (o *observation) applyOffset(m *channel.Measurement) {
	if o.offs != 0 {
		m.RSSdBm += o.offs
		m.SNRdB += o.offs
	}
}

// tableAt builds the per-MCS expected-throughput table for a beam pair on a
// snapshot, shifting the SNR by offsDB when non-zero (the engine's channel
// for impairment and interference penalties; 0 is an exact no-op).
func tableAt(snap *channel.Snapshot, txBeam, rxBeam int, offsDB float64) thTable {
	return offsetTable(snap.SNRdB(txBeam, rxBeam), offsDB)
}

// offsetTable builds the per-MCS expected-throughput table at a clear SNR
// shifted by offsDB when non-zero.
func offsetTable(snr, offsDB float64) thTable {
	if offsDB != 0 {
		snr += offsDB
	}
	var t thTable
	for m := phy.MinMCS; m <= phy.MaxMCS; m++ {
		t[m] = phy.ExpectedThroughput(m, snr)
	}
	return t
}

// runTimeline drives a LinkSim over the timeline's segments, checking ctx at
// each segment boundary.
func runTimeline(ctx context.Context, tl *trace.Timeline, p Params, pol Policy, clf core.Classifier) (TimelineResult, error) {
	if len(tl.Segments) == 0 {
		return TimelineResult{}, nil
	}
	ls := NewLinkSim(p, pol, clf)
	for _, seg := range tl.Segments {
		if err := ctx.Err(); err != nil {
			return TimelineResult{}, err
		}
		ls.Segment(seg.Snap, seg.Dur)
	}
	return ls.Result(), nil
}

// bestWorking returns the highest-throughput MCS of a table (falling back to
// MinMCS when nothing works).
func bestWorking(t *thTable) (phy.MCS, float64) {
	best, bestTh := phy.MinMCS, 0.0
	for m := phy.MinMCS; m <= phy.MaxMCS; m++ {
		if t[m] > bestTh {
			best, bestTh = m, t[m]
		}
	}
	return best, bestTh
}
