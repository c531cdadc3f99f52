// Package ad encodes the IEEE 802.11ad beam-training timings and overhead
// models behind the paper's evaluation parameters (§8.1):
//
//   - control-PHY and interframe-space timings, from which the sector level
//     sweep overhead follows;
//   - the two sweep-overhead models the paper instantiates: the O(N)
//     802.11ad procedure with quasi-omni reception (Eqn. 2 of Haider &
//     Knightly's MOCA — ~0.5 ms at 30° beams, ~5 ms at 3°), and the O(N^2)
//     exhaustive directional search (Sur et al., SIGMETRICS'15 — ~150 ms at
//     9° beams, ~250 ms at 7°).
//
// The X60-style simulator in internal/phy keeps its own MCS table (the
// paper's testbed is not 802.11ad); this package is the 802.11ad-side
// reference for the BA overheads the simulator tests and
// examples/beamsearch compare against.
package ad

import (
	"math"
	"time"
)

// Control-PHY and interframe timings (IEEE 802.11ad-2012).
const (
	// ControlPHYRateMbps is the control PHY (MCS 0) rate used by SSW
	// frames.
	ControlPHYRateMbps = 27.5
	// SSWFrameBytes is the sector sweep frame length.
	SSWFrameBytes = 26
	// SBIFS is the short beamforming interframe space.
	SBIFS = 1 * time.Microsecond
	// MBIFS is the medium beamforming interframe space.
	MBIFS = 3 * time.Microsecond
	// ControlPreamble is the control-PHY preamble + header airtime.
	ControlPreamble = 8190 * time.Nanosecond // ~4.65us STF + ~3.55us CE/header
	// AzimuthSpanDeg is the azimuth coverage a device's codebook spans.
	AzimuthSpanDeg = 360.0
)

// SSWFrameTime returns the airtime of one sector sweep frame: preamble plus
// 26 bytes at the control PHY rate. It evaluates to ~15.8 us, the figure
// used throughout the 60 GHz literature.
func SSWFrameTime() time.Duration {
	bits := float64(SSWFrameBytes * 8)
	payloadSec := bits / (ControlPHYRateMbps * 1e6)
	return ControlPreamble + time.Duration(payloadSec*float64(time.Second))
}

// SectorsFor returns the number of sectors a codebook needs to cover the
// azimuth span with the given 3 dB beamwidth.
func SectorsFor(beamwidthDeg float64) int {
	if beamwidthDeg <= 0 {
		return 1
	}
	return int(math.Ceil(AzimuthSpanDeg / beamwidthDeg))
}

// SSWFeedbackTime is the sweep-feedback plus ACK exchange closing an SLS.
const SSWFeedbackTime = 50 * time.Microsecond

// SLSOverhead models the standard O(N) sector level sweep with quasi-omni
// reception (Eqn. 2 of MOCA, as used in §8.1): an initiator sweep and a
// responder sweep of N SSW frames each, plus feedback. With 30° beams
// (today's COTS devices) it lands near 0.5 ms; with the 3° minimum beamwidth
// the standard allows it approaches 5 ms.
func SLSOverhead(beamwidthDeg float64) time.Duration {
	n := time.Duration(SectorsFor(beamwidthDeg))
	perFrame := SSWFrameTime() + SBIFS
	return 2*n*perFrame + 2*MBIFS + SSWFeedbackTime
}

// pairMeasureTime is the per-beam-pair cost of the exhaustive directional
// search: an SSW exchange plus Rx beam switching and settling, calibrated to
// the measured sweep durations of Sur et al. (Fig. 11: ~150 ms at 9°, ~250
// ms at 7°).
const pairMeasureTime = 94 * time.Microsecond

// ExhaustiveOverhead models the O(N^2) search that trains Tx and Rx beams
// jointly with directional reception — the regime the paper uses for its
// 150 ms and 250 ms BA overhead points.
func ExhaustiveOverhead(beamwidthDeg float64) time.Duration {
	n := SectorsFor(beamwidthDeg)
	return time.Duration(n*n) * pairMeasureTime
}
