// Package mac provides the TDMA MAC layer abstraction on top of the channel
// and PHY simulators: per-frame transmission at a chosen MCS and beam pair,
// Block-ACK feedback, and the per-frame PHY trace records (SNR, noise, ToF,
// PDP, CDR) that the X60 testbed logs for every frame (§5.1) and that LiBRA's
// classifier consumes.
//
// The X60 frame resembles an 802.11 aggregated frame (AMPDU): it carries many
// independently CRC-protected codewords, so a frame can be partially
// delivered. The Block ACK is modeled as missing when (almost) no codeword
// got through, which is the trigger condition COTS rate adaptation reacts to.
package mac

import (
	"math/rand"

	"github.com/libra-wlan/libra/internal/channel"
	"github.com/libra-wlan/libra/internal/obs"
	"github.com/libra-wlan/libra/internal/phy"
)

// ackMinCDR is the minimum codeword delivery ratio for the Block ACK itself
// to come back. Below it the transmitter observes a missing ACK.
const ackMinCDR = 0.01

// FrameRecord is the per-frame log record: what the transmitter learns from
// one frame exchange (PHY metrics are fed back on the ACK, exploiting
// channel reciprocity, §7).
type FrameRecord struct {
	// Seq is the frame sequence number.
	Seq int
	// MCS is the modulation and coding scheme used.
	MCS phy.MCS
	// TxBeam, RxBeam are the beam (sector) IDs used.
	TxBeam, RxBeam int
	// SNRdB, NoiseDBm, ToFNs are the PHY metrics at the receiver.
	SNRdB, NoiseDBm, ToFNs float64
	// PDP is the power delay profile observed for this frame.
	PDP []float64
	// CDR is the observed codeword delivery ratio for this frame.
	CDR float64
	// DeliveredBits is the number of MAC payload bits delivered.
	DeliveredBits float64
	// ACKed reports whether the Block ACK was received. When false the
	// transmitter gets none of the PHY metrics for this frame.
	ACKed bool
}

// ThroughputBps returns the frame's delivered throughput in bits/s.
func (r *FrameRecord) ThroughputBps() float64 {
	return r.DeliveredBits / phy.FrameDuration
}

// Station is a transmitter driving one 60 GHz link. It owns the current MCS
// and beam-pair selection and issues frames.
type Station struct {
	// Link is the underlying simulated channel.
	Link *channel.Link
	// Rng drives the stochastic codeword error process and PHY metric
	// measurement noise.
	Rng *rand.Rand

	// TxBeam, RxBeam are the active beam pair.
	TxBeam, RxBeam int
	// MCS is the active modulation and coding scheme.
	MCS phy.MCS

	// SNRJitterDB is the standard deviation of per-frame SNR measurement
	// noise (real hardware never reports perfectly stable SNR).
	SNRJitterDB float64
	// NoiseJitterDB is the standard deviation of per-frame noise-level
	// measurement noise; the paper notes X60's noise readings span a
	// large range even without interference (§6.2).
	NoiseJitterDB float64

	// Trace, when non-nil, receives simulation-time events for notable
	// frames (missing Block ACK, codeword error bursts), stamped with the
	// frame sequence number — never wall time.
	Trace *obs.Stream

	seq int
}

// NewStation creates a station with typical measurement-noise settings.
func NewStation(l *channel.Link, rng *rand.Rand) *Station {
	return &Station{
		Link:          l,
		Rng:           rng,
		MCS:           phy.MinMCS,
		SNRJitterDB:   0.6,
		NoiseJitterDB: 1.2,
	}
}

// SendFrame transmits one TDMA frame at the station's current MCS and beam
// pair and returns the resulting record.
func (s *Station) SendFrame() FrameRecord {
	m := s.Link.Measure(s.TxBeam, s.RxBeam)
	snr := m.SNRdB + s.Rng.NormFloat64()*s.SNRJitterDB
	noise := m.NoiseDBm + s.Rng.NormFloat64()*s.NoiseJitterDB
	cdr := phy.SampleCDR(s.MCS, snr, s.Rng)
	rec := FrameRecord{
		Seq:           s.seq,
		MCS:           s.MCS,
		TxBeam:        s.TxBeam,
		RxBeam:        s.RxBeam,
		SNRdB:         snr,
		NoiseDBm:      noise,
		ToFNs:         m.ToFNs,
		PDP:           m.PDP,
		CDR:           cdr,
		DeliveredBits: phy.Throughput(s.MCS, cdr) * phy.FrameDuration,
		ACKed:         cdr >= ackMinCDR,
	}
	obsFrames.Inc()
	if !rec.ACKed {
		obsNoACK.Inc()
	}
	if cdr < cwBurstMaxCDR {
		obsCwBursts.Inc()
	}
	if s.Trace.Enabled() {
		t := obs.SimTime{Frame: int64(rec.Seq)}
		if !rec.ACKed {
			s.Trace.Event(t, "no_ack",
				obs.Fint("mcs", int64(rec.MCS)), obs.Ffloat("cdr", cdr))
		} else if cdr < cwBurstMaxCDR {
			s.Trace.Event(t, "cw_burst",
				obs.Fint("mcs", int64(rec.MCS)), obs.Ffloat("cdr", cdr),
				obs.Ffloat("snr_db", snr))
		}
	}
	s.seq++
	return rec
}

// ProbeMCS transmits a single frame at MCS m without changing the station's
// configured MCS — the one-AMPDU-per-MCS probe used during rate search.
func (s *Station) ProbeMCS(m phy.MCS) FrameRecord {
	old := s.MCS
	s.MCS = m
	rec := s.SendFrame()
	s.MCS = old
	return rec
}

// AvgCDR returns the mean codeword delivery ratio over a frame batch.
func AvgCDR(recs []FrameRecord) float64 {
	if len(recs) == 0 {
		return 0
	}
	var c float64
	for _, r := range recs {
		c += r.CDR
	}
	return c / float64(len(recs))
}
