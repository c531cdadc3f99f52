// Package phy models the X60 single-carrier PHY layer (paper §4.1): 9 SC
// MCSs with data rates from 300 Mbps to 4.75 Gbps (similar to the 802.11ad
// SC PHY), a TDMA frame of 10 ms divided into 100 slots of 100 us, each slot
// carrying 92 CRC-protected codewords, and an SNR-dependent codeword error
// model from which the codeword delivery ratio (CDR) and MAC throughput are
// derived.
package phy

import (
	"fmt"
	"math"
	"math/rand"
)

// Frame structure constants (X60, §4.1).
const (
	// FrameDuration is the TDMA frame length in seconds (10 ms).
	FrameDuration = 10e-3
	// SlotsPerFrame is the number of slots in a frame.
	SlotsPerFrame = 100
	// SlotDuration is one slot in seconds (100 us).
	SlotDuration = FrameDuration / SlotsPerFrame
	// CodewordsPerSlot is the number of CRC-protected codewords per slot.
	CodewordsPerSlot = 92
	// CodewordsPerFrame is the number of codewords per 10 ms frame.
	CodewordsPerFrame = SlotsPerFrame * CodewordsPerSlot
)

// MCS identifies a modulation and coding scheme, 0..NumMCS-1.
type MCS int

// NumMCS is the number of supported MCSs (9 in X60's reference PHY).
const NumMCS = 9

// mcsInfo describes one MCS.
type mcsInfo struct {
	rateBps float64 // PHY data rate in bits/s
	snrReq  float64 // SNR (dB) at which CDR reaches 50%
	name    string
}

// mcsTable mirrors the X60 reference PHY: rates from 300 Mbps to 4.75 Gbps.
// The SNR requirements are spaced like 802.11ad SC MCS sensitivities
// (roughly 1.5-2.5 dB per step).
var mcsTable = [NumMCS]mcsInfo{
	{300e6, 6.0, "BPSK-1/4"},
	{950e6, 8.5, "BPSK-1/2"},
	{1580e6, 10.5, "BPSK-3/4"},
	{1900e6, 12.5, "QPSK-1/2"},
	{2380e6, 14.5, "QPSK-5/8"},
	{2850e6, 16.5, "QPSK-3/4"},
	{3170e6, 18.5, "16QAM-1/2"},
	{3800e6, 21.0, "16QAM-5/8"},
	{4750e6, 23.5, "16QAM-3/4"},
}

// Valid reports whether m is a defined MCS index.
func (m MCS) Valid() bool { return m >= 0 && m < NumMCS }

// RateBps returns the PHY data rate of m in bits per second.
func (m MCS) RateBps() float64 {
	if !m.Valid() {
		return 0
	}
	return mcsTable[m].rateBps
}

// RateMbps returns the PHY data rate of m in Mbit/s.
func (m MCS) RateMbps() float64 { return m.RateBps() / 1e6 }

// SNRReqDB returns the SNR at which the codeword delivery ratio of m crosses
// 50%.
func (m MCS) SNRReqDB() float64 {
	if !m.Valid() {
		return math.Inf(1)
	}
	return mcsTable[m].snrReq
}

// String returns a human-readable name like "MCS3 (QPSK-1/2, 1900 Mbps)".
func (m MCS) String() string {
	if !m.Valid() {
		return fmt.Sprintf("MCS%d (invalid)", int(m))
	}
	return fmt.Sprintf("MCS%d (%s, %.0f Mbps)", int(m), mcsTable[m].name, m.RateMbps())
}

// MaxMCS and MinMCS bound the MCS range.
const (
	MinMCS MCS = 0
	MaxMCS MCS = NumMCS - 1
)

// MaxRateBps is the PHY rate of the highest MCS (Thmax in the utility
// metric, Eqn. 1).
func MaxRateBps() float64 { return MaxMCS.RateBps() }

// cdrSlope controls how fast CDR transitions from 0 to 1 around the SNR
// requirement. ~1.3 dB from 10% to 90%: 60 GHz links have sharp waterfalls.
const cdrSlope = 3.4

// CDR returns the expected codeword delivery ratio of MCS m at the given
// SNR: a logistic waterfall centered on the MCS's SNR requirement.
func CDR(m MCS, snrDB float64) float64 {
	if !m.Valid() || math.IsInf(snrDB, -1) || math.IsNaN(snrDB) {
		return 0
	}
	return 1 / (1 + math.Exp(-cdrSlope*(snrDB-m.SNRReqDB())))
}

// SampleCDR draws an observed CDR for one frame: the number of delivered
// codewords out of CodewordsPerFrame, binomially distributed around the
// expected CDR. It uses a normal approximation, exact enough at n=9200.
func SampleCDR(m MCS, snrDB float64, rng *rand.Rand) float64 {
	obsCDRSamples.Inc()
	p := CDR(m, snrDB)
	// Below ~1e-5 the expected number of delivered codewords in a frame is
	// well under one: the observation is zero (and symmetrically at the
	// top).
	if p < 1e-5 {
		return 0
	}
	if p > 1-1e-5 {
		return 1
	}
	n := float64(CodewordsPerFrame)
	mean := n * p
	sd := math.Sqrt(n * p * (1 - p))
	k := mean + sd*rng.NormFloat64()
	if k < 0 {
		k = 0
	}
	if k > n {
		k = n
	}
	return k / n
}

// macEfficiency accounts for PHY/MAC header, CRC, and guard overhead.
const macEfficiency = 0.92

// Throughput returns the MAC layer throughput (bits/s) at MCS m given a
// codeword delivery ratio.
func Throughput(m MCS, cdr float64) float64 {
	return m.RateBps() * cdr * macEfficiency
}

// ExpectedThroughput returns the MAC throughput at the expected CDR for the
// given SNR.
func ExpectedThroughput(m MCS, snrDB float64) float64 {
	return Throughput(m, CDR(m, snrDB))
}

// Working MCS thresholds (paper §5.2): CDR > 10% and throughput > 150 Mbps
// (50% of the PHY data rate of the lowest MCS).
const (
	// WorkingMinCDR is the minimum CDR for an MCS to count as working.
	WorkingMinCDR = 0.10
	// WorkingMinThroughputBps is the minimum throughput for an MCS to
	// count as working.
	WorkingMinThroughputBps = 150e6
)

// IsWorking reports whether MCS m is "working" at the given CDR and
// throughput, per the paper's two-condition definition.
func IsWorking(cdr, throughputBps float64) bool {
	return cdr > WorkingMinCDR && throughputBps > WorkingMinThroughputBps
}

// BestMCS returns the MCS with the highest expected throughput at the given
// SNR, along with that throughput. It returns (MinMCS, 0-throughput values)
// when even the lowest MCS delivers nothing.
func BestMCS(snrDB float64) (MCS, float64) {
	best, bestTh := MinMCS, 0.0
	for m := MinMCS; m <= MaxMCS; m++ {
		th := ExpectedThroughput(m, snrDB)
		if th > bestTh {
			best, bestTh = m, th
		}
	}
	return best, bestTh
}

// BestMCSBelow returns the highest-throughput MCS not exceeding limit — the
// RA search space after a link impairment (§5.2: RA "starts at the best
// initial MCS and explores all the MCSs lower than that").
func BestMCSBelow(snrDB float64, limit MCS) (MCS, float64) {
	best, bestTh := MinMCS, 0.0
	for m := MinMCS; m <= limit && m <= MaxMCS; m++ {
		th := ExpectedThroughput(m, snrDB)
		if th > bestTh {
			best, bestTh = m, th
		}
	}
	return best, bestTh
}
