// Package cots models the behaviour of commercial off-the-shelf 802.11ad
// devices in the paper's §3 motivation experiments (TP-Link Talon AD7200
// router, Acer laptop, ASUS ROG phone): Tx-sector-only beam training with
// quasi-omni reception, rate adaptation triggered by a missing Block ACK,
// and beam adaptation triggered only when no working MCS can be found.
//
// Two artifacts of real hardware drive the flapping the paper observes:
// noisy single-frame SSW measurements during the sector sweep (so the
// "best" sector varies sweep to sweep) and transient channel fades that push
// RA all the way down and spuriously trigger a sweep. The phone exhibits
// both much more strongly than the AP/laptop chipset.
package cots

import (
	"math/rand"
	"time"

	"github.com/libra-wlan/libra/internal/channel"
	"github.com/libra-wlan/libra/internal/geom"
	"github.com/libra-wlan/libra/internal/phased"
	"github.com/libra-wlan/libra/internal/phy"
)

// FrameTime is the COTS aggregated frame airtime (max 802.11ad FAT).
const FrameTime = 2 * time.Millisecond

// ImplLossDB is the COTS front-end implementation loss. Narrow-band COTS
// 802.11ad chains are considerably cleaner than the X60's wideband SDR
// chain, which compensates for their always-quasi-omni reception.
const ImplLossDB = 12

// Tune applies the COTS link budget to a link. Call it on any link driven
// by a Device.
func Tune(l *channel.Link) { l.ImplLossDB = ImplLossDB }

// NoSector is the sector ID reported when a sweep fails to find any sector
// above the lock threshold (sector ID 255 in the paper's Fig. 2).
const NoSector = 255

// Profile captures chipset-specific instability parameters.
type Profile struct {
	// Name identifies the device ("phone", "ap").
	Name string
	// SLSNoiseDB is the standard deviation of per-sector SSW measurement
	// noise during a sweep.
	SLSNoiseDB float64
	// FadeProb is the per-frame probability of a transient deep fade.
	FadeProb float64
	// FadeDepthDB is the fade attenuation.
	FadeDepthDB float64
	// FadeFrames is the fade burst length in frames.
	FadeFrames int
	// LockThresholdDB is the minimum swept SNR to lock on a sector;
	// below it the device reports NoSector.
	LockThresholdDB float64
}

// PhoneProfile models the ASUS ROG phone: very noisy sweeps, frequent
// transient losses (Fig. 1a: >100 BA triggers in 60 s across 6 sectors).
func PhoneProfile() Profile {
	return Profile{Name: "phone", SLSNoiseDB: 2.2, FadeProb: 0.01, FadeDepthDB: 18, FadeFrames: 6, LockThresholdDB: 4}
}

// APProfile models the Talon AP / Acer laptop chipset: more stable, but
// still unable to hold a single sector (Fig. 1b).
func APProfile() Profile {
	return Profile{Name: "ap", SLSNoiseDB: 0.55, FadeProb: 0.0035, FadeDepthDB: 16, FadeFrames: 8, LockThresholdDB: 4}
}

// SectorSample is one point of a sector-selection timeline.
type SectorSample struct {
	At     time.Duration
	Sector int
}

// RunResult summarizes a COTS run.
type RunResult struct {
	// SectorTimeline records the chosen Tx sector over time (Figs 1a-3a).
	SectorTimeline []SectorSample
	// BATriggers counts sector sweeps performed.
	BATriggers int
	// SectorsUsed is the set of distinct sectors ever selected.
	SectorsUsed map[int]bool
	// ThroughputBps is the average delivered throughput.
	ThroughputBps float64
}

// Device is a COTS transmitter on a link.
type Device struct {
	Link    *channel.Link
	Profile Profile
	Rng     *rand.Rand

	sector    int
	mcs       phy.MCS
	fadeLeft  int
	probeWait int
	sweepWait int
}

// NewDevice creates a COTS transmitter and performs the initial sweep.
func NewDevice(l *channel.Link, prof Profile, rng *rand.Rand) *Device {
	Tune(l)
	d := &Device{Link: l, Profile: prof, Rng: rng}
	d.sweep()
	d.mcs, _ = phy.BestMCS(d.snr())
	return d
}

// snr returns the current directional-Tx quasi-omni-Rx SNR, including any
// active fade.
func (d *Device) snr() float64 {
	if d.sector == NoSector {
		return -40
	}
	s := d.Link.SNRdB(d.sector, phased.QuasiOmniID)
	if d.fadeLeft > 0 {
		s -= d.Profile.FadeDepthDB
	}
	return s
}

// sweep performs a Tx sector level sweep with noisy per-sector SSW
// measurements, as COTS devices do. A sweep performed during a transient
// fade sees the faded channel on every sector and typically fails to lock —
// the device then reports sector 255 until the next sweep (paper Fig. 2).
func (d *Device) sweep() {
	fade := 0.0
	if d.fadeLeft > 0 {
		fade = d.Profile.FadeDepthDB
	}
	best, bestSNR := NoSector, d.Profile.LockThresholdDB
	for s := 0; s < phased.NumBeams; s++ {
		v := d.Link.SNRdB(s, phased.QuasiOmniID) - fade + d.Rng.NormFloat64()*d.Profile.SLSNoiseDB
		if v > bestSNR {
			best, bestSNR = s, v
		}
	}
	d.sector = best
}

// Run simulates dur of traffic. If move is non-nil it is called before every
// frame with the elapsed time so mobility scenarios can displace the
// receiver. baEnabled=false locks the device on the given sector and
// disables sweeps (the paper's "BA disabled" baseline, with the sector
// discovered manually).
func (d *Device) Run(dur time.Duration, move func(time.Duration), baEnabled bool, lockedSector int) RunResult {
	res := RunResult{SectorsUsed: map[int]bool{}}
	if !baEnabled {
		d.sector = lockedSector
	}
	frames := int(dur / FrameTime)
	var bits float64
	for i := 0; i < frames; i++ {
		now := time.Duration(i) * FrameTime
		if move != nil {
			move(now)
		}
		if d.fadeLeft > 0 {
			d.fadeLeft--
		} else if d.Rng.Float64() < d.Profile.FadeProb {
			d.fadeLeft = d.Profile.FadeFrames
		}
		snr := d.snr()
		cdr := phy.SampleCDR(d.mcs, snr, d.Rng)
		th := phy.Throughput(d.mcs, cdr)
		acked := cdr >= 0.01
		bits += th * FrameTime.Seconds()

		if d.sweepWait > 0 {
			d.sweepWait--
		}
		if !acked {
			// Missing Block ACK: walk the MCS down; if already at the
			// bottom, the device concludes no working MCS exists and
			// triggers a sweep (rate-limited by firmware).
			if d.mcs > phy.MinMCS {
				d.mcs--
			} else if baEnabled && d.sweepWait == 0 {
				d.sweep()
				res.BATriggers++
				d.mcs, _ = phy.BestMCS(d.snr())
				d.sweepWait = 50
			}
			d.probeWait = 25
		} else if phy.IsWorking(cdr, th) {
			// Periodically probe one MCS up.
			if d.probeWait > 0 {
				d.probeWait--
			} else if d.mcs < phy.MaxMCS && cdr > 0.95 {
				d.mcs++
				d.probeWait = 10
			}
		} else if baEnabled && d.mcs == phy.MinMCS && d.sweepWait == 0 {
			d.sweep()
			res.BATriggers++
			d.mcs, _ = phy.BestMCS(d.snr())
			d.sweepWait = 50
			d.probeWait = 25
		} else if d.mcs > phy.MinMCS {
			d.mcs--
		}

		if i%5 == 0 {
			res.SectorTimeline = append(res.SectorTimeline, SectorSample{At: now, Sector: d.sector})
		}
		res.SectorsUsed[d.sector] = true
	}
	res.ThroughputBps = bits / dur.Seconds()
	return res
}

// BestLockedSector exhaustively finds the Tx sector with the highest
// noise-free quasi-omni SNR — the "manually discovered" locked sector of
// Figs 1c-3c.
func BestLockedSector(l *channel.Link) int {
	best, _ := l.BestTxQuasiOmni()
	return best
}

// WalkAway returns a move function that displaces the Rx from start away
// from the Tx at speed (m/s) while keeping it facing the Tx (§3 mobility).
func WalkAway(l *channel.Link, start geom.Vec, speed float64) func(time.Duration) {
	return WalkDir(l, start, start.Sub(l.Tx.Pos).Norm(), speed)
}

// WalkDir returns a move function that displaces the Rx from start along an
// arbitrary direction at speed (m/s), always facing the Tx. A direction that
// is not radial from the Tx produces the angular displacement that makes the
// best Tx sector drift over the walk.
func WalkDir(l *channel.Link, start, dir geom.Vec, speed float64) func(time.Duration) {
	dir = dir.Norm()
	var lastStep time.Duration = -1
	return func(t time.Duration) {
		// Quantize motion to 100 ms steps to bound ray-tracer work.
		step := t / (100 * time.Millisecond)
		if step == lastStep {
			return
		}
		lastStep = step
		p := start.Add(dir.Scale(speed * (time.Duration(step) * 100 * time.Millisecond).Seconds()))
		if !l.Env.Contains(p) {
			return
		}
		l.MoveRx(p)
		l.RotateRx(geom.Deg(l.Tx.Pos.Sub(p).Angle()))
	}
}
