package core

import (
	"math"
	"time"

	"github.com/libra-wlan/libra/internal/adapt"
	"github.com/libra-wlan/libra/internal/channel"
	"github.com/libra-wlan/libra/internal/dataset"
	"github.com/libra-wlan/libra/internal/mac"
	"github.com/libra-wlan/libra/internal/phy"
	"github.com/libra-wlan/libra/internal/predict"
)

// Controller is the online LiBRA state machine of Algorithm 1, driving a MAC
// station frame by frame: it keeps the current MCS and beam pair, runs the
// classifier every DecisionWindow frames on two consecutive observation
// windows, repairs the link with RA and/or BA, and opportunistically probes
// higher MCSs with the adaptive interval T = T0·min(2^k, 25).
type Controller struct {
	// Station is the MAC transmitter the controller drives.
	Station *mac.Station
	// Cfg holds protocol parameters.
	Cfg Config
	// Clf is the 3-class BA/RA/NA classifier.
	Clf Classifier
	// BA is the beam-training algorithm (StandardSLS by default).
	BA adapt.BeamAdapter
	// RA is the rate-search algorithm (ProbeDownRA by default).
	RA adapt.RateAdapter
	// DecisionWindow is the number of frames per observation window (2 in
	// X60: decisions every 20 ms, §7).
	DecisionWindow int
	// Predictor, when non-nil, enables the §7 future-work extension: the
	// controller records the mechanism used at every repair, and when an
	// ACK goes missing (the Tx is blind) a confident learned pattern
	// overrides the coarse missing-ACK rule.
	Predictor *predict.MarkovPredictor
	// PredictorConfidence is the minimum confidence for the override
	// (default 0.8 when zero).
	PredictorConfidence float64

	// Statistics.
	Decisions      map[dataset.Action]int
	BARuns, RARuns int
	RecoveryDelays []time.Duration

	frameID   int
	probeT    int // frames remaining until the next up-probe
	probeK    int // consecutive failed probes
	probing   bool
	prevTput  float64
	prevMeas  channel.Measurement
	prevValid bool
	curWindow []mac.FrameRecord
}

// NewController assembles a controller with the paper's defaults.
func NewController(st *mac.Station, clf Classifier, cfg Config) *Controller {
	return &Controller{
		Station:        st,
		Cfg:            cfg,
		Clf:            clf,
		BA:             adapt.StandardSLS{},
		RA:             adapt.ProbeDownRA{},
		DecisionWindow: 2,
		Decisions:      map[dataset.Action]int{},
		probeT:         cfg.ProbeInterval,
	}
}

// Bootstrap performs the initial beam training and rate search that
// establish the link before data flows.
func (c *Controller) Bootstrap() {
	res := c.BA.Adapt(c.Station.Link)
	c.Station.TxBeam, c.Station.RxBeam = res.TxBeam, res.RxBeam
	best, _ := phy.BestMCS(res.SNRdB)
	c.Station.MCS = best
	ra := c.RA.Adapt(c.Station, best)
	if !ra.Working {
		c.Station.MCS = phy.MinMCS
	}
}

// Step transmits one frame and runs selectAction (Algorithm 1). It returns
// the frame record.
func (c *Controller) Step() mac.FrameRecord {
	rec := c.Station.SendFrame()
	c.frameID++
	c.curWindow = append(c.curWindow, rec)
	c.selectAction(rec)
	return rec
}

// Run executes n frames and returns the total delivered bits.
//
//lint:ignore deadexport the README quickstart drives a Controller with it
func (c *Controller) Run(n int) float64 {
	var bits float64
	for i := 0; i < n; i++ {
		bits += c.Step().DeliveredBits
	}
	return bits
}

// selectAction is the per-frame decision procedure of Algorithm 1.
func (c *Controller) selectAction(rec mac.FrameRecord) {
	// A probe frame outcome is evaluated first.
	if c.probing {
		tput := rec.ThroughputBps()
		if !rec.ACKed || tput < c.prevTput {
			// Failed probe: back off and return to the previous MCS.
			c.probeK++
			if c.Station.MCS > phy.MinMCS {
				c.Station.MCS--
			}
		} else {
			c.probeK = 0
		}
		c.probeT = ProbeBackoff(c.Cfg.ProbeInterval, c.probeK)
		c.probing = false
		return
	}
	if c.probeT > 0 {
		c.probeT--
	}

	if !rec.ACKed {
		// Missing ACK: the channel has collapsed and no metrics came
		// back. A confidently learned link pattern overrides the coarse
		// §7 rule; otherwise the rule applies.
		action := MissingACKAction(c.Station.MCS, c.Cfg)
		if c.Predictor != nil {
			conf := c.PredictorConfidence
			if conf == 0 {
				conf = 0.8
			}
			if pred, pc := c.Predictor.Predict(); pc >= conf && pred != dataset.ActNA {
				action = pred
			}
		}
		c.repair(action)
		c.resetWindows()
		return
	}

	// Classifier runs once per observation window.
	if c.frameID%c.DecisionWindow != 0 || len(c.curWindow) < c.DecisionWindow {
		c.maybeProbeUp(rec)
		return
	}
	meas := windowAverage(c.curWindow)
	cdr := mac.AvgCDR(c.curWindow)
	c.curWindow = c.curWindow[:0]
	if !c.prevValid {
		c.prevMeas, c.prevValid = meas, true
		c.maybeProbeUp(rec)
		return
	}
	features := dataset.FeaturizeObserved(c.prevMeas, meas, cdr, c.Station.MCS)
	action := c.Clf.Classify(features[:])
	c.Decisions[action]++
	if action != dataset.ActNA {
		c.repair(action)
		c.resetWindows()
		return
	}
	c.prevMeas = meas
	c.maybeProbeUp(rec)
}

// repair performs the selected adaptation: RA alone, or BA followed by RA
// (§5.2: BA is always followed by RA). It records the recovery delay charged
// by the configured overheads.
func (c *Controller) repair(action dataset.Action) {
	var delay time.Duration
	start := c.Station.MCS
	if action == dataset.ActBA {
		res := c.BA.Adapt(c.Station.Link)
		c.Station.TxBeam, c.Station.RxBeam = res.TxBeam, res.RxBeam
		c.BARuns++
		delay += c.Cfg.BAOverhead
	} else if start > phy.MinMCS {
		start--
	}
	ra := c.RA.Adapt(c.Station, start)
	c.RARuns++
	delay += time.Duration(ra.FramesProbed) * c.Cfg.FAT
	if !ra.Working && action != dataset.ActBA {
		// RA alone failed: BA, then another RA round (Algorithm 1).
		res := c.BA.Adapt(c.Station.Link)
		c.Station.TxBeam, c.Station.RxBeam = res.TxBeam, res.RxBeam
		c.BARuns++
		delay += c.Cfg.BAOverhead
		ra = c.RA.Adapt(c.Station, c.Station.MCS)
		c.RARuns++
		delay += time.Duration(ra.FramesProbed) * c.Cfg.FAT
	}
	c.RecoveryDelays = append(c.RecoveryDelays, delay)
	c.probeT = ProbeBackoff(c.Cfg.ProbeInterval, 0)
	c.probeK = 0
	if c.Predictor != nil {
		c.Predictor.Observe(action)
	}
}

// maybeProbeUp opportunistically probes the next higher MCS when the
// interval expired and the CDR clears the opportunistic-rate-increase
// threshold.
func (c *Controller) maybeProbeUp(rec mac.FrameRecord) {
	if c.probeT > 0 || c.Station.MCS >= phy.MaxMCS {
		return
	}
	if rec.CDR > CDRORI(c.Station.MCS) {
		c.prevTput = rec.ThroughputBps()
		c.Station.MCS++
		c.probing = true
	} else {
		c.probeT = ProbeBackoff(c.Cfg.ProbeInterval, c.probeK)
	}
}

// resetWindows clears observation state after an adaptation.
func (c *Controller) resetWindows() {
	c.curWindow = c.curWindow[:0]
	c.prevValid = false
	c.prevTput = 0
}

// windowAverage aggregates frame records into one Measurement.
func windowAverage(recs []mac.FrameRecord) channel.Measurement {
	var m channel.Measurement
	if len(recs) == 0 {
		return m
	}
	var snr, noise float64
	for _, r := range recs {
		snr += r.SNRdB
		noise += r.NoiseDBm
	}
	n := float64(len(recs))
	m.SNRdB = snr / n
	m.NoiseDBm = noise / n
	last := recs[len(recs)-1]
	m.ToFNs = last.ToFNs
	m.PDP = last.PDP
	if m.ToFNs == 0 {
		m.ToFNs = math.Inf(1)
	}
	return m
}

// MeanRecoveryDelay returns the mean of recorded link recovery delays.
func (c *Controller) MeanRecoveryDelay() time.Duration {
	if len(c.RecoveryDelays) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range c.RecoveryDelays {
		sum += d
	}
	return sum / time.Duration(len(c.RecoveryDelays))
}
