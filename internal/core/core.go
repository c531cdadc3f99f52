// Package core implements LiBRA itself (paper §7, Algorithm 1): a practical,
// standard-compliant, learning-based link adaptation framework that uses PHY
// layer information fed back on 802.11 ACKs to decide (i) when to trigger
// link adaptation and (ii) which mechanism — beam adaptation (BA) or rate
// adaptation (RA) — to trigger first.
//
// The decision core is a 3-class classifier (BA / RA / NA) over the 7 PHY
// metrics of §6.1, evaluated every two frames on two consecutive observation
// windows. When the ACK is missing (no metrics available), LiBRA falls back
// to the empirical rule of §7: trigger BA first when the current MCS is below
// 6 (92% correct on the training data) or when the BA overhead is low, and RA
// first otherwise.
package core

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"github.com/libra-wlan/libra/internal/dataset"
	"github.com/libra-wlan/libra/internal/ml"
	"github.com/libra-wlan/libra/internal/phy"
)

// Config holds the protocol parameters of a LiBRA deployment (§8.1).
type Config struct {
	// Alpha weighs throughput against link recovery delay in the utility
	// metric (Eqn. 1). The paper uses 0.7 for low BA overheads and 0.5
	// for high ones.
	Alpha float64
	// BAOverhead is the airtime of one beam adaptation (SLS) run.
	BAOverhead time.Duration
	// FAT is the maximum frame aggregation time: the airtime of one RA
	// probe frame (2 ms in 802.11ad, 10 ms in 802.11ac and X60).
	FAT time.Duration
	// BAOverheadThreshold is the "few ms" bound of §7's missing-ACK rule:
	// with MCS >= 6, BA is triggered first only when BAOverhead is below
	// this threshold.
	BAOverheadThreshold time.Duration
	// ProbeInterval is T0, the minimum up-probing interval in frames.
	ProbeInterval int
	// MissingACKMCS is the MCS below which a missing ACK always triggers
	// BA first (6 in §7: BA is correct 92% of the time there).
	MissingACKMCS phy.MCS
}

// DefaultConfig returns the paper's default parameterization.
func DefaultConfig() Config {
	return Config{
		Alpha:               0.7,
		BAOverhead:          5 * time.Millisecond,
		FAT:                 2 * time.Millisecond,
		BAOverheadThreshold: 10 * time.Millisecond,
		ProbeInterval:       5,
		MissingACKMCS:       6,
	}
}

// AlphaFor returns the α the paper pairs with a BA overhead: 0.7 when the
// overhead is a few ms (weight throughput), 0.5 when it is large (weight
// delay).
func AlphaFor(baOverhead time.Duration) float64 {
	if baOverhead <= 10*time.Millisecond {
		return 0.7
	}
	return 0.5
}

// Dmax returns the worst-case link recovery delay of §5.2: RA probes all
// MCSs, fails, performs BA, then probes all MCSs again.
func Dmax(cfg Config) time.Duration {
	return 2*time.Duration(phy.NumMCS)*cfg.FAT + cfg.BAOverhead
}

// Utility evaluates the paper's utility metric (Eqn. 1):
// U = α·Th/Thmax + (1-α)·(1 - D/Dmax).
func Utility(thBps float64, delay time.Duration, cfg Config) float64 {
	dmax := Dmax(cfg)
	d := delay
	if d > dmax {
		d = dmax
	}
	return cfg.Alpha*thBps/phy.MaxRateBps() +
		(1-cfg.Alpha)*(1-float64(d)/float64(dmax))
}

// Classifier maps a 7-feature PHY observation to an adaptation action.
type Classifier interface {
	// Classify returns the action for a feature vector in dataset order.
	Classify(features []float64) dataset.Action
	// Name identifies the classifier.
	Name() string
}

// MLClassifier adapts any ml.Classifier (trained with dataset labels:
// BA=0, RA=1, NA=2) to the Classifier interface.
type MLClassifier struct {
	Model ml.Classifier
}

// Classify implements Classifier.
func (c *MLClassifier) Classify(features []float64) dataset.Action {
	return dataset.Action(c.Model.Predict(features))
}

// Name implements Classifier.
func (c *MLClassifier) Name() string { return c.Model.Name() }

// TrainDefaultClassifier trains the paper's production model: a 3-class
// random forest on the given campaign (§7: "We thus use this 3-class model
// in the design of LiBRA").
func TrainDefaultClassifier(camp *dataset.Campaign, seed int64) (*MLClassifier, error) {
	rf := &ml.RandomForest{NumTrees: 80, MaxDepth: 12, Seed: seed}
	if err := rf.Fit(camp.ToML(true)); err != nil {
		return nil, fmt.Errorf("core: training classifier: %w", err)
	}
	return &MLClassifier{Model: rf}, nil
}

// RuleClassifier is a deterministic fallback used when no trained model is
// available: it encodes the paper's observed single-metric thresholds
// (SNR drop > 7 dB -> BA in displacement, §6.1.1) plus the tie default.
// It exists mainly for tests and as an ablation baseline.
type RuleClassifier struct{}

// Classify implements Classifier.
func (RuleClassifier) Classify(f []float64) dataset.Action {
	snrDrop, tof, cdr := f[0], f[1], f[5]
	switch {
	case snrDrop < 1.5 && cdr > 0.5:
		return dataset.ActNA
	case snrDrop > 7 || tof >= dataset.ToFInfCode:
		return dataset.ActBA
	case tof < 0:
		return dataset.ActRA
	default:
		return dataset.ActBA
	}
}

// Name implements Classifier.
func (RuleClassifier) Name() string { return "rule-thresholds" }

// MissingACKAction applies §7's missing-ACK rule: the classifier cannot run
// (no PHY feedback), so decide from the current MCS and the BA overhead.
func MissingACKAction(currMCS phy.MCS, cfg Config) dataset.Action {
	if currMCS < cfg.MissingACKMCS || cfg.BAOverhead < cfg.BAOverheadThreshold {
		return dataset.ActBA
	}
	return dataset.ActRA
}

// CDRORI returns the up-probing threshold on the current CDR above which the
// next higher MCS could yield more throughput (following the opportunistic
// rate increase rule of Wong et al., used by LiBRA's RA in §7): probing m+1
// pays off only if the current CDR exceeds rate(m)/rate(m+1).
func CDRORI(m phy.MCS) float64 {
	if m >= phy.MaxMCS {
		return 2 // unreachable: never probe beyond the top MCS
	}
	return m.RateBps() / (m + 1).RateBps()
}

// ProbeBackoff returns the adaptive probing interval T = T0·min(2^k, 25) of
// §7 (in frames), where k counts consecutive failed probes.
func ProbeBackoff(t0, k int) int {
	mult := 1
	for i := 0; i < k && mult < 25; i++ {
		mult *= 2
	}
	if mult > 25 {
		mult = 25
	}
	return t0 * mult
}

// Model persistence format. A serialized classifier is a one-line ASCII
// header followed by the model body:
//
//	libra-model v2 random-forest\n
//	{...forest JSON (ml.RandomForest.WriteJSON)...}
//
// The header makes the artifact self-describing: loaders can sniff the
// format without parsing JSON, reject incompatible versions with a clear
// error, and route future model families to their own decoders. Version 1
// is the historical headerless format (bare forest JSON); LoadClassifier
// still accepts it.
const (
	// ModelMagic is the first token of every headered model file.
	ModelMagic = "libra-model"
	// ModelFormatVersion is the current on-disk format version.
	ModelFormatVersion = 2
)

// modelFamilyForest is the only model family serialized today.
const modelFamilyForest = "random-forest"

// SaveClassifier serializes a trained MLClassifier whose model is a random
// forest — the artifact a vendor ships in firmware (§7's offline-training
// deployment story) and the file libra-serve loads. The output is
// serialization-stable: saving a loaded model reproduces the input bytes.
func SaveClassifier(c *MLClassifier, w io.Writer) error {
	rf, ok := c.Model.(*ml.RandomForest)
	if !ok {
		return fmt.Errorf("core: only random-forest classifiers serialize (got %s)", c.Name())
	}
	if _, err := fmt.Fprintf(w, "%s v%d %s\n", ModelMagic, ModelFormatVersion, modelFamilyForest); err != nil {
		return fmt.Errorf("core: writing model header: %w", err)
	}
	return rf.WriteJSON(w)
}

// LoadClassifier deserializes a classifier written by SaveClassifier. Both
// the current headered format and the legacy headerless v1 format (bare
// forest JSON) are accepted.
func LoadClassifier(r io.Reader) (*MLClassifier, error) {
	br := bufio.NewReader(r)
	peek, err := br.Peek(len(ModelMagic))
	if err == nil && string(peek) == ModelMagic {
		line, err := br.ReadString('\n')
		if err != nil {
			return nil, fmt.Errorf("core: reading model header: %w", err)
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return nil, fmt.Errorf("core: malformed model header %q", strings.TrimSpace(line))
		}
		version, err := strconv.Atoi(strings.TrimPrefix(fields[1], "v"))
		if err != nil || !strings.HasPrefix(fields[1], "v") {
			return nil, fmt.Errorf("core: malformed model version %q", fields[1])
		}
		if version > ModelFormatVersion {
			return nil, fmt.Errorf("core: model format v%d is newer than this build supports (v%d)", version, ModelFormatVersion)
		}
		if fields[2] != modelFamilyForest {
			return nil, fmt.Errorf("core: unsupported model family %q", fields[2])
		}
	}
	rf, err := ml.ReadForestJSON(br, dataset.NumFeatures)
	if err != nil {
		return nil, fmt.Errorf("core: loading classifier: %w", err)
	}
	return &MLClassifier{Model: rf}, nil
}
