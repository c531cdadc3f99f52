// Package drift computes streaming, windowed distribution-shift statistics
// for the serve fleet's decision stream: per-feature PSI and KS distance
// against a frozen training reference profile, total-variation shift of the
// served action distribution, and accuracy-over-window from delayed
// ground-truth joins.
//
// Everything here is defined over record ORDER and window INDICES: a window
// closes after exactly WindowRecords decision records, statistics are pure
// arithmetic over integer bin counts accumulated in feed order, and the
// ground-truth join keys on (reqID, linkID) identity. Nothing reads a clock
// — the package carries //lint:clockfree and the clocksep analyzer proves
// it — so replaying the same canonically-ordered audit log yields the same
// windows, the same statistics, and the same trips, bit for bit, at any
// worker or shard count. Latency fields on records are ignored; they are
// someone else's wall-clock story.
//
//lint:clockfree drift statistics must replay byte-identically from record order alone
package drift

import (
	"fmt"
	"math"
	"sort"
)

// epsProp floors a bin proportion so PSI's logarithms stay finite when a
// bin is empty on one side.
const epsProp = 1e-6

// A FeatureRef is one feature's frozen training-time distribution: interior
// equal-frequency bin edges plus the reference proportion of training mass
// in each of the len(Edges)+1 bins.
type FeatureRef struct {
	Name  string    `json:"name"`
	Edges []float64 `json:"edges"`
	Props []float64 `json:"props"`
}

// A Profile is the frozen reference emitted at training time and loaded by
// the serve fleet and the offline reporter. Comparing live traffic against
// it is meaningful only while the model trained on it is serving.
type Profile struct {
	// Name identifies the training dataset (e.g. its campaign digest).
	Name string `json:"name"`
	// Features holds one reference per model input, in feature order.
	Features []FeatureRef `json:"features"`
	// Actions is the reference action (class) distribution.
	Actions []float64 `json:"actions"`
}

// propSumTol bounds how far a proportion vector's sum may stray from 1;
// BuildProfile's sums land within a few ulps of it.
const propSumTol = 1e-9

// Validate checks the profile's invariants: at least one feature,
// ascending edges, proportion vectors matching bin counts, and every
// proportion vector a distribution — each entry in [0, 1], the entries
// summing to 1 within propSumTol. Only against distributions does PSI stay
// finite and KS and TV stay at most 1.
func (p *Profile) Validate() error {
	if len(p.Features) == 0 {
		return fmt.Errorf("drift: profile %q has no features", p.Name)
	}
	if len(p.Actions) == 0 {
		return fmt.Errorf("drift: profile %q has no action distribution", p.Name)
	}
	for _, f := range p.Features {
		if len(f.Props) != len(f.Edges)+1 {
			return fmt.Errorf("drift: profile %q feature %q: %d props for %d edges",
				p.Name, f.Name, len(f.Props), len(f.Edges))
		}
		if !sort.Float64sAreSorted(f.Edges) {
			return fmt.Errorf("drift: profile %q feature %q: edges not ascending", p.Name, f.Name)
		}
		if err := checkDistribution(f.Props); err != nil {
			return fmt.Errorf("drift: profile %q feature %q: props %w", p.Name, f.Name, err)
		}
	}
	if err := checkDistribution(p.Actions); err != nil {
		return fmt.Errorf("drift: profile %q: actions %w", p.Name, err)
	}
	return nil
}

// checkDistribution refuses a proportion vector with an entry outside
// [0, 1] (NaN included) or a sum further than propSumTol from 1. The sum
// runs in KS's cumulative order, so KS's reference CDF never exceeds it.
func checkDistribution(props []float64) error {
	var sum float64
	for i, v := range props {
		if !(v >= 0 && v <= 1) {
			return fmt.Errorf("entry %d is %v, outside [0, 1]", i, v)
		}
		sum += v
	}
	if math.Abs(sum-1) > propSumTol {
		return fmt.Errorf("sum to %v, not 1", sum)
	}
	return nil
}

// binOf places v into one of len(edges)+1 bins: the count of edges at or
// below v (values equal to an edge land in the bin above it). The upper-
// bound rule keeps discrete features crisp: with edges {0, 1} the values
// {0, 1, 2} occupy three distinct bins.
func binOf(edges []float64, v float64) int {
	lo, hi := 0, len(edges)
	for lo < hi {
		mid := (lo + hi) / 2
		if edges[mid] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// PSI is the population stability index between a reference and an observed
// proportion vector over the same bins: sum over bins of
// (obs-ref)*ln(obs/ref), with both proportions floored at epsProp. The
// conventional reading: < 0.1 stable, 0.1-0.25 moderate shift, > 0.25
// action required.
func PSI(ref, obs []float64) float64 {
	var s float64
	for i := range ref {
		r := math.Max(ref[i], epsProp)
		o := math.Max(obs[i], epsProp)
		s += (o - r) * math.Log(o/r)
	}
	return s
}

// KS is the Kolmogorov-Smirnov distance between two binned distributions:
// the maximum absolute difference of their cumulative proportions.
func KS(ref, obs []float64) float64 {
	var cr, co, d float64
	for i := range ref {
		cr += ref[i]
		co += obs[i]
		if a := math.Abs(cr - co); a > d {
			d = a
		}
	}
	return d
}

// TV is the total-variation distance between two distributions over the
// same support: half the L1 difference.
func TV(ref, obs []float64) float64 {
	var s float64
	for i := range ref {
		s += math.Abs(ref[i] - obs[i])
	}
	return s / 2
}

// props converts integer bin counts to proportions (zero counts stay zero;
// PSI applies its own floor).
func props(counts []uint64, n uint64) []float64 {
	out := make([]float64, len(counts))
	if n == 0 {
		return out
	}
	for i, c := range counts {
		out[i] = float64(c) / float64(n)
	}
	return out
}

// A WindowStat is one closed window's statistics.
type WindowStat struct {
	// Index is the zero-based window number.
	Index int
	// Records is the number of decision records in the window (the last
	// window of an offline run may be short).
	Records uint64
	// PSIMax is the largest per-feature PSI; PSIFeature names it.
	PSIMax     float64
	PSIFeature string
	// PSIPerFeature holds each feature's PSI in profile feature order.
	PSIPerFeature []float64
	// KSMax is the largest per-feature KS distance.
	KSMax float64
	// ActionTV is the total-variation distance between the window's served
	// action distribution and the profile's reference distribution, padded
	// with a zero for actions the profile lacks: their mass counts as
	// disagreement.
	ActionTV float64
	// UnknownActions counts the window's decisions whose action is beyond
	// the profile's action distribution (an NA decision under a profile
	// listing BA and RA only).
	UnknownActions uint64
	// Joined and Correct count ground-truth joins landed in this window and
	// how many matched the served action; Accuracy is their ratio (NaN-free:
	// zero joins yields 0).
	Joined  uint64
	Correct uint64
	// Tripped reports whether this window crossed the PSI trip threshold.
	Tripped bool
}

// Accuracy returns Correct/Joined, or 0 with no joins.
func (w *WindowStat) Accuracy() float64 {
	if w.Joined == 0 {
		return 0
	}
	return float64(w.Correct) / float64(w.Joined)
}
