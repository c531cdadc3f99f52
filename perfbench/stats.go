package main

import (
	"math"
	"sort"
	"time"
)

// tailPercentiles are the candidates for a timing's reported tail, highest
// first. The reported tail is the highest one that still has at least
// minBeyond samples above it, so a short run never pretends to a p99.9 it
// cannot resolve.
var tailPercentiles = []float64{99.99, 99.9, 99, 95, 90, 75}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// rankIndex is the nearest-rank index of percentile p in n sorted samples.
func rankIndex(p float64, n int) int {
	// p*n/100 is exact for integral p; the epsilon keeps p99.9-style
	// products from rounding up past an exact rank.
	i := int(math.Ceil(p*float64(n)/100-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i > n-1 {
		i = n - 1
	}
	return i
}

// tailPercentile picks the highest percentile of n samples with at least
// minBeyond samples strictly beyond its rank. ok is false when n is too small
// for any candidate (fewer than 4*minBeyond samples).
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailPercentiles {
		if n-1-rankIndex(p, n) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// Timing summarizes one set of duration samples the way every timing in the
// benchmark is reported: a median, the highest percentile with minBeyond
// samples beyond it, and the sample count.
type Timing struct {
	N      int     `json:"n"`
	P50ms  float64 `json:"p50_ms"`
	TailP  float64 `json:"tail_percentile,omitempty"`
	TailMs float64 `json:"tail_ms,omitempty"`
	MaxMs  float64 `json:"max_ms"`
	MeanMs float64 `json:"mean_ms"`
}

// summarize sorts samples in place and reports them.
func summarize(samples []time.Duration) Timing {
	if len(samples) == 0 {
		return Timing{}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	var sum time.Duration
	for _, d := range samples {
		sum += d
	}
	t := Timing{
		N:      len(samples),
		P50ms:  ms(median(samples)),
		MaxMs:  ms(samples[len(samples)-1]),
		MeanMs: ms(sum) / float64(len(samples)),
	}
	if p, ok := tailPercentile(len(samples)); ok {
		t.TailP, t.TailMs = p, ms(samples[rankIndex(p, len(samples))])
	}
	return t
}

// median of sorted durations (mean of the middle pair for even n).
func median(sorted []time.Duration) time.Duration {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// medianFloat returns the median of xs without modifying it.
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentileSorted returns percentile p of already-sorted durations by
// nearest rank.
func percentileSorted(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankIndex(p, len(sorted))]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
