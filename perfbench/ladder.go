package main

import "math"

// Ladder is a fixed geometric rate ladder: rung k offers Base*Step^k
// requests per second. Step is at most 1.05, so a result that flips to the
// neighbouring rung moves by at most 5%.
type Ladder struct {
	Base  float64
	Step  float64
	Rungs int
}

// Rate returns rung k's offered rate.
func (l Ladder) Rate(k int) float64 { return l.Base * math.Pow(l.Step, float64(k)) }

// highestPassing bisects the ladder for the highest rung on which pass
// holds, assuming pass is monotone (true below capacity, false above). It
// returns -1 when even rung 0 fails, and the rungs it probed, in order.
func (l Ladder) highestPassing(pass func(k int) bool) (best int, probed []int) {
	lo, hi := -1, l.Rungs // lo passes (or is the virtual rung -1), hi fails
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		probed = append(probed, mid)
		if pass(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, probed
}

// probes is how many rungs a bisection of the ladder visits at most.
func (l Ladder) probes() int {
	return int(math.Ceil(math.Log2(float64(l.Rungs + 1))))
}
