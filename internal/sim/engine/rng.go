package engine

import (
	"math"

	"github.com/libra-wlan/libra/internal/splitmix"
)

// SplitMix64 streams give every entity its own deterministic randomness. The
// generator is seeded from (scenario seed, entity ID) only, so a station's
// draw sequence is a pure function of the scenario — independent of worker
// count, scheduling and every other entity. All draws happen in the serial
// event-push phase ("drawn pre-dispatch"): handlers receive their random
// values attached to the event and never touch a generator.
type splitMix64 struct{ s uint64 }

// newStream derives the stream for one entity.
func newStream(seed uint64, entity int) *splitMix64 {
	return &splitMix64{s: seed ^ (splitmix.Gamma * (uint64(entity) + 1))}
}

// float64 returns a uniform draw in [0, 1).
func (r *splitMix64) float64() float64 {
	return float64(splitmix.Next(&r.s)>>11) / (1 << 53)
}

// expDraw maps a uniform draw to an exponential variate with the given mean,
// clamped away from zero so event times stay strictly increasing.
func expDraw(u, mean float64) float64 {
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	d := -mean * math.Log(1-u)
	if d < 1e-6 {
		d = 1e-6
	}
	return d
}
