package engine

import (
	"context"
	"math"
	"testing"
	"time"

	"github.com/libra-wlan/libra/internal/dataset"
	"github.com/libra-wlan/libra/internal/sim"
)

// FuzzEngineSpec: Build either refuses a Spec, or the Scenario runs soundly:
// Run at 1 and at 2 workers returns one digest, every station delivers a
// finite, non-negative byte count and ends on an AP in range. The harness
// bounds the sizes (1–4 APs, 1–8 stations, at most 200 ms, intervals of at
// least 1 ms) and raises a positive impairment gap under 1 ms to 1 ms, since
// the event count grows as Duration over the gap; every other field goes
// over raw, the durations in nanoseconds and the float fields from their
// bits, so NaN, ±Inf and overflowing means reach validate. The seeds under
// testdata/fuzz/FuzzEngineSpec are smallSpec with DeficitBoundaries -3,
// ImpairMinDB NaN, ImpairMaxDB +Inf, HysteresisDB NaN, ImpairMeanDur -1s,
// ImpairMeanGap 2^62 ns or ImpairMeanDur 2^62 ns, and goldenSpec's shape at
// the harness's station and duration caps.
func FuzzEngineSpec(f *testing.F) {
	policies := []sim.Policy{sim.BAFirst, sim.RAFirst, sim.LiBRA}
	f.Fuzz(func(t *testing.T, aps, stations uint8, durMs int16, intervalMs uint8, seed uint64,
		line bool, policy uint8, demand int8, hysteresis uint64, deficit int8,
		impairGap, impairDur int64, impairMin, impairMax uint64) {
		if 0 < impairGap && impairGap < int64(time.Millisecond) {
			impairGap = int64(time.Millisecond)
		}
		spec := Spec{
			APs:               1 + int(aps%4),
			Stations:          1 + int(stations%8),
			Duration:          time.Duration(durMs%201) * time.Millisecond,
			Interval:          time.Duration(intervalMs) * time.Millisecond,
			Seed:              seed,
			Params:            stdParams(),
			Policy:            policies[int(policy)%len(policies)],
			Classifier:        fixedClf{dataset.ActRA},
			DemandSlots:       int(demand),
			HysteresisDB:      math.Float64frombits(hysteresis),
			DeficitBoundaries: int(deficit),
			ImpairMeanGap:     time.Duration(impairGap),
			ImpairMeanDur:     time.Duration(impairDur),
			ImpairMinDB:       math.Float64frombits(impairMin),
			ImpairMaxDB:       math.Float64frombits(impairMax),
		}
		if line {
			spec.Topology = "line"
		}
		sc, err := Build(spec)
		if err != nil {
			return
		}
		r1, err := New(sc, 1).Run(context.Background())
		if err != nil {
			t.Fatalf("Run at 1 worker: %v", err)
		}
		r2, err := New(sc, 2).Run(context.Background())
		if err != nil {
			t.Fatalf("Run at 2 workers: %v", err)
		}
		if r1.Digest != r2.Digest {
			t.Fatalf("digest %s at 1 worker, %s at 2", r1.Digest, r2.Digest)
		}
		for _, st := range r1.Stations {
			if b := st.Timeline.Bytes; !(b >= 0) || math.IsInf(b, 1) {
				t.Fatalf("station %d delivered %v bytes", st.Station, b)
			}
			if st.AP < 0 || st.AP >= spec.APs {
				t.Fatalf("station %d ends on AP %d of %d", st.Station, st.AP, spec.APs)
			}
		}
	})
}
