package sim

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/libra-wlan/libra/internal/dataset"
	"github.com/libra-wlan/libra/internal/trace"
)

// fuzzPools is the one set of trace pools FuzzSimRun draws timelines from.
var fuzzPools = sync.OnceValue(func() *trace.Pools { return trace.NewPools(99) })

// FuzzSimRun: Validate refuses a run, or Run completes it with a finite,
// non-negative byte count and recovery delay. The harness hands the three
// Params durations over in raw nanoseconds, capped at ±2 s for FlowDur and
// ±500 ms for the overheads, so 0, 1 ns and negative values all reach
// Validate. The policy and the variant go over raw as well (one value past
// each defined set), with a classifier that always answers the same action
// or none, a failover table or none, and either an entry drawn like
// randomEntry's or a timeline drawn from the trace pools. The seeds under
// testdata/fuzz/FuzzSimRun are libra-sim's -flow 0, -fat 0 and -ba 0 and an
// accepted run of each variant.
func FuzzSimRun(f *testing.F) {
	f.Fuzz(func(t *testing.T, ba, fat, flow int64, policy, variant uint8,
		verdict int8, failover, timeline bool, seed int64) {
		opt := Options{
			Params: Params{
				BAOverhead: time.Duration(ba % int64(500*time.Millisecond+1)),
				FAT:        time.Duration(fat % int64(500*time.Millisecond+1)),
				FlowDur:    time.Duration(flow % int64(2*time.Second+1)),
			},
			Policy:  Policy(policy % uint8(OracleDelay+2)),
			Variant: Variant(variant % uint8(VariantRxInitiated+2)),
		}
		if verdict >= 0 {
			opt.Classifier = fixedClassifier{dataset.Action(verdict % 3)}
		}
		rng := rand.New(rand.NewSource(seed))
		if failover {
			opt.Failover = &randomEntry(rng).InitBeamTh
		}
		var sc Scenario
		if timeline {
			sc.Timeline = fuzzPools().RandomTimeline(trace.Kinds[rng.Intn(len(trace.Kinds))], rng)
		} else {
			sc.Entry = randomEntry(rng)
		}
		if err := Validate(sc, opt); err != nil {
			return
		}
		res, err := Run(context.Background(), sc, opt)
		if err != nil {
			t.Fatalf("Validate accepted the run, Run failed: %v", err)
		}
		bytes, delay := res.Outcome.Bytes, res.Outcome.RecoveryDelay
		if timeline {
			bytes, delay = res.Timeline.Bytes, res.Timeline.TotalRecoveryDelay
		}
		if !(bytes >= 0) || math.IsInf(bytes, 1) {
			t.Fatalf("run delivered %v bytes", bytes)
		}
		if delay < 0 {
			t.Fatalf("run recovered in %v", delay)
		}
	})
}
