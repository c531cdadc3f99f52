package sim

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/libra-wlan/libra/internal/dataset"
	"github.com/libra-wlan/libra/internal/trace"
)

func testPools(t *testing.T) *trace.Pools {
	t.Helper()
	return trace.NewPools(99)
}

// timelineRun replays one timeline through Run, failing the test on an
// error.
func timelineRun(t testing.TB, tl *trace.Timeline, opt Options) TimelineResult {
	t.Helper()
	res, err := Run(context.Background(), Scenario{Timeline: tl}, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res.Timeline
}

func TestTimelineBytesMatchRateProfile(t *testing.T) {
	pools := testPools(t)
	rng := rand.New(rand.NewSource(1))
	tl := pools.RandomTimeline(trace.Mixed, rng)
	res := timelineRun(t, tl, Options{Params: stdParams(), Policy: BAFirst})
	var bytes float64
	var dur time.Duration
	for _, iv := range res.Rate {
		bytes += iv.Bps * iv.Dur.Seconds() / 8
		dur += iv.Dur
	}
	if math.Abs(bytes-res.Bytes) > 1 {
		t.Errorf("profile bytes %v vs result %v", bytes, res.Bytes)
	}
	// The rate profile covers the timeline duration.
	if d := tl.Duration(); dur < d-time.Millisecond || dur > d+time.Millisecond {
		t.Errorf("profile duration %v vs timeline %v", dur, d)
	}
}

func TestTimelineBreaksCounted(t *testing.T) {
	pools := testPools(t)
	rng := rand.New(rand.NewSource(2))
	tl := pools.RandomTimeline(trace.Blockage, rng)
	res := timelineRun(t, tl, Options{Params: stdParams(), Policy: BAFirst})
	// Alternating clear/blocked segments must break the link repeatedly.
	if res.Breaks < 2 {
		t.Errorf("breaks = %d on a blockage timeline", res.Breaks)
	}
	if res.Breaks > 0 && res.TotalRecoveryDelay <= 0 {
		t.Error("breaks recorded but no recovery delay")
	}
	if res.MeanRecoveryDelay() <= 0 {
		t.Error("mean recovery delay not positive")
	}
}

func TestTimelinePoliciesDiffer(t *testing.T) {
	pools := testPools(t)
	rng := rand.New(rand.NewSource(3))
	p := Params{BAOverhead: 250 * time.Millisecond, FAT: 2 * time.Millisecond}
	var baDelay, raDelay time.Duration
	for i := 0; i < 10; i++ {
		tl := pools.RandomTimeline(trace.Blockage, rng)
		baDelay += timelineRun(t, tl, Options{Params: p, Policy: BAFirst}).TotalRecoveryDelay
		raDelay += timelineRun(t, tl, Options{Params: p, Policy: RAFirst}).TotalRecoveryDelay
	}
	// With 250 ms sweeps, BA First must pay far more recovery delay than
	// RA First when RA alone can restore the link... but under full
	// blockage RA fails and pays both. Either way the totals must differ.
	if baDelay == raDelay {
		t.Error("policies produced identical delays across 10 timelines")
	}
}

func TestTimelineOracleChoosesBetter(t *testing.T) {
	pools := testPools(t)
	rng := rand.New(rand.NewSource(4))
	p := stdParams()
	for i := 0; i < 5; i++ {
		tl := pools.RandomTimeline(trace.Interference, rng)
		oracle := timelineRun(t, tl, Options{Params: p, Policy: OracleData})
		ba := timelineRun(t, tl, Options{Params: p, Policy: BAFirst})
		ra := timelineRun(t, tl, Options{Params: p, Policy: RAFirst})
		best := math.Max(ba.Bytes, ra.Bytes)
		// The greedy per-break oracle is not globally optimal, but it must
		// land in the neighborhood of the better fixed policy.
		if oracle.Bytes < 0.95*best {
			t.Errorf("timeline %d: oracle %v far below best policy %v", i, oracle.Bytes, best)
		}
	}
}

func TestTimelineLiBRAUsesClassifier(t *testing.T) {
	pools := testPools(t)
	rng := rand.New(rand.NewSource(5))
	tl := pools.RandomTimeline(trace.Blockage, rng)
	p := stdParams()
	ba := timelineRun(t, tl, Options{Params: p, Policy: LiBRA, Classifier: fixedClassifier{dataset.ActBA}})
	want := timelineRun(t, tl, Options{Params: p, Policy: BAFirst})
	if math.Abs(ba.Bytes-want.Bytes) > 1 {
		t.Error("LiBRA with a BA-always classifier differs from BA First")
	}
}

func TestTimelineEmpty(t *testing.T) {
	res := timelineRun(t, &trace.Timeline{}, Options{Params: stdParams(), Policy: BAFirst})
	if res.Bytes != 0 || res.Breaks != 0 {
		t.Error("empty timeline produced output")
	}
	if res.MeanRecoveryDelay() != 0 {
		t.Error("empty timeline mean delay")
	}
}

func TestTimelineNonNegativeRates(t *testing.T) {
	pools := testPools(t)
	rng := rand.New(rand.NewSource(6))
	for _, kind := range trace.Kinds {
		tl := pools.RandomTimeline(kind, rng)
		res := timelineRun(t, tl, Options{Params: stdParams(), Policy: LiBRA, Classifier: fixedClassifier{dataset.ActRA}})
		for _, iv := range res.Rate {
			if iv.Bps < 0 || iv.Dur < 0 {
				t.Fatalf("%v: negative rate interval %+v", kind, iv)
			}
		}
	}
}

func TestMotionTimelineDeliversData(t *testing.T) {
	pools := testPools(t)
	rng := rand.New(rand.NewSource(7))
	tl := pools.RandomTimeline(trace.Motion, rng)
	res := timelineRun(t, tl, Options{Params: stdParams(), Policy: BAFirst})
	// A walking client in the lobby stays connected most of the time.
	avg := res.Bytes * 8 / tl.Duration().Seconds()
	if avg < 100e6 {
		t.Errorf("motion average throughput = %v Mbps", avg/1e6)
	}
}

// TestRunTimelineContext covers Run's segment-boundary cancellation
// contract on a timeline scenario: a pre-canceled context returns the
// context's error and a zero result; a context canceled mid-run stops at
// the next segment boundary; a live context matches a background run
// exactly.
func TestRunTimelineContext(t *testing.T) {
	pools := testPools(t)
	rng := rand.New(rand.NewSource(3))
	tl := pools.RandomTimeline(trace.Mixed, rng)
	opt := Options{Params: stdParams(), Policy: BAFirst}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(ctx, Scenario{Timeline: tl}, opt)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !reflect.DeepEqual(res, Result{}) {
		t.Fatalf("canceled run returned a partial result: %+v", res)
	}

	// LiBRA consults the classifier at two breaks of this motion timeline.
	// A classifier that cancels the run at the first must see no second:
	// the run stops at the next segment boundary.
	mt := pools.RandomTimeline(trace.Motion, rand.New(rand.NewSource(1)))
	ctx, cancel = context.WithCancel(context.Background())
	calls := 0
	stop := classifierFunc(func([]float64) dataset.Action {
		calls++
		cancel()
		return dataset.ActRA
	})
	res, err = Run(ctx, Scenario{Timeline: mt}, Options{Params: stdParams(), Policy: LiBRA, Classifier: stop})
	if !errors.Is(err, context.Canceled) || !reflect.DeepEqual(res, Result{}) {
		t.Fatalf("mid-run cancel: err = %v, result %+v", err, res)
	}
	if calls != 1 {
		t.Errorf("classifier consulted %d times; want the run to stop at the boundary after the first", calls)
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	want := timelineRun(t, tl, opt)
	got, err := Run(ctx, Scenario{Timeline: tl}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Timeline, want) {
		t.Errorf("live-context run %+v differs from background %+v", got.Timeline, want)
	}
}

// classifierFunc adapts a function to core.Classifier.
type classifierFunc func([]float64) dataset.Action

func (f classifierFunc) Classify(x []float64) dataset.Action { return f(x) }
func (f classifierFunc) Name() string                        { return "func" }
