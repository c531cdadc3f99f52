package engine

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/libra-wlan/libra/internal/dataset"
	"github.com/libra-wlan/libra/internal/phy"
	"github.com/libra-wlan/libra/internal/sim"
)

func smallSpec() Spec {
	return Spec{
		APs: 2, Stations: 8,
		Duration: 200 * time.Millisecond,
		Seed:     42,
		Params:   stdParams(),
		Policy:   sim.BAFirst,
	}
}

func TestBuildRejectsBadSpecs(t *testing.T) {
	// field is a word the error must contain, naming what was refused.
	cases := []struct {
		name, field string
		mut         func(*Spec)
	}{
		{"no APs", "APs", func(s *Spec) { s.APs = 0 }},
		{"no stations", "Stations", func(s *Spec) { s.Stations = 0 }},
		{"no duration", "Duration", func(s *Spec) { s.Duration = 0 }},
		{"bad topology", "topology", func(s *Spec) { s.Topology = "mesh" }},
		{"bad params", "FAT", func(s *Spec) { s.Params.FAT = 0 }},
		{"unknown policy", "policy", func(s *Spec) { s.Policy = sim.OracleDelay + 1 }},
		{"LiBRA without a classifier", "Classifier", func(s *Spec) { s.Policy = sim.LiBRA }},
		{"inverted impair range", "impairment range", func(s *Spec) { s.ImpairMinDB = 20; s.ImpairMaxDB = 5 }},
		{"negative deficit boundaries", "DeficitBoundaries", func(s *Spec) { s.DeficitBoundaries = -3 }},
		{"NaN impair min", "ImpairMinDB", func(s *Spec) { s.ImpairMinDB = math.NaN() }},
		{"infinite impair max", "ImpairMaxDB", func(s *Spec) { s.ImpairMaxDB = math.Inf(1) }},
		{"NaN hysteresis", "HysteresisDB", func(s *Spec) { s.HysteresisDB = math.NaN() }},
		{"negative impair duration", "ImpairMeanDur", func(s *Spec) { s.ImpairMeanDur = -time.Second }},
		{"overflowing impair gap", "ImpairMeanGap", func(s *Spec) { s.ImpairMeanGap = 1 << 62 }},
		{"overflowing impair duration", "ImpairMeanDur", func(s *Spec) { s.ImpairMeanDur = 1 << 62 }},
	}
	for _, tc := range cases {
		spec := smallSpec()
		tc.mut(&spec)
		_, err := Build(spec)
		if err == nil {
			t.Errorf("%s: no error", tc.name)
		} else if !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.field)
		}
	}
}

// TestBuildAcceptsLargeImpairMeans: a mean of about 4.6 years still fits
// 36.7 of its draws after Duration, so validate lets it through.
func TestBuildAcceptsLargeImpairMeans(t *testing.T) {
	spec := smallSpec()
	spec.ImpairMeanGap, spec.ImpairMeanDur = 1<<57, 1<<57
	sc, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(sc, 1).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestRunRefusesEventBeforeBarrier: sim time is monotone. An impairment mean
// that validate would refuse, set on a built Scenario, draws durations that
// overflow, so impairments end before they start; Run must fail instead of
// rewinding the clock.
func TestRunRefusesEventBeforeBarrier(t *testing.T) {
	spec := smallSpec()
	spec.Stations = 200
	sc, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	sc.spec.ImpairMeanDur = 1 << 62
	_, err = New(sc, 1).Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "before the barrier") {
		t.Fatalf("Run with overflowing impairment durations: err %v, want an event before the barrier", err)
	}
}

func TestEngineDeterministicAcrossWorkers(t *testing.T) {
	sc, err := Build(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	base, err := New(sc, 1).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		res, err := New(sc, workers).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.Digest != base.Digest {
			t.Fatalf("workers=%d digest %s != workers=1 digest %s", workers, res.Digest, base.Digest)
		}
		if !reflect.DeepEqual(base.Stations, res.Stations) {
			t.Fatalf("workers=%d station results diverge", workers)
		}
	}
	// And re-running the same scenario reproduces itself exactly.
	again, err := New(sc, 1).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if again.Digest != base.Digest {
		t.Error("same scenario, same workers, different digest")
	}
}

func TestEngineContention(t *testing.T) {
	// One station per AP vs. four stations per AP: contention must cost
	// throughput per station.
	lone, err := Build(Spec{
		APs: 2, Stations: 2, Duration: 200 * time.Millisecond, Seed: 1,
		Params: stdParams(), Policy: sim.BAFirst,
		ImpairMeanGap: -1, HysteresisDB: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	crowded, err := Build(Spec{
		APs: 2, Stations: 8, Duration: 200 * time.Millisecond, Seed: 1,
		Params: stdParams(), Policy: sim.BAFirst,
		ImpairMeanGap: -1, HysteresisDB: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	lr, err := New(lone, 1).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cr, err := New(crowded, 1).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if lr.Bytes()/float64(len(lr.Stations)) <= cr.Bytes()/float64(len(cr.Stations)) {
		t.Errorf("per-station bytes: lone %v <= crowded %v",
			lr.Bytes()/float64(len(lr.Stations)), cr.Bytes()/float64(len(cr.Stations)))
	}
	// Membership is conserved.
	total := 0
	for _, m := range cr.APMembers {
		total += m
	}
	if total != len(cr.Stations) {
		t.Errorf("members %d != stations %d", total, len(cr.Stations))
	}
}

func TestEngineImpairmentsDriveHandoffs(t *testing.T) {
	// Frequent, deep impairments against a low handoff bar: stations must
	// re-home at least once across the run.
	sc, err := Build(Spec{
		APs: 2, Stations: 8,
		Duration: 400 * time.Millisecond, Seed: 3,
		Params: stdParams(), Policy: sim.BAFirst,
		ImpairMeanGap: 80 * time.Millisecond,
		ImpairMeanDur: 150 * time.Millisecond,
		ImpairMinDB:   25, ImpairMaxDB: 40,
		HysteresisDB: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(sc, 4).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Handoffs == 0 {
		t.Error("no handoffs under sustained deep impairments")
	}
	if res.Breaks() == 0 {
		t.Error("no link breaks under deep impairments")
	}
}

func TestEngineOutcomes(t *testing.T) {
	sc, err := Build(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(sc, 2).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	outs := res.Outcomes()
	if len(outs) != len(res.Stations) {
		t.Fatalf("%d outcomes for %d stations", len(outs), len(res.Stations))
	}
	for i, o := range outs {
		if o.Bytes != res.Stations[i].Timeline.Bytes {
			t.Errorf("station %d: outcome bytes %v != timeline bytes %v", i, o.Bytes, res.Stations[i].Timeline.Bytes)
		}
		if o.Bytes <= 0 {
			t.Errorf("station %d delivered nothing", i)
		}
		if o.FinalMCS < phy.MinMCS || o.FinalMCS > phy.MaxMCS {
			t.Errorf("station %d: final MCS %v out of range", i, o.FinalMCS)
		}
	}
}

// cancelOnClassify answers BA and cancels the run's ctx when it is first
// consulted, from inside a station handler.
type cancelOnClassify struct{ cancel context.CancelFunc }

func (c *cancelOnClassify) Classify([]float64) dataset.Action {
	c.cancel()
	return dataset.ActBA
}

func (c *cancelOnClassify) Name() string { return "cancel-on-classify" }

// TestEngineHonorsContext: a ctx canceled before Run, or mid-run by a
// station handler, stops the run with ctx's error and no Result.
func TestEngineHonorsContext(t *testing.T) {
	sc, err := Build(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := New(sc, 1).Run(ctx); err == nil {
		t.Error("cancelled context not observed")
	}

	// Mid-run: at 8 workers the first verdict cancels ctx while other
	// handlers of its barrier are in flight on the pool.
	clf := &cancelOnClassify{}
	spec := goldenSpec()
	spec.Policy = sim.LiBRA
	spec.Classifier = clf
	if sc, err = Build(spec); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		clf.cancel = cancel
		res, err := New(sc, workers).Run(ctx)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: canceled mid-run: err = %v, want context.Canceled", workers, err)
		}
		if res != nil {
			t.Errorf("workers=%d: canceled mid-run returned a Result", workers)
		}
	}
}
