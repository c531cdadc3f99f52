package sim

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"github.com/libra-wlan/libra/internal/phy"
	"github.com/libra-wlan/libra/internal/trace"
)

func TestParamsValidate(t *testing.T) {
	if err := stdParams().Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Params)
	}{
		{"zero BAOverhead", func(p *Params) { p.BAOverhead = 0 }},
		{"negative BAOverhead", func(p *Params) { p.BAOverhead = -time.Millisecond }},
		{"zero FAT", func(p *Params) { p.FAT = 0 }},
		{"negative FlowDur", func(p *Params) { p.FlowDur = -time.Second }},
	}
	for _, tc := range cases {
		p := stdParams()
		tc.mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}

func TestRunRejectsBadScenarios(t *testing.T) {
	ctx := context.Background()
	e := handEntry()
	pools := testPools(t)
	tl := pools.RandomTimeline(trace.Mixed, rand.New(rand.NewSource(7)))
	opt := Options{Params: stdParams(), Policy: BAFirst}

	cases := []struct {
		name string
		sc   Scenario
		opt  Options
	}{
		{"neither entry nor timeline", Scenario{}, opt},
		{"both entry and timeline", Scenario{Entry: e, Timeline: tl}, opt},
		{"entry without FlowDur", Scenario{Entry: e},
			Options{Params: Params{BAOverhead: time.Millisecond, FAT: time.Millisecond}}},
		{"failover without table", Scenario{Entry: e},
			Options{Params: stdParams(), Variant: VariantFailover}},
		{"failover on a timeline", Scenario{Timeline: tl},
			Options{Params: stdParams(), Variant: VariantFailover, Failover: new([phy.NumMCS]float64)}},
		{"rx-initiated without classifier", Scenario{Entry: e},
			Options{Params: stdParams(), Variant: VariantRxInitiated}},
		{"unknown variant", Scenario{Entry: e},
			Options{Params: stdParams(), Variant: Variant(99)}},
	}
	for _, tc := range cases {
		if _, err := Run(ctx, tc.sc, tc.opt); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
	// FlowDur is only a concern for entry scenarios.
	if _, err := Run(ctx, Scenario{Timeline: tl},
		Options{Params: Params{BAOverhead: time.Millisecond, FAT: time.Millisecond}, Policy: BAFirst}); err != nil {
		t.Errorf("timeline without FlowDur rejected: %v", err)
	}
}

func TestRunHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, Scenario{Entry: handEntry()}, Options{Params: stdParams(), Policy: BAFirst})
	if err == nil {
		t.Fatal("cancelled context not observed")
	}
}
