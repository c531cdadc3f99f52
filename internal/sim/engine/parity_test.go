package engine

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/libra-wlan/libra/internal/core"
	"github.com/libra-wlan/libra/internal/dataset"
	"github.com/libra-wlan/libra/internal/sim"
	"github.com/libra-wlan/libra/internal/trace"
)

// fixedClf always answers the same action.
type fixedClf struct{ act dataset.Action }

func (f fixedClf) Classify([]float64) dataset.Action { return f.act }
func (f fixedClf) Name() string                      { return "fixed" }

func stdParams() sim.Params {
	return sim.Params{
		BAOverhead: 5 * time.Millisecond,
		FAT:        2 * time.Millisecond,
		FlowDur:    time.Second,
	}
}

// soloRun replays one timeline alone through sim.Run.
func soloRun(t *testing.T, tl *trace.Timeline, pol sim.Policy, clf core.Classifier) sim.TimelineResult {
	t.Helper()
	res, err := sim.Run(context.Background(), sim.Scenario{Timeline: tl},
		sim.Options{Params: stdParams(), Policy: pol, Classifier: clf})
	if err != nil {
		t.Fatal(err)
	}
	return res.Timeline
}

// A 1-AP/1-station engine run over a recorded timeline must reproduce
// sim.Run over that timeline bit for bit — same bytes, same breaks, same
// rate profile, same actions. This is the contract that pins LinkSim as the
// one stepper underneath both paths.
func TestReplayParityWithRunTimeline(t *testing.T) {
	pools := trace.NewPools(99)
	if err := pools.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []trace.ScenarioKind{trace.Mixed, trace.Blockage, trace.Motion} {
		for seed := int64(0); seed < 3; seed++ {
			rng := rand.New(rand.NewSource(100 + seed))
			tl := pools.RandomTimeline(kind, rng)
			solo := soloRun(t, tl, sim.BAFirst, nil)

			sc, err := Build(Spec{
				APs: 1, Stations: 1,
				Params:    stdParams(),
				Policy:    sim.BAFirst,
				Timelines: []*trace.Timeline{tl},
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := New(sc, 1).Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(solo, res.Stations[0].Timeline) {
				t.Errorf("%v seed %d: engine replay diverges from sim.Run:\nsim.Run %+v\nengine  %+v",
					kind, seed, solo, res.Stations[0].Timeline)
			}
		}
	}
}

// Replaying several stations' timelines in one engine run keeps each
// station's result identical to its solo sim.Run — stations in replay mode
// do not interact.
func TestReplayParityManyStations(t *testing.T) {
	pools := trace.NewPools(99)
	if err := pools.Validate(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	const n = 5
	tls := make([]*trace.Timeline, n)
	for i := range tls {
		tls[i] = pools.RandomTimeline(trace.Mixed, rng)
	}
	clf := fixedClf{dataset.ActBA}
	sc, err := Build(Spec{
		APs: 1, Stations: n,
		Params:     stdParams(),
		Policy:     sim.LiBRA,
		Classifier: clf,
		Timelines:  tls,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(sc, 4).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, tl := range tls {
		if !reflect.DeepEqual(soloRun(t, tl, sim.LiBRA, clf), res.Stations[i].Timeline) {
			t.Errorf("station %d diverges from its solo run", i)
		}
	}
}
