package libra

import (
	"context"
	"math/rand"
	"testing"
	"time"
)

// TestPublicAPIEndToEnd exercises the exported surface exactly as the README
// quickstart does: build a link, train LiBRA, break the link, decide, and
// drive the online controller.
func TestPublicAPIEndToEnd(t *testing.T) {
	camp := GenerateTestDataset(3) // smaller campaign keeps the test fast
	clf, err := TrainClassifier(camp, 1)
	if err != nil {
		t.Fatal(err)
	}

	e := MediumCorridor()
	tx := NewArray(V(0.5, 1.6), 0, 7)
	rx := NewArray(V(8.5, 1.6), 180, 8)
	link := NewLink(e, tx, rx)
	if _, _, snr := link.BestPair(); snr < 5 {
		t.Fatalf("link SNR = %v", snr)
	}

	st := NewStation(link, rand.New(rand.NewSource(9)))
	ctrl := NewController(st, clf, DefaultConfig())
	ctrl.Bootstrap()
	bits := ctrl.Run(100)
	if bits <= 0 {
		t.Fatal("controller delivered nothing")
	}

	// Policy simulation over the campaign's entries.
	p := Params{BAOverhead: 5 * time.Millisecond, FAT: 2 * time.Millisecond, FlowDur: time.Second}
	bytes := func(e *Entry, pol Policy) float64 {
		res, err := Run(context.Background(), Scenario{Entry: e},
			RunOptions{Params: p, Policy: pol, Classifier: clf})
		if err != nil {
			t.Fatal(err)
		}
		return res.Outcome.Bytes
	}
	var libra, oracle float64
	for _, entry := range camp.Entries {
		if entry.Label == ActNA {
			continue
		}
		libra += bytes(entry, PolicyLiBRA)
		oracle += bytes(entry, PolicyOracleData)
	}
	if libra <= 0 || oracle < libra {
		t.Fatalf("bytes: libra=%v oracle=%v", libra, oracle)
	}
	if ratio := libra / oracle; ratio < 0.8 {
		t.Errorf("LiBRA delivered only %.0f%% of oracle bytes", ratio*100)
	}
}

// TestPublicTimelineAndVR exercises the multi-impairment and VR surfaces.
func TestPublicTimelineAndVR(t *testing.T) {
	camp := GenerateTestDataset(4)
	clf, err := TrainClassifier(camp, 1)
	if err != nil {
		t.Fatal(err)
	}
	pools := NewScenarioPools(11)
	rng := rand.New(rand.NewSource(12))
	tl := pools.RandomTimeline(0 /* Motion */, rng)
	p := Params{BAOverhead: 5 * time.Millisecond, FAT: 2 * time.Millisecond}
	res, err := Run(context.Background(), Scenario{Timeline: tl},
		RunOptions{Params: p, Policy: PolicyLiBRA, Classifier: clf})
	if err != nil {
		t.Fatal(err)
	}
	if res.Timeline.Bytes <= 0 {
		t.Fatal("timeline delivered nothing")
	}
	scene := VikingVillage(2*time.Second, 5)
	play := PlayVR(scene, res.Timeline.Rate, 100*time.Millisecond)
	if play.Stalls < 0 {
		t.Fatal("negative stalls")
	}
}
