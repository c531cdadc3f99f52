package trace

import (
	"math/rand"
	"testing"
	"time"
)

func testPools(t *testing.T) *Pools {
	t.Helper()
	p := NewPools(7)
	if len(p.motion) == 0 || len(p.clear) == 0 || len(p.blocked) == 0 || len(p.interfered) == 0 {
		t.Fatalf("incomplete pools (motion=%d clear=%d blocked=%d interfered=%d)",
			len(p.motion), len(p.clear), len(p.blocked), len(p.interfered))
	}
	return p
}

func TestPoolsPopulated(t *testing.T) {
	p := testPools(t)
	if len(p.motion) < 4 {
		t.Errorf("motion pool = %d", len(p.motion))
	}
	if len(p.blocked) != 9 || len(p.interfered) != 9 || len(p.clear) != 3 {
		t.Errorf("pools = %d blocked / %d interfered / %d clear",
			len(p.blocked), len(p.interfered), len(p.clear))
	}
}

func TestTimelineShape(t *testing.T) {
	p := testPools(t)
	rng := rand.New(rand.NewSource(1))
	for _, kind := range Kinds {
		tl := p.RandomTimeline(kind, rng)
		if tl.Kind != kind {
			t.Errorf("kind = %v", tl.Kind)
		}
		if len(tl.Segments) != SegmentsPerTimeline {
			t.Errorf("%v: %d segments", kind, len(tl.Segments))
		}
		for i, seg := range tl.Segments {
			if seg.Snap == nil {
				t.Fatalf("%v segment %d: nil snapshot", kind, i)
			}
			if seg.Dur < 300*time.Millisecond || seg.Dur > 3*time.Second {
				t.Errorf("%v segment %d: duration %v outside [300ms, 3s]", kind, i, seg.Dur)
			}
		}
		d := tl.Duration()
		if d < 3*time.Second || d > 30*time.Second {
			t.Errorf("%v: duration %v outside [3s, 30s]", kind, d)
		}
	}
}

func TestBlockageAlternates(t *testing.T) {
	p := testPools(t)
	rng := rand.New(rand.NewSource(2))
	tl := p.RandomTimeline(Blockage, rng)
	// Even segments are clear, odd are blocked: the SNR of the best pair
	// must alternate high/low.
	for i := 0; i+1 < len(tl.Segments); i += 2 {
		_, _, clear := tl.Segments[i].Snap.BestPair()
		_, _, blocked := tl.Segments[i+1].Snap.BestPair()
		if clear <= blocked {
			t.Errorf("segments %d/%d: clear %v <= blocked %v", i, i+1, clear, blocked)
		}
	}
}

func TestInterferenceRaisesNoiseInPool(t *testing.T) {
	p := testPools(t)
	clear := p.clear[0].Measure(12, 12)
	worst := clear.NoiseDBm
	for _, s := range p.interfered {
		if m := s.Measure(12, 12); m.NoiseDBm > worst {
			worst = m.NoiseDBm
		}
	}
	if worst <= clear.NoiseDBm+3 {
		t.Errorf("interfered pool noise %v barely above clear %v", worst, clear.NoiseDBm)
	}
}

func TestRandomTimelineDur(t *testing.T) {
	p := testPools(t)
	rng := rand.New(rand.NewSource(3))
	tl := p.RandomTimelineDur(Motion, rng, 31*time.Second)
	if tl.Duration() < 31*time.Second {
		t.Errorf("duration %v below the floor", tl.Duration())
	}
}

func TestRandomTimelines(t *testing.T) {
	p := testPools(t)
	rng := rand.New(rand.NewSource(4))
	tls := p.RandomTimelines(Mixed, 7, rng)
	if len(tls) != 7 {
		t.Errorf("timelines = %d", len(tls))
	}
}

func TestKindStrings(t *testing.T) {
	want := map[ScenarioKind]string{
		Motion: "Motion", Blockage: "Blockage",
		Interference: "Interference", Mixed: "Mixed",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d String = %q", k, k.String())
		}
	}
}

func TestDeterministicPools(t *testing.T) {
	a := NewPools(11)
	b := NewPools(11)
	rngA := rand.New(rand.NewSource(5))
	rngB := rand.New(rand.NewSource(5))
	ta := a.RandomTimeline(Mixed, rngA)
	tb := b.RandomTimeline(Mixed, rngB)
	for i := range ta.Segments {
		if ta.Segments[i].Dur != tb.Segments[i].Dur {
			t.Fatal("same seeds produced different timelines")
		}
		_, _, sa := ta.Segments[i].Snap.BestPair()
		_, _, sb := tb.Segments[i].Snap.BestPair()
		if sa != sb {
			t.Fatal("same seeds produced different snapshots")
		}
	}
}

func TestPropertyTimelineDurations(t *testing.T) {
	p := testPools(t)
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 50; i++ {
		kind := Kinds[rng.Intn(len(Kinds))]
		tl := p.RandomTimeline(kind, rng)
		var sum time.Duration
		for _, seg := range tl.Segments {
			sum += seg.Dur
		}
		if sum != tl.Duration() {
			t.Fatal("Duration() disagrees with the segment sum")
		}
		// Every snapshot must be measurable on its own best pair.
		_, _, snr := tl.Segments[0].Snap.BestPair()
		if snr < -40 {
			t.Fatalf("first segment unusable: %v dB", snr)
		}
	}
}
