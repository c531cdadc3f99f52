package ad

import (
	"testing"
	"time"
)

func TestSSWFrameTime(t *testing.T) {
	// The canonical figure in the 60 GHz literature is ~15.8 us.
	got := SSWFrameTime()
	if got < 15*time.Microsecond || got > 17*time.Microsecond {
		t.Errorf("SSW frame time = %v", got)
	}
}

func TestSectorsFor(t *testing.T) {
	cases := []struct {
		bw   float64
		want int
	}{
		{30, 12}, {3, 120}, {9, 40}, {7, 52}, {360, 1},
	}
	for _, c := range cases {
		if got := SectorsFor(c.bw); got != c.want {
			t.Errorf("SectorsFor(%v) = %d, want %d", c.bw, got, c.want)
		}
	}
	if SectorsFor(0) != 1 || SectorsFor(-5) != 1 {
		t.Error("degenerate beamwidths")
	}
}

func TestSLSOverheadMatchesPaperParameters(t *testing.T) {
	// §8.1: "we used Eqn. (2) from [24] ... with a 30° beamwidth — used in
	// X60 and most commercial devices today — and a 3° beamwidth — the
	// minimum allowed by 802.11ad" for the 0.5 ms and 5 ms points.
	at30 := SLSOverhead(30)
	if at30 < 300*time.Microsecond || at30 > 700*time.Microsecond {
		t.Errorf("SLS overhead at 30 deg = %v, want ~0.5 ms", at30)
	}
	at3 := SLSOverhead(3)
	if at3 < 3500*time.Microsecond || at3 > 6500*time.Microsecond {
		t.Errorf("SLS overhead at 3 deg = %v, want ~5 ms", at3)
	}
}

func TestExhaustiveOverheadMatchesPaperParameters(t *testing.T) {
	// §8.1: 150 ms and 250 ms from the O(N^2) search with 9°/7° beams
	// (Fig. 11 of Sur et al.).
	at9 := ExhaustiveOverhead(9)
	if at9 < 120*time.Millisecond || at9 > 180*time.Millisecond {
		t.Errorf("exhaustive at 9 deg = %v, want ~150 ms", at9)
	}
	at7 := ExhaustiveOverhead(7)
	if at7 < 220*time.Millisecond || at7 > 280*time.Millisecond {
		t.Errorf("exhaustive at 7 deg = %v, want ~250 ms", at7)
	}
}

func TestOverheadMonotoneInBeamwidth(t *testing.T) {
	// Narrower beams mean more sectors and longer sweeps.
	if SLSOverhead(10) <= SLSOverhead(30) {
		t.Error("SLS overhead not monotone")
	}
	if ExhaustiveOverhead(5) <= ExhaustiveOverhead(10) {
		t.Error("exhaustive overhead not monotone")
	}
}
