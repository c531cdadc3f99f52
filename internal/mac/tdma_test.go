package mac

import (
	"math"
	"math/rand"
	"testing"

	"github.com/libra-wlan/libra/internal/phy"
)

func TestEqualShareLoneStationOwnsFrame(t *testing.T) {
	s := EqualShare(0, 1, phy.SlotsPerFrame)
	if s.Granted != phy.SlotsPerFrame || s.Granted/s.Members != phy.SlotsPerFrame {
		t.Fatalf("lone station got %d/%d slots", s.Granted/s.Members, s.Granted)
	}
	if s.Share() != 1.0 {
		t.Fatalf("lone station share = %v, want exactly 1", s.Share())
	}
}

func TestEqualShareDividesEvenly(t *testing.T) {
	s := EqualShare(0, 4, phy.SlotsPerFrame)
	if s.Granted/s.Members != phy.SlotsPerFrame/4 {
		t.Errorf("per-station = %d", s.Granted/s.Members)
	}
	if math.Abs(s.Share()-0.25) > 1e-15 {
		t.Errorf("share = %v", s.Share())
	}
	// Demand cap: 4 stations wanting 10 slots each use only 40.
	capped := EqualShare(0, 4, 10)
	if capped.Granted != 40 || capped.Granted/capped.Members != 10 {
		t.Errorf("capped: %d granted, %d per station", capped.Granted, capped.Granted/capped.Members)
	}
}

func TestEqualShareOverload(t *testing.T) {
	// More members than slots: the window saturates at the frame and the
	// per-station share goes fractional (a slot every other frame).
	s := EqualShare(0, 2*phy.SlotsPerFrame, phy.SlotsPerFrame)
	if s.Granted != phy.SlotsPerFrame {
		t.Errorf("granted = %d", s.Granted)
	}
	if want := 1.0 / float64(2*phy.SlotsPerFrame); math.Abs(s.Share()-want) > 1e-15 {
		t.Errorf("share = %v, want %v", s.Share(), want)
	}
}

func TestEqualShareIdle(t *testing.T) {
	s := EqualShare(25, 0, phy.SlotsPerFrame)
	if s.Active() || s.Share() != 0 {
		t.Errorf("idle schedule active: %+v", s)
	}
	if s.Offset != 25 {
		t.Errorf("offset = %d", s.Offset)
	}
}

func TestOverlapDisjointAndFull(t *testing.T) {
	a := EqualShare(0, 2, 20)  // slots [0,40)
	b := EqualShare(50, 2, 20) // slots [50,90)
	if o := a.Overlap(b); o != 0 {
		t.Errorf("disjoint windows overlap %v", o)
	}
	c := EqualShare(0, 2, phy.SlotsPerFrame) // whole frame
	if o := a.Overlap(c); o != 1 {
		t.Errorf("window inside full frame overlaps %v, want 1", o)
	}
	// Overlap is measured relative to the receiver's window.
	if o := c.Overlap(a); math.Abs(o-0.4) > 1e-15 {
		t.Errorf("full frame vs 40 slots = %v, want 0.4", o)
	}
}

func TestOverlapWrapping(t *testing.T) {
	a := EqualShare(90, 1, 20) // wraps: [90,100) + [0,10)
	b := EqualShare(0, 1, 10)  // [0,10)
	if o := a.Overlap(b); math.Abs(o-0.5) > 1e-15 {
		t.Errorf("wrapped overlap = %v, want 0.5", o)
	}
	if o := b.Overlap(a); o != 1 {
		t.Errorf("contained overlap = %v, want 1", o)
	}
}

func TestWrapSlotNegative(t *testing.T) {
	if got := wrapSlot(-3); got != phy.SlotsPerFrame-3 {
		t.Errorf("wrapSlot(-3) = %d", got)
	}
}

// TestPropertyEqualShareInvariants: over members 0–300, demand −1…200 and
// offsets −250…250, a schedule never hands out more than the frame — the
// members' shares sum to at most 1 and at most SlotsPerFrame slots are
// granted — its offset is a slot of the frame, and its overlap with any
// other such schedule is a fraction.
func TestPropertyEqualShareInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	offset := func() int { return rng.Intn(501) - 250 }
	for members := 0; members <= 300; members++ {
		for demand := -1; demand <= 200; demand++ {
			s := EqualShare(offset(), members, demand)
			if sum := float64(s.Members) * s.Share(); sum > 1 {
				t.Fatalf("EqualShare(_, %d, %d): members' shares sum to %v > 1", members, demand, sum)
			}
			if s.Granted < 0 || s.Granted > phy.SlotsPerFrame {
				t.Fatalf("EqualShare(_, %d, %d): granted %d outside [0, %d]", members, demand, s.Granted, phy.SlotsPerFrame)
			}
			if s.Offset < 0 || s.Offset >= phy.SlotsPerFrame {
				t.Fatalf("EqualShare(_, %d, %d): offset %d outside [0, %d)", members, demand, s.Offset, phy.SlotsPerFrame)
			}
			o := EqualShare(offset(), rng.Intn(301), rng.Intn(202)-1)
			if ov := s.Overlap(o); !(ov >= 0 && ov <= 1) {
				t.Fatalf("%+v overlaps %+v by %v, outside [0, 1]", s, o, ov)
			}
		}
	}
}
