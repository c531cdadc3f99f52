package mac

import (
	"math"
	"math/rand"
	"testing"

	"github.com/libra-wlan/libra/internal/channel"
	"github.com/libra-wlan/libra/internal/env"
	"github.com/libra-wlan/libra/internal/geom"
	"github.com/libra-wlan/libra/internal/phased"
	"github.com/libra-wlan/libra/internal/phy"
)

func testStation(d float64, seed int64) *Station {
	e := env.MediumCorridor()
	tx := phased.NewArray(geom.V(0.5, 1.6), 0, 1)
	rx := phased.NewArray(geom.V(0.5+d, 1.6), 180, 2)
	l := channel.NewLink(e, tx, rx)
	s := NewStation(l, rand.New(rand.NewSource(seed)))
	tb, rb, snr := l.BestPair()
	s.TxBeam, s.RxBeam = tb, rb
	s.MCS, _ = phy.BestMCS(snr)
	return s
}

func TestSendFrameGoodLink(t *testing.T) {
	s := testStation(5, 1)
	rec := s.SendFrame()
	if !rec.ACKed {
		t.Fatal("good link frame not ACKed")
	}
	if rec.CDR < 0.3 {
		t.Errorf("good link CDR = %v", rec.CDR)
	}
	if rec.DeliveredBits <= 0 {
		t.Error("no bits delivered")
	}
	if rec.MCS != s.MCS || rec.TxBeam != s.TxBeam || rec.RxBeam != s.RxBeam {
		t.Error("record does not reflect station config")
	}
	if len(rec.PDP) != channel.PDPTaps {
		t.Errorf("PDP length = %d", len(rec.PDP))
	}
	if math.IsInf(rec.ToFNs, 1) {
		t.Error("ToF infinite on a good link")
	}
}

func TestSendFrameDeadLink(t *testing.T) {
	s := testStation(5, 2)
	s.Link.ImplLossDB = 90 // kill the channel
	s.Link.Invalidate()
	rec := s.SendFrame()
	if rec.ACKed {
		t.Error("dead link frame ACKed")
	}
	if rec.CDR != 0 || rec.DeliveredBits != 0 {
		t.Errorf("dead link delivered CDR=%v bits=%v", rec.CDR, rec.DeliveredBits)
	}
}

func TestSequenceNumbers(t *testing.T) {
	s := testStation(5, 3)
	for i := 0; i < 5; i++ {
		if r := s.SendFrame(); r.Seq != i {
			t.Fatalf("seq[%d] = %d", i, r.Seq)
		}
	}
	if next := s.SendFrame(); next.Seq != 5 {
		t.Errorf("continuation seq = %d", next.Seq)
	}
}

func TestThroughputBps(t *testing.T) {
	rec := FrameRecord{DeliveredBits: 1e6}
	if got := rec.ThroughputBps(); math.Abs(got-1e8) > 1 {
		t.Errorf("ThroughputBps = %v", got)
	}
}

func TestProbeMCSRestores(t *testing.T) {
	s := testStation(5, 4)
	orig := s.MCS
	rec := s.ProbeMCS(phy.MinMCS)
	if rec.MCS != phy.MinMCS {
		t.Errorf("probe used %v", rec.MCS)
	}
	if s.MCS != orig {
		t.Errorf("probe changed station MCS to %v", s.MCS)
	}
}

func TestAverages(t *testing.T) {
	recs := []FrameRecord{
		{DeliveredBits: 2e6, CDR: 0.5},
		{DeliveredBits: 4e6, CDR: 1.0},
	}
	if got := AvgCDR(recs); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("AvgCDR = %v", got)
	}
	if AvgCDR(nil) != 0 {
		t.Error("empty average should be 0")
	}
}

func TestDeterminism(t *testing.T) {
	a := testStation(7, 99)
	b := testStation(7, 99)
	for i := 0; i < 20; i++ {
		ra, rb := a.SendFrame(), b.SendFrame()
		if ra.CDR != rb.CDR || ra.SNRdB != rb.SNRdB {
			t.Fatal("same seed produced different frame outcomes")
		}
	}
}

func TestMeasurementNoisePresent(t *testing.T) {
	s := testStation(7, 5)
	seen := map[float64]bool{}
	for i := 0; i < 10; i++ {
		seen[s.SendFrame().SNRdB] = true
	}
	if len(seen) < 5 {
		t.Error("per-frame SNR jitter missing")
	}
}

func TestHigherMCSDropsOnWeakLink(t *testing.T) {
	s := testStation(16, 6) // long link: low SNR
	s.MCS = phy.MaxMCS
	rec := s.SendFrame()
	if rec.CDR > 0.01 {
		t.Errorf("top MCS on weak link has CDR %v", rec.CDR)
	}
}
