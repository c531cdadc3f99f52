package cots

import (
	"math/rand"
	"testing"
	"time"

	"github.com/libra-wlan/libra/internal/channel"
	"github.com/libra-wlan/libra/internal/env"
	"github.com/libra-wlan/libra/internal/geom"
	"github.com/libra-wlan/libra/internal/phased"
)

func testLink() *channel.Link {
	e := env.MediumCorridor()
	tx := phased.NewArray(geom.V(0.5, 1.6), 0, 1)
	rx := phased.NewArray(geom.V(9.5, 1.6), 180, 2)
	return channel.NewLink(e, tx, rx)
}

func TestTuneAppliesCOTSBudget(t *testing.T) {
	l := testLink()
	Tune(l)
	if l.ImplLossDB != ImplLossDB {
		t.Errorf("ImplLossDB = %v", l.ImplLossDB)
	}
}

func TestNewDeviceLocksSensibleSector(t *testing.T) {
	l := testLink()
	d := NewDevice(l, APProfile(), rand.New(rand.NewSource(1)))
	if d.sector == NoSector {
		t.Fatal("initial sweep failed on a healthy link")
	}
	best := BestLockedSector(l)
	// With the AP's small sweep noise the chosen sector is near the truth.
	if diff := d.sector - best; diff < -3 || diff > 3 {
		t.Errorf("initial sector %d far from best %d", d.sector, best)
	}
}

func TestRunStaticDelivers(t *testing.T) {
	l := testLink()
	d := NewDevice(l, APProfile(), rand.New(rand.NewSource(2)))
	res := d.Run(2*time.Second, nil, true, 0)
	if res.ThroughputBps < 100e6 {
		t.Errorf("static throughput = %v Mbps", res.ThroughputBps/1e6)
	}
	if len(res.SectorTimeline) == 0 {
		t.Error("no sector timeline recorded")
	}
	if len(res.SectorsUsed) == 0 {
		t.Error("no sectors recorded")
	}
}

func TestLockedRunNeverSweeps(t *testing.T) {
	l := testLink()
	locked := BestLockedSector(l)
	d := NewDevice(l, PhoneProfile(), rand.New(rand.NewSource(3)))
	res := d.Run(2*time.Second, nil, false, locked)
	if res.BATriggers != 0 {
		t.Errorf("locked run swept %d times", res.BATriggers)
	}
	for _, s := range res.SectorTimeline {
		if s.Sector != locked {
			t.Fatal("locked run changed sector")
		}
	}
}

func TestPhoneFlapsMoreThanAP(t *testing.T) {
	runProfile := func(p Profile, seed int64) RunResult {
		l := testLink()
		d := NewDevice(l, p, rand.New(rand.NewSource(seed)))
		return d.Run(20*time.Second, nil, true, 0)
	}
	phone := runProfile(PhoneProfile(), 4)
	ap := runProfile(APProfile(), 4)
	if phone.BATriggers <= ap.BATriggers {
		t.Errorf("phone %d triggers <= AP %d (Fig. 1 contrast lost)",
			phone.BATriggers, ap.BATriggers)
	}
}

func TestSweepCooldown(t *testing.T) {
	// On a dead link the device would sweep every frame without the
	// firmware rate limit; verify the cooldown bounds it.
	l := testLink()
	l.ImplLossDB = 90
	l.Invalidate()
	d := NewDevice(l, APProfile(), rand.New(rand.NewSource(5)))
	res := d.Run(time.Second, nil, true, 0)
	frames := int(time.Second / FrameTime)
	if res.BATriggers > frames/40 {
		t.Errorf("%d sweeps in %d frames despite the cooldown", res.BATriggers, frames)
	}
}

func TestBestLockedSector(t *testing.T) {
	l := testLink()
	best := BestLockedSector(l)
	snrBest := l.SNRdB(best, phased.QuasiOmniID)
	for s := 0; s < phased.NumBeams; s++ {
		if snr := l.SNRdB(s, phased.QuasiOmniID); snr > snrBest+1e-9 {
			t.Fatalf("sector %d beats claimed best %d", s, best)
		}
	}
}

func TestWalkAwayMovesRx(t *testing.T) {
	l := testLink()
	start := l.Rx.Pos
	mv := WalkAway(l, start, 0.5)
	mv(4 * time.Second)
	if l.Rx.Pos.Dist(start) < 1.5 {
		t.Errorf("walked only %v m in 4 s", l.Rx.Pos.Dist(start))
	}
	// Still faces the Tx.
	want := geom.Deg(l.Tx.Pos.Sub(l.Rx.Pos).Angle())
	if diff := l.Rx.OrientDeg - want; diff > 1e-6 || diff < -1e-6 {
		t.Error("walker stopped facing the Tx")
	}
}

func TestWalkDirQuantized(t *testing.T) {
	l := testLink()
	mv := WalkDir(l, l.Rx.Pos, geom.V(1, 0), 0.5)
	mv(10 * time.Millisecond)
	pos := l.Rx.Pos
	mv(20 * time.Millisecond) // same 100 ms step: no move, so no re-trace
	if l.Rx.Pos != pos {
		t.Error("sub-step movement moved the receiver")
	}
	mv(150 * time.Millisecond)
	if l.Rx.Pos == pos {
		t.Error("next step did not move the receiver")
	}
}

func TestWalkStopsAtBoundary(t *testing.T) {
	l := testLink()
	mv := WalkAway(l, l.Rx.Pos, 5) // very fast: would exit the corridor
	mv(time.Hour)
	if !l.Env.Contains(l.Rx.Pos) {
		t.Errorf("walker left the environment: %v", l.Rx.Pos)
	}
}

func TestMobilityBATracksBetterThanLocked(t *testing.T) {
	// The §3 key observation: under angular displacement, periodic beam
	// adaptation beats any single locked sector.
	run := func(ba bool) float64 {
		e := env.Lobby()
		tx := phased.NewArray(geom.V(2, 4), 0, 6)
		rx := phased.NewArray(geom.V(5, 4), 180, 7)
		l := channel.NewLink(e, tx, rx)
		locked := BestLockedSector(l)
		d := NewDevice(l, APProfile(), rand.New(rand.NewSource(8)))
		mv := WalkDir(l, geom.V(5, 4), geom.V(0.8, 0.6), 0.25)
		return d.Run(20*time.Second, mv, ba, locked).ThroughputBps
	}
	if withBA, lockedTh := run(true), run(false); withBA <= lockedTh {
		t.Errorf("BA %v Mbps did not beat locked %v Mbps under mobility",
			withBA/1e6, lockedTh/1e6)
	}
}
