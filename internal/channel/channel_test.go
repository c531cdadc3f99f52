package channel

import (
	"math"
	"sync"
	"testing"

	"github.com/libra-wlan/libra/internal/env"
	"github.com/libra-wlan/libra/internal/geom"
	"github.com/libra-wlan/libra/internal/phased"
	"github.com/libra-wlan/libra/internal/testutil"
)

// emptyRoom builds a large room with distant drywall walls so the LOS path
// dominates.
func emptyRoom() *env.Environment {
	e := &env.Environment{Name: "test-room", Width: 100, Height: 100}
	e.Walls = []env.Wall{
		{Seg: geom.Seg(geom.V(0, 0), geom.V(100, 0)), Mat: env.Drywall},
		{Seg: geom.Seg(geom.V(100, 0), geom.V(100, 100)), Mat: env.Drywall},
		{Seg: geom.Seg(geom.V(100, 100), geom.V(0, 100)), Mat: env.Drywall},
		{Seg: geom.Seg(geom.V(0, 100), geom.V(0, 0)), Mat: env.Drywall},
	}
	return e
}

func testLink(d float64) *Link {
	e := emptyRoom()
	tx := phased.NewArray(geom.V(20, 50), 0, 1)
	rx := phased.NewArray(geom.V(20+d, 50), 180, 2)
	return NewLink(e, tx, rx)
}

func TestFSPL(t *testing.T) {
	// At 60.48 GHz, FSPL(1 m) = 20 log10(4*pi*f/c) ~ 68.1 dB (the oxygen
	// term adds 0.015 dB at 1 m).
	if got := FSPLdB(1); math.Abs(got-68.07) > 0.1 {
		t.Errorf("FSPL(1m) = %v", got)
	}
	// +20 dB per decade plus the linear oxygen term.
	slope := FSPLdB(10) - FSPLdB(1)
	if math.Abs(slope-20-OxygenAbsorptionDBPerKm*9.0/1000) > 1e-9 {
		t.Errorf("decade slope = %v", slope)
	}
	// Oxygen absorption: 15 dB per km of excess path.
	if got := FSPLdB(1000) - FSPLdB(1000)*0; got < 60+15 {
		t.Errorf("km loss = %v", got)
	}
	// Distances below 10 cm are clamped.
	if FSPLdB(0.001) != FSPLdB(0.1) {
		t.Error("near-field clamp missing")
	}
}

func TestThermalNoise(t *testing.T) {
	// -174 + 10log10(2e9) + 7 = -74.0 dBm.
	if got := ThermalNoiseDBm(7); math.Abs(got+74) > 0.05 {
		t.Errorf("thermal noise = %v", got)
	}
}

func TestLOSPath(t *testing.T) {
	l := testLink(10)
	paths := l.Paths()
	var los *Path
	for i := range paths {
		if paths[i].Bounces == 0 {
			los = &paths[i]
		}
	}
	if los == nil {
		t.Fatal("no LOS path in open room")
	}
	if math.Abs(los.Dist-10) > 1e-9 {
		t.Errorf("LOS dist = %v", los.Dist)
	}
	wantDelay := 10 / SpeedOfLight * 1e9
	if math.Abs(los.DelayNs-wantDelay) > 1e-9 {
		t.Errorf("LOS delay = %v, want %v", los.DelayNs, wantDelay)
	}
	if math.Abs(los.LossDB-FSPLdB(10)) > 1e-9 {
		t.Errorf("LOS loss = %v", los.LossDB)
	}
	if !almostVec(los.Depart, geom.V(1, 0)) || !almostVec(los.Arrive, geom.V(-1, 0)) {
		t.Errorf("LOS directions %v %v", los.Depart, los.Arrive)
	}
}

func almostVec(a, b geom.Vec) bool {
	return math.Abs(a.X-b.X) < 1e-9 && math.Abs(a.Y-b.Y) < 1e-9
}

func TestFirstOrderSpecular(t *testing.T) {
	// Tx and Rx equidistant from a wall: the reflection point is midway and
	// the specular law (equal angles) holds.
	l := testLink(10)
	var refl *Path
	for i, p := range l.Paths() {
		if p.Bounces == 1 && p.Depart.Y < 0 { // bounce off the south wall
			refl = &l.Paths()[i]
			break
		}
	}
	if refl == nil {
		t.Fatal("no south-wall reflection")
	}
	// Path via image: Tx(20,50) mirrored to (20,-50); dist to Rx(30,50) =
	// sqrt(100 + 10000) = 100.5.
	want := math.Hypot(10, 100)
	if math.Abs(refl.Dist-want) > 1e-6 {
		t.Errorf("reflection dist = %v, want %v", refl.Dist, want)
	}
	// Angle of incidence equals angle of reflection: departure and arrival
	// have mirrored Y components against the horizontal wall.
	if math.Abs(refl.Depart.Y-refl.Arrive.Y) > 1e-9 {
		t.Errorf("specular law violated: %v vs %v", refl.Depart.Y, refl.Arrive.Y)
	}
	// Reflection loss applied.
	if math.Abs(refl.LossDB-(FSPLdB(want)+env.Drywall.ReflLossDB)) > 1e-6 {
		t.Errorf("reflection loss = %v", refl.LossDB)
	}
}

func TestOcclusionBlocksLOS(t *testing.T) {
	e := emptyRoom()
	// A wall between Tx and Rx.
	e.Walls = append(e.Walls, env.Wall{Seg: geom.Seg(geom.V(25, 40), geom.V(25, 60)), Mat: env.Metal})
	tx := phased.NewArray(geom.V(20, 50), 0, 1)
	rx := phased.NewArray(geom.V(30, 50), 180, 2)
	l := NewLink(e, tx, rx)
	for _, p := range l.Paths() {
		if p.Bounces == 0 {
			t.Fatal("LOS path through an occluding wall")
		}
	}
}

func TestSecondOrderPathsExist(t *testing.T) {
	l := testLink(10)
	second := 0
	for _, p := range l.Paths() {
		if p.Bounces == 2 {
			second++
		}
	}
	if second == 0 {
		t.Error("no second-order paths in a rectangular room")
	}
}

func TestMeasureSNRReasonable(t *testing.T) {
	l := testLink(6)
	_, _, snr := l.BestPair()
	if snr < 5 || snr > 40 {
		t.Errorf("best SNR at 6 m = %v, outside plausible range", snr)
	}
}

func TestSNRDecreasesWithDistance(t *testing.T) {
	prev := math.Inf(1)
	for _, d := range []float64{4, 8, 16, 32} {
		l := testLink(d)
		_, _, snr := l.BestPair()
		if snr >= prev {
			t.Fatalf("SNR did not decrease at %v m (%v >= %v)", d, snr, prev)
		}
		prev = snr
	}
}

func TestToFMatchesDistance(t *testing.T) {
	l := testLink(9)
	t0, r0, _ := l.BestPair()
	m := l.Measure(t0, r0)
	want := 9 / SpeedOfLight * 1e9
	if math.Abs(m.ToFNs-want) > 0.5 {
		t.Errorf("ToF = %v, want ~%v", m.ToFNs, want)
	}
}

func TestToFInfinityWhenDead(t *testing.T) {
	l := testLink(9)
	l.ImplLossDB = 80 // crush the signal below sensitivity
	m := l.Measure(0, 0)
	if !math.IsInf(m.ToFNs, 1) {
		t.Errorf("ToF = %v, want +Inf below sensitivity", m.ToFNs)
	}
}

func TestPDPTotalMatchesRSS(t *testing.T) {
	l := testLink(8)
	t0, r0, _ := l.BestPair()
	m := l.Measure(t0, r0)
	var sum float64
	for _, v := range m.PDP {
		sum += v
	}
	// The PDP bins should hold (almost) all received power; distant
	// second-order paths may fall outside the 128 ns window.
	rssMw := math.Pow(10, m.RSSdBm/10)
	if sum < 0.95*rssMw || sum > rssMw*1.0001 {
		t.Errorf("PDP sum %v vs RSS %v mW", sum, rssMw)
	}
}

func TestCSIShape(t *testing.T) {
	l := testLink(8)
	t0, r0, _ := l.BestPair()
	m := l.Measure(t0, r0)
	csi := m.CSIInto(nil)
	if len(csi) != PDPTaps {
		t.Errorf("CSI length = %d", len(csi))
	}
	for _, v := range csi {
		if v < 0 || math.IsNaN(v) {
			t.Fatal("CSI must be non-negative magnitudes")
		}
	}
}

func TestBlockageAttenuatesLOS(t *testing.T) {
	l := testLink(10)
	t0, r0, clear := l.BestPair()
	l.SetBlockers([]Blocker{DefaultBlocker(geom.V(25, 50))})
	blocked := l.SNRdB(t0, r0)
	if blocked >= clear-10 {
		t.Errorf("central blockage only dropped SNR from %v to %v", clear, blocked)
	}
}

func TestBlockageCentralityMonotone(t *testing.T) {
	l := testLink(10)
	t0, r0, _ := l.BestPair()
	prev := math.Inf(-1)
	// Moving the blocker off the LOS axis reduces its attenuation.
	for _, off := range []float64{0, 0.1, 0.18, 0.3} {
		l.SetBlockers([]Blocker{DefaultBlocker(geom.V(25, 50+off))})
		snr := l.SNRdB(t0, r0)
		if snr < prev {
			t.Fatalf("offset %v: SNR %v below previous %v", off, snr, prev)
		}
		prev = snr
	}
}

func TestInterferenceRaisesNoise(t *testing.T) {
	l := testLink(8)
	t0, r0, _ := l.BestPair()
	base := l.Measure(t0, r0)
	l.SetInterferers([]Interferer{{Pos: geom.V(24, 51), EIRPdBm: 10, DutyCycle: 1}})
	with := l.Measure(t0, r0)
	if with.NoiseDBm <= base.NoiseDBm {
		t.Errorf("noise %v -> %v, expected rise", base.NoiseDBm, with.NoiseDBm)
	}
	if with.SNRdB >= base.SNRdB {
		t.Errorf("SNR %v -> %v, expected drop", base.SNRdB, with.SNRdB)
	}
}

func TestInterferenceDutyCycleScales(t *testing.T) {
	l := testLink(8)
	it := Interferer{Pos: geom.V(24, 51), EIRPdBm: 10}
	it.DutyCycle = 1
	l.SetInterferers([]Interferer{it})
	full := l.interferenceMw(12)
	it.DutyCycle = 0.5
	l.SetInterferers([]Interferer{it})
	half := l.interferenceMw(12)
	if math.Abs(half-full/2) > 1e-12*full {
		t.Errorf("duty cycle scaling: %v vs %v/2", half, full)
	}
}

func TestInterferenceMultipath(t *testing.T) {
	// Interference must arrive on more than one path in a reflective room
	// (the property that makes it hard to escape by re-beaming, §6.1.3).
	l := testLink(8)
	l.SetInterferers([]Interferer{{Pos: geom.V(24, 51), EIRPdBm: 10, DutyCycle: 1}})
	l.ensureInterferencePaths()
	if len(l.intfPaths[0]) < 2 {
		t.Errorf("interference paths = %d, want multipath", len(l.intfPaths[0]))
	}
}

func TestEpochAdvances(t *testing.T) {
	l := testLink(8)
	e0 := l.pathEpoch
	l.MoveRx(geom.V(30, 50))
	if l.pathEpoch == e0 {
		t.Error("MoveRx did not advance the epoch")
	}
	e1 := l.pathEpoch
	l.RotateRx(170)
	if l.pathEpoch == e1 {
		t.Error("RotateRx did not advance the epoch")
	}
	e2 := l.pathEpoch
	l.SetInterferers(nil)
	if l.pathEpoch == e2 {
		t.Error("SetInterferers did not advance the epoch")
	}
}

func TestSweepMatchesMeasure(t *testing.T) {
	l := testLink(7)
	sweep := l.Sweep()
	for _, tb := range []int{0, 7, 12, 24} {
		for _, rb := range []int{0, 12, 24} {
			if got, want := sweep[tb][rb], l.SNRdB(tb, rb); math.Abs(got-want) > 1e-9 {
				t.Fatalf("sweep[%d][%d] = %v, Measure = %v", tb, rb, got, want)
			}
		}
	}
}

func TestBestPairConsistent(t *testing.T) {
	l := testLink(7)
	tb, rb, snr := l.BestPair()
	sweep := l.Sweep()
	for t2 := range sweep {
		for r2 := range sweep[t2] {
			if sweep[t2][r2] > snr+1e-9 {
				t.Fatalf("pair (%d,%d)=%v beats BestPair (%d,%d)=%v", t2, r2, sweep[t2][r2], tb, rb, snr)
			}
		}
	}
}

func TestSnapshotMatchesLink(t *testing.T) {
	l := testLink(7)
	l.SetInterferers([]Interferer{{Pos: geom.V(24, 53), EIRPdBm: 0, DutyCycle: 0.9}})
	snap := l.Snapshot()
	for _, tb := range []int{0, 12, 24, phased.QuasiOmniID} {
		for _, rb := range []int{0, 12, 24, phased.QuasiOmniID} {
			ms := snap.Measure(tb, rb)
			ml := l.Measure(tb, rb)
			if math.Abs(ms.SNRdB-ml.SNRdB) > 1e-9 {
				t.Fatalf("snapshot SNR(%d,%d) = %v, link = %v", tb, rb, ms.SNRdB, ml.SNRdB)
			}
			if math.Abs(ms.NoiseDBm-ml.NoiseDBm) > 1e-9 {
				t.Fatalf("snapshot noise mismatch at (%d,%d)", tb, rb)
			}
		}
	}
	// Snapshot survives link mutation.
	before := snap.SNRdB(12, 12)
	l.MoveRx(geom.V(60, 50))
	if snap.SNRdB(12, 12) != before {
		t.Error("snapshot changed after link mutation")
	}
}

// TestInterferedSNRMatchesSnapshot covers a one-interferer read: set the
// interferer on the link, read Link.SNRdB at a single beam pair and clear the
// set again. Each such read must carry the bits of a snapshot taken under the
// same set, at every codebook pair and quasi-omni, and the interferer must
// cost SNR at the clear best pair.
func TestInterferedSNRMatchesSnapshot(t *testing.T) {
	hyp := []Interferer{{Pos: geom.V(24, 51), EIRPdBm: 10, DutyCycle: 1}}
	ref := testLink(7)
	ref.SetInterferers(hyp)
	snap := ref.Snapshot()

	l := testLink(7)
	tb, rb, clearBest := l.Snapshot().BestPair()
	beams := []int{phased.QuasiOmniID}
	for b := 0; b < phased.NumBeams; b++ {
		beams = append(beams, b)
	}
	for _, tx := range beams {
		for _, rx := range beams {
			l.SetInterferers(hyp)
			got := l.SNRdB(tx, rx)
			l.SetInterferers(nil)
			if want := snap.SNRdB(tx, rx); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("interfered SNR(%d,%d) = %v, snapshot under the same set %v", tx, rx, got, want)
			}
		}
	}
	l.SetInterferers(hyp)
	if intf := l.SNRdB(tb, rb); intf >= clearBest {
		t.Errorf("interfered SNR %v at the best pair not below clear %v", intf, clearBest)
	}
}

// TestInterferedSNRdBMatchesSetInterferers holds the entry point the
// multi-AP engine prices its penalties with to the computation it replaces:
// an interferer priced from the paths of a link that shares the victim's Rx
// must carry the bits of setting that interferer on the victim and reading
// SNRdB, at every codebook pair and quasi-omni — for an interferer in view
// and for one a wall cuts off from every ray, which reaches the Rx only by
// the leakage ray. The victim's own interferer set and epoch stay untouched.
func TestInterferedSNRdBMatchesSetInterferers(t *testing.T) {
	partitioned := emptyRoom()
	partitioned.Walls = append(partitioned.Walls,
		env.Wall{Seg: geom.Seg(geom.V(25, 0), geom.V(25, 100)), Mat: env.Metal})
	beams := []int{phased.QuasiOmniID}
	for b := 0; b < phased.NumBeams; b++ {
		beams = append(beams, b)
	}
	const eirp = 10.0
	for _, tc := range []struct {
		name     string
		e        *env.Environment
		occluded bool
	}{{"in view", emptyRoom(), false}, {"occluded", partitioned, true}} {
		rx := phased.NewArray(geom.V(37, 50), 180, 2)
		victim := NewLink(tc.e, phased.NewArray(geom.V(30, 50), 0, 1), rx)
		src := NewLink(tc.e, phased.NewArray(geom.V(20, 53), 0, 3), rx)
		if got := len(src.Paths()) == 0; got != tc.occluded {
			t.Fatalf("%s: interferer has %d traced paths", tc.name, len(src.Paths()))
		}
		ref := NewLink(tc.e, phased.NewArray(geom.V(30, 50), 0, 1), rx)
		ref.SetInterferers([]Interferer{{Pos: src.Tx.Pos, EIRPdBm: eirp, DutyCycle: 1}})
		epoch := victim.pathEpoch
		for _, tb := range beams {
			for _, rb := range beams {
				got := victim.InterferedSNRdB(tb, rb, src, eirp)
				if want := ref.SNRdB(tb, rb); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: InterferedSNRdB(%d,%d) = %v, SetInterferers+SNRdB %v", tc.name, tb, rb, got, want)
				}
			}
		}
		if victim.Interferers != nil || victim.pathEpoch != epoch {
			t.Errorf("%s: InterferedSNRdB changed the victim's interferers or epoch", tc.name)
		}
		tb, rb, clearBest := victim.BestPair()
		if intf := victim.InterferedSNRdB(tb, rb, src, eirp); !(intf < clearBest) {
			t.Errorf("%s: interfered SNR %v at the best pair not below clear %v", tc.name, intf, clearBest)
		}
	}
}

// TestInterferedSNRdBRefusesForeignSource: a source link that does not share
// the victim's Rx array, environment or blockers traced different rays, so
// pricing from its paths panics instead of answering wrongly.
func TestInterferedSNRdBRefusesForeignSource(t *testing.T) {
	victim := testLink(7)
	for name, mut := range map[string]func(*Link){
		"rx array":    func(l *Link) { l.Rx = phased.NewArray(l.Rx.Pos, l.Rx.OrientDeg, 2) },
		"environment": func(l *Link) { l.Env = emptyRoom() },
		"blockers":    func(l *Link) { l.Blockers = []Blocker{DefaultBlocker(geom.V(24, 50))} },
	} {
		src := NewLink(victim.Env, phased.NewArray(geom.V(24, 51), 0, 3), victim.Rx)
		mut(src)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: a source with a different %s did not panic", name, name)
				}
			}()
			victim.InterferedSNRdB(0, 0, src, 10)
		}()
	}
}

func TestSnapshotBestPairMatches(t *testing.T) {
	l := testLink(7)
	snap := l.Snapshot()
	t1, r1, s1 := l.BestPair()
	t2, r2, s2 := snap.BestPair()
	if t1 != t2 || r1 != r2 || math.Abs(s1-s2) > 1e-9 {
		t.Errorf("snapshot best (%d,%d,%v) vs link (%d,%d,%v)", t2, r2, s2, t1, r1, s1)
	}
}

// TestSnapshotBestPairMemo: a snapshot sweeps for its best pair once.
// Concurrent first calls must all get the row-major argmax of Sweep, and a
// repeat call must allocate nothing.
func TestSnapshotBestPairMemo(t *testing.T) {
	snap := testLink(7).Snapshot()
	wantT, wantR, want := 0, 0, math.Inf(-1)
	for tx, row := range snap.Sweep() {
		for rx, v := range row {
			if v > want {
				wantT, wantR, want = tx, rx, v
			}
		}
	}

	type pair struct {
		tx, rx int
		snr    float64
	}
	got := make([]pair, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tx, rx, snr := snap.BestPair()
			got[g] = pair{tx, rx, snr}
		}()
	}
	wg.Wait()
	for g, p := range got {
		if p.tx != wantT || p.rx != wantR || math.Float64bits(p.snr) != math.Float64bits(want) {
			t.Errorf("goroutine %d: BestPair (%d,%d,%v), Sweep argmax (%d,%d,%v)", g, p.tx, p.rx, p.snr, wantT, wantR, want)
		}
	}

	if testutil.RaceEnabled {
		return // allocation counts are unreliable under -race
	}
	if avg := testing.AllocsPerRun(100, func() { snap.BestPair() }); avg != 0 {
		t.Errorf("memoized BestPair allocates %v per call, want 0", avg)
	}
}

func TestTraceBetweenSymmetry(t *testing.T) {
	// Reciprocity: path distances between A and B match in both directions.
	l := testLink(9)
	fwd := l.traceBetween(l.Tx.Pos, l.Rx.Pos)
	rev := l.traceBetween(l.Rx.Pos, l.Tx.Pos)
	if len(fwd) != len(rev) {
		t.Fatalf("path count %d vs %d", len(fwd), len(rev))
	}
	sum := func(ps []Path) float64 {
		var s float64
		for _, p := range ps {
			s += p.Dist
		}
		return s
	}
	if math.Abs(sum(fwd)-sum(rev)) > 1e-6 {
		t.Error("total path length not reciprocal")
	}
}

func TestDefaultBlocker(t *testing.T) {
	b := DefaultBlocker(geom.V(1, 2))
	if b.Radius <= 0 || b.MaxAttenDB <= 0 {
		t.Errorf("bad default blocker %+v", b)
	}
}

func TestRotationChangesGainNotPaths(t *testing.T) {
	l := testLink(9)
	nPaths := len(l.Paths())
	s0 := l.SNRdB(12, 12)
	l.RotateRx(180 + 40)
	if len(l.Paths()) != nPaths {
		t.Error("rotation changed path geometry")
	}
	if s1 := l.SNRdB(12, 12); s1 >= s0 {
		t.Errorf("40 deg rotation did not reduce aligned-pair SNR (%v -> %v)", s0, s1)
	}
}

func TestBestPairMatchesExhaustiveScan(t *testing.T) {
	// BestPair's column-maximum search must agree exactly — winner indices,
	// tie-break, and SNR bits — with the naive row-major scan over SNRdB it
	// replaces, with and without interference.
	l := testLink(7)
	for pass := 0; pass < 2; pass++ {
		if pass == 1 {
			l.SetInterferers([]Interferer{{Pos: geom.V(24, 53), EIRPdBm: 5, DutyCycle: 0.8}})
		}
		bt, br, bs := l.BestPair()
		wt, wr, ws := 0, 0, math.Inf(-1)
		for tb := 0; tb < phased.NumBeams; tb++ {
			for rb := 0; rb < phased.NumBeams; rb++ {
				if s := l.SNRdB(tb, rb); s > ws {
					wt, wr, ws = tb, rb, s
				}
			}
		}
		if bt != wt || br != wr || bs != ws {
			t.Fatalf("pass %d: BestPair (%d,%d,%v) vs scan (%d,%d,%v)", pass, bt, br, bs, wt, wr, ws)
		}
	}
}

func TestRotatedLinkMatchesFresh(t *testing.T) {
	// The Rx-only invalidation path (RotateRx -> rebuildRxGains) must leave
	// the link indistinguishable from one freshly built at the rotated
	// orientation, including the interferer-gain caches.
	intf := []Interferer{{Pos: geom.V(26, 47), EIRPdBm: 3, DutyCycle: 0.7}}
	l := testLink(9)
	l.SetInterferers(intf)
	l.BestPair() // populate every cache at the base orientation
	l.RotateRx(215)

	e := emptyRoom()
	tx := phased.NewArray(geom.V(20, 50), 0, 1)
	rx := phased.NewArray(geom.V(29, 50), 215, 2)
	fresh := NewLink(e, tx, rx)
	fresh.SetInterferers(intf)

	lt, lr, ls := l.BestPair()
	ft, fr, fs := fresh.BestPair()
	if lt != ft || lr != fr || ls != fs {
		t.Fatalf("rotated BestPair (%d,%d,%v) vs fresh (%d,%d,%v)", lt, lr, ls, ft, fr, fs)
	}
	got, want := l.Sweep(), fresh.Sweep()
	for tb := range want {
		for rb := range want[tb] {
			if got[tb][rb] != want[tb][rb] {
				t.Fatalf("sweep[%d][%d] = %v after rotation, fresh link = %v", tb, rb, got[tb][rb], want[tb][rb])
			}
		}
	}
}

func TestSamePoseMutationsAreNoOps(t *testing.T) {
	l := testLink(8)
	l.BestPair()
	e0 := l.pathEpoch
	l.MoveRx(l.Rx.Pos)
	l.RotateRx(l.Rx.OrientDeg)
	if l.pathEpoch != e0 {
		t.Error("same-pose MoveRx/RotateRx advanced the epoch")
	}
}
