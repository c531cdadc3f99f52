package dataset

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"github.com/libra-wlan/libra/internal/channel"
	"github.com/libra-wlan/libra/internal/phy"
)

// Campaign generation is moderately expensive; share one instance.
var (
	campOnce sync.Once
	mainCamp *Campaign
	testCamp *Campaign
)

func campaigns(t *testing.T) (*Campaign, *Campaign) {
	t.Helper()
	campOnce.Do(func() {
		mainCamp = GenerateMain(42)
		testCamp = GenerateTest(43)
	})
	return mainCamp, testCamp
}

func TestMainCampaignCounts(t *testing.T) {
	m, _ := campaigns(t)
	// These counts ARE Table 1: 479/81/108 cases, 94/12/12 positions.
	if got := len(m.Filter(Displacement)); got != 479 {
		t.Errorf("displacement entries = %d, want 479", got)
	}
	if got := len(m.Filter(Blockage)); got != 81 {
		t.Errorf("blockage entries = %d, want 81", got)
	}
	if got := len(m.Filter(Interference)); got != 108 {
		t.Errorf("interference entries = %d, want 108", got)
	}
	if got := m.SiteCount(Displacement, ""); got != 94 {
		t.Errorf("displacement positions = %d, want 94", got)
	}
	if got := m.SiteCount(Blockage, ""); got != 12 {
		t.Errorf("blockage positions = %d, want 12", got)
	}
	if got := m.SiteCount(Interference, ""); got != 12 {
		t.Errorf("interference positions = %d, want 12", got)
	}
	if got := m.SiteCount(-1, ""); got != 118 {
		t.Errorf("total positions = %d, want 118", got)
	}
}

func TestMainCampaignPerEnvironmentPositions(t *testing.T) {
	m, _ := campaigns(t)
	cases := []struct {
		prefix string
		want   int
	}{
		{"lobby", 30}, {"lab", 15}, {"conference", 14}, {"corridor", 59},
	}
	for _, c := range cases {
		if got := m.SiteCount(-1, c.prefix); got != c.want {
			t.Errorf("%s positions = %d, want %d", c.prefix, got, c.want)
		}
	}
}

func TestTestCampaignCounts(t *testing.T) {
	_, ts := campaigns(t)
	if got := len(ts.Filter(Displacement)); got != 165 {
		t.Errorf("displacement entries = %d, want 165", got)
	}
	if got := len(ts.Filter(Blockage)); got != 27 {
		t.Errorf("blockage entries = %d, want 27", got)
	}
	if got := len(ts.Filter(Interference)); got != 36 {
		t.Errorf("interference entries = %d, want 36", got)
	}
	if got := ts.SiteCount(-1, "building1"); got != 27 {
		t.Errorf("building 1 positions = %d, want 27", got)
	}
	if got := ts.SiteCount(-1, "building2"); got != 15 {
		t.Errorf("building 2 positions = %d, want 15", got)
	}
}

func TestLabelProportionShapes(t *testing.T) {
	m, _ := campaigns(t)
	// The paper's qualitative shape: BA dominates displacement and
	// blockage; RA is the majority under interference (§5.2).
	ba, ra, _ := m.CountLabels(Displacement)
	if ba <= 3*ra {
		t.Errorf("displacement BA/RA = %d/%d, expected strong BA majority", ba, ra)
	}
	ba, ra, _ = m.CountLabels(Blockage)
	if ba <= 2*ra {
		t.Errorf("blockage BA/RA = %d/%d, expected BA majority", ba, ra)
	}
	ba, ra, _ = m.CountLabels(Interference)
	if ra <= ba {
		t.Errorf("interference BA/RA = %d/%d, expected RA majority", ba, ra)
	}
}

func TestNAAugmentation(t *testing.T) {
	m, _ := campaigns(t)
	_, _, na := m.CountLabels(-1)
	impaired := len(m.Filter(Displacement)) + len(m.Filter(Blockage)) + len(m.Filter(Interference))
	// One NA entry per new state (§7).
	if na != impaired {
		t.Errorf("NA entries = %d, want %d", na, impaired)
	}
}

func TestFeaturesFinite(t *testing.T) {
	m, ts := campaigns(t)
	for _, c := range []*Campaign{m, ts} {
		for i, e := range c.Entries {
			for j, f := range e.Features {
				if math.IsNaN(f) || math.IsInf(f, 0) {
					t.Fatalf("entry %d feature %s = %v", i, FeatureNames[j], f)
				}
			}
			if e.Features[5] < 0 || e.Features[5] > 1 {
				t.Fatalf("entry %d CDR = %v", i, e.Features[5])
			}
			if e.Features[3] > 1+1e-9 || e.Features[4] > 1+1e-9 {
				t.Fatalf("entry %d similarity > 1", i)
			}
			if e.Features[6] != float64(e.InitMCS) {
				t.Fatalf("entry %d initMCS feature mismatch", i)
			}
		}
	}
}

func TestGroundTruthConsistency(t *testing.T) {
	m, _ := campaigns(t)
	for i, e := range m.Entries {
		if e.Impairment == NoImpairment {
			continue
		}
		wantRA := e.ThRABps >= e.ThBABps*(1-labelEps)
		if wantRA && e.Label != ActRA {
			t.Fatalf("entry %d: labeled %v but ThRA %v >= ThBA %v", i, e.Label, e.ThRABps, e.ThBABps)
		}
		if !wantRA && e.Label != ActBA {
			t.Fatalf("entry %d: labeled %v but ThBA wins", i, e.Label)
		}
	}
}

func TestThroughputTables(t *testing.T) {
	m, _ := campaigns(t)
	for i, e := range m.Entries {
		for mc := phy.MinMCS; mc <= phy.MaxMCS; mc++ {
			if e.InitBeamTh[mc] < 0 || e.BestBeamTh[mc] < 0 {
				t.Fatalf("entry %d: negative throughput", i)
			}
			if e.InitBeamTh[mc] > phy.MaxRateBps() || e.BestBeamTh[mc] > phy.MaxRateBps() {
				t.Fatalf("entry %d: table exceeds PHY rate", i)
			}
		}
		// The best pair never does worse than the initial pair at the same
		// MCS (it maximizes SNR).
		for mc := phy.MinMCS; mc <= phy.MaxMCS; mc++ {
			if e.BestBeamTh[mc] < e.InitBeamTh[mc]-1 && e.Impairment != NoImpairment {
				t.Fatalf("entry %d: best-beam table below init-beam at %v", i, mc)
			}
		}
	}
}

func TestToFInfCoding(t *testing.T) {
	m, _ := campaigns(t)
	sawInf := false
	for _, e := range m.Entries {
		f := e.Features[1]
		if f == ToFInfCode {
			sawInf = true
		} else if f < -tofClamp-1e-9 || f > tofClamp+1e-9 {
			t.Fatalf("ToF feature %v outside clamp", f)
		}
	}
	// Hard blockage / deep rotations must yield unmeasurable ToF somewhere.
	if !sawInf {
		t.Error("no ToF-infinity cases in the whole campaign")
	}
}

func TestBackwardMotionNegativeToF(t *testing.T) {
	m, _ := campaigns(t)
	// Fig. 5 shape: most RA displacement cases have negative ToF diff.
	neg, tot := 0, 0
	for _, e := range m.Filter(Displacement) {
		if e.Label != ActRA {
			continue
		}
		tot++
		if e.Features[1] < 0 {
			neg++
		}
	}
	if tot == 0 || float64(neg)/float64(tot) < 0.5 {
		t.Errorf("negative-ToF fraction among RA displacement = %d/%d", neg, tot)
	}
}

func TestDeterministicGeneration(t *testing.T) {
	a := GenerateTest(7)
	b := GenerateTest(7)
	if len(a.Entries) != len(b.Entries) {
		t.Fatal("lengths differ")
	}
	for i := range a.Entries {
		if a.Entries[i].Features != b.Entries[i].Features || a.Entries[i].Label != b.Entries[i].Label {
			t.Fatal("same seed produced different campaigns")
		}
	}
}

func TestToML(t *testing.T) {
	m, _ := campaigns(t)
	two := m.ToML(false)
	three := m.ToML(true)
	if err := two.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := three.Validate(); err != nil {
		t.Fatal(err)
	}
	if two.NumClasses() != 2 {
		t.Errorf("two-class set has %d classes", two.NumClasses())
	}
	if three.NumClasses() != 3 {
		t.Errorf("three-class set has %d classes", three.NumClasses())
	}
	if three.Len() != len(m.Entries) {
		t.Errorf("three-class set dropped entries: %d vs %d", three.Len(), len(m.Entries))
	}
	ba, ra, _ := m.CountLabels(-1)
	if two.Len() != ba+ra {
		t.Errorf("two-class set size %d, want %d", two.Len(), ba+ra)
	}
}

func TestInitMCSRange(t *testing.T) {
	m, _ := campaigns(t)
	for _, e := range m.Entries {
		if !e.InitMCS.Valid() {
			t.Fatalf("invalid init MCS %v", e.InitMCS)
		}
	}
}

func TestFeaturizeObserved(t *testing.T) {
	mkMeas := func(snr, noise, tof float64, pdp []float64) channel.Measurement {
		return channel.Measurement{SNRdB: snr, NoiseDBm: noise, ToFNs: tof, PDP: pdp}
	}
	pdp := make([]float64, 16)
	pdp[2] = 1
	pdp[7] = 0.3
	init := mkMeas(20, -74, 30, pdp)
	now := mkMeas(14, -70, 45, pdp)
	f := FeaturizeObserved(init, now, 0.42, 5)
	if f[0] != 6 {
		t.Errorf("SNR diff = %v", f[0])
	}
	if f[1] != -15 {
		t.Errorf("ToF diff = %v", f[1])
	}
	if f[2] != 4 {
		t.Errorf("noise diff = %v", f[2])
	}
	if math.Abs(f[3]-1) > 1e-9 {
		t.Errorf("identical PDP similarity = %v", f[3])
	}
	if f[5] != 0.42 || f[6] != 5 {
		t.Errorf("cdr/mcs = %v/%v", f[5], f[6])
	}
}

// TestFeaturizeSharedPDPMatchesCopies: two measurements carrying one PDP
// slice (one snapshot and beam pair under two offsets) take the one-CSI
// path, which must give the features of the same measurements with the PDP
// copied, bit for bit.
func TestFeaturizeSharedPDPMatchesCopies(t *testing.T) {
	pdp := make([]float64, channel.PDPTaps)
	for i := range pdp {
		pdp[i] = 1e-7 * math.Exp(-float64(i)/9) * (1 + 0.3*math.Sin(float64(i)))
	}
	init := channel.Measurement{RSSdBm: -61, SNRdB: 21.5, NoiseDBm: -82.5, ToFNs: 12.3, PDP: pdp}
	now := init
	now.RSSdBm -= 7.25
	now.SNRdB -= 7.25
	shared := FeaturizeObserved(init, now, 0.37, 9)
	now.PDP = append([]float64(nil), pdp...)
	copied := FeaturizeObserved(init, now, 0.37, 9)
	for i := range copied {
		if math.Float64bits(shared[i]) != math.Float64bits(copied[i]) {
			t.Errorf("feature %d: shared PDP %v, copied PDP %v", i, shared[i], copied[i])
		}
	}
}

func TestFeaturizeToFClamp(t *testing.T) {
	init := channel.Measurement{ToFNs: 0, PDP: []float64{1}}
	now := channel.Measurement{ToFNs: 100, PDP: []float64{1}}
	f := FeaturizeObserved(init, now, 0, 0)
	if f[1] != -tofClamp {
		t.Errorf("clamped ToF = %v", f[1])
	}
	inf := channel.Measurement{ToFNs: math.Inf(1), PDP: []float64{1}}
	f = FeaturizeObserved(init, inf, 0, 0)
	if f[1] != ToFInfCode {
		t.Errorf("inf-coded ToF = %v", f[1])
	}
}

func TestPerturbStableToF(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := channel.Measurement{SNRdB: 10, NoiseDBm: -70, ToFNs: 33.3, PDP: []float64{1, 0, 0.5}}
	var p channel.Measurement
	perturbInto(&p, &m, defaultDrift, rng)
	// ToF quantized to the 0.5 ns grid.
	if q := math.Mod(p.ToFNs, channel.PDPBinNs); q > 1e-9 && q < channel.PDPBinNs-1e-9 {
		t.Errorf("ToF not quantized: %v", p.ToFNs)
	}
	if len(p.PDP) != len(m.PDP) {
		t.Error("PDP length changed")
	}
	if p.PDP[1] != 0 {
		t.Error("zero taps must stay zero")
	}
}

func TestActionStrings(t *testing.T) {
	if ActBA.String() != "BA" || ActRA.String() != "RA" || ActNA.String() != "NA" {
		t.Error("action names")
	}
	if Displacement.String() != "displacement" || NoImpairment.String() != "none" {
		t.Error("impairment names")
	}
}

func TestPropertyFeaturizeBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 300; i++ {
		mk := func() channel.Measurement {
			pdp := make([]float64, 32)
			for j := range pdp {
				if rng.Intn(3) == 0 {
					pdp[j] = rng.Float64()
				}
			}
			tof := rng.Float64() * 100
			if rng.Intn(10) == 0 {
				tof = math.Inf(1)
			}
			return channel.Measurement{
				SNRdB:    rng.Float64()*60 - 20,
				NoiseDBm: -80 + rng.Float64()*20,
				ToFNs:    tof,
				PDP:      pdp,
			}
		}
		f := FeaturizeObserved(mk(), mk(), rng.Float64(), phy.MCS(rng.Intn(phy.NumMCS)))
		for j, v := range f {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("feature %s = %v", FeatureNames[j], v)
			}
		}
		if f[1] < -tofClamp-1e-9 || f[1] > ToFInfCode+1e-9 {
			t.Fatalf("ToF feature %v out of range", f[1])
		}
		if f[3] < -1-1e-9 || f[3] > 1+1e-9 || f[4] < -1-1e-9 || f[4] > 1+1e-9 {
			t.Fatalf("similarity out of [-1,1]: %v / %v", f[3], f[4])
		}
	}
}

// TestCheckNilEntry requires Check to refuse a nil entry, naming its index.
func TestCheckNilEntry(t *testing.T) {
	valid := &Entry{Env: "lab", InitMCS: 3, Label: ActRA}
	c := &Campaign{Dataset: Dataset{Entries: []*Entry{valid, nil}}}
	if err := c.Check(); err == nil || !strings.Contains(err.Error(), "entry 1") {
		t.Errorf("Check() = %v, want an error naming entry 1", err)
	}
}

// TestCheckRejects feeds Check one bad entry or site each, after a valid
// entry, and requires an error that names the bad index. CDR NaN once
// passed: NaN fails both halves of a range test.
func TestCheckRejects(t *testing.T) {
	valid := func() *Entry {
		e := &Entry{Env: "lab", InitMCS: 3, Label: ActRA}
		e.Features[5] = 0.5
		return e
	}
	bad := func(edit func(*Entry)) []*Entry {
		e := valid()
		edit(e)
		return []*Entry{valid(), e}
	}
	for _, tc := range []struct {
		name    string
		entries []*Entry
		sites   []Site
		want    string
	}{
		{"MCS 42", bad(func(e *Entry) { e.InitMCS = 42 }), nil, "entry 1"},
		{"label 9", bad(func(e *Entry) { e.Label = 9 }), nil, "entry 1"},
		{"CDR 1.5", bad(func(e *Entry) { e.Features[5] = 1.5 }), nil, "entry 1"},
		{"CDR NaN", bad(func(e *Entry) { e.Features[5] = math.NaN() }), nil, "entry 1"},
		{"SNR delta +Inf", bad(func(e *Entry) { e.Features[0] = math.Inf(1) }), nil, "entry 1"},
		{"impairment 9", bad(func(e *Entry) { e.Impairment = 9 }), nil, "entry 1"},
		{"InitSNRdB NaN", bad(func(e *Entry) { e.InitSNRdB = math.NaN() }), nil, "entry 1 has non-finite InitSNRdB"},
		{"NewSNRInitPair -Inf", bad(func(e *Entry) { e.NewSNRInitPair = math.Inf(-1) }), nil, "entry 1 has non-finite NewSNRInitPair"},
		{"NewSNRBestPair +Inf", bad(func(e *Entry) { e.NewSNRBestPair = math.Inf(1) }), nil, "entry 1 has non-finite NewSNRBestPair"},
		{"InitThBps NaN", bad(func(e *Entry) { e.InitThBps = math.NaN() }), nil, "entry 1 has non-finite InitThBps"},
		{"ThRABps +Inf", bad(func(e *Entry) { e.ThRABps = math.Inf(1) }), nil, "entry 1 has non-finite ThRABps"},
		{"ThBABps -Inf", bad(func(e *Entry) { e.ThBABps = math.Inf(-1) }), nil, "entry 1 has non-finite ThBABps"},
		{"InitBeamTh[4] NaN", bad(func(e *Entry) { e.InitBeamTh[4] = math.NaN() }), nil, "entry 1 has non-finite InitBeamTh[4]"},
		{"BestBeamTh[0] +Inf", bad(func(e *Entry) { e.BestBeamTh[0] = math.Inf(1) }), nil, "entry 1 has non-finite BestBeamTh[0]"},
		{"site impairment 9", []*Entry{valid()}, []Site{{Env: "lab"}, {Env: "lab", Impairment: 9}}, "site 1"},
	} {
		c := &Campaign{Dataset: Dataset{Entries: tc.entries}, Sites: tc.sites}
		err := c.Check()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Check() = %v, want an error naming %s", tc.name, err, tc.want)
		}
	}
	ok := &Campaign{Dataset: Dataset{Entries: []*Entry{valid()}}, Sites: []Site{{Env: "lab"}}}
	if err := ok.Check(); err != nil {
		t.Errorf("valid campaign refused: %v", err)
	}
}
