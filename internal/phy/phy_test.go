package phy

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestMCSTableMonotone(t *testing.T) {
	for m := MinMCS; m < MaxMCS; m++ {
		if m.RateBps() >= (m + 1).RateBps() {
			t.Errorf("rate not increasing at %v", m)
		}
		if m.SNRReqDB() >= (m + 1).SNRReqDB() {
			t.Errorf("SNR requirement not increasing at %v", m)
		}
	}
}

func TestMCSRange(t *testing.T) {
	// The paper's X60 PHY: 9 SC MCSs, 300 Mbps to 4.75 Gbps.
	if NumMCS != 9 {
		t.Errorf("NumMCS = %d", NumMCS)
	}
	if MinMCS.RateMbps() != 300 {
		t.Errorf("min rate = %v", MinMCS.RateMbps())
	}
	if MaxMCS.RateMbps() != 4750 {
		t.Errorf("max rate = %v", MaxMCS.RateMbps())
	}
	if MaxRateBps() != MaxMCS.RateBps() {
		t.Error("MaxRateBps mismatch")
	}
}

func TestInvalidMCS(t *testing.T) {
	bad := MCS(-1)
	if bad.Valid() || bad.RateBps() != 0 {
		t.Error("negative MCS should be invalid with zero rate")
	}
	if !math.IsInf(bad.SNRReqDB(), 1) {
		t.Error("invalid MCS SNR requirement should be +Inf")
	}
	if !strings.Contains(bad.String(), "invalid") {
		t.Errorf("String = %q", bad.String())
	}
	if CDR(bad, 30) != 0 {
		t.Error("invalid MCS CDR should be 0")
	}
}

func TestFrameStructure(t *testing.T) {
	// 10 ms frames, 100 slots of 100 us, 92 codewords each (§4.1).
	if FrameDuration != 0.01 || SlotsPerFrame != 100 || CodewordsPerSlot != 92 {
		t.Error("frame structure constants changed")
	}
	if CodewordsPerFrame != 9200 {
		t.Errorf("codewords per frame = %d", CodewordsPerFrame)
	}
	if math.Abs(SlotDuration-100e-6) > 1e-12 {
		t.Errorf("slot duration = %v", SlotDuration)
	}
}

func TestCDRWaterfall(t *testing.T) {
	m := MCS(4)
	// Exactly 0.5 at the requirement.
	if got := CDR(m, m.SNRReqDB()); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("CDR at requirement = %v", got)
	}
	// Monotone in SNR.
	prev := -1.0
	for snr := -10.0; snr <= 40; snr += 0.5 {
		c := CDR(m, snr)
		if c < prev {
			t.Fatalf("CDR not monotone at %v", snr)
		}
		if c < 0 || c > 1 {
			t.Fatalf("CDR out of range: %v", c)
		}
		prev = c
	}
	// Saturates.
	if CDR(m, m.SNRReqDB()+8) < 0.999 {
		t.Error("CDR should saturate well above the requirement")
	}
	if CDR(m, m.SNRReqDB()-8) > 0.001 {
		t.Error("CDR should collapse well below the requirement")
	}
}

func TestCDRDegenerateInputs(t *testing.T) {
	if CDR(3, math.Inf(-1)) != 0 {
		t.Error("CDR at -Inf SNR should be 0")
	}
	if CDR(3, math.NaN()) != 0 {
		t.Error("CDR at NaN SNR should be 0")
	}
}

func TestSampleCDRStats(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := MCS(3)
	snr := m.SNRReqDB() + 1
	want := CDR(m, snr)
	var sum float64
	const n = 2000
	for i := 0; i < n; i++ {
		c := SampleCDR(m, snr, rng)
		if c < 0 || c > 1 {
			t.Fatalf("sample out of range: %v", c)
		}
		sum += c
	}
	if got := sum / n; math.Abs(got-want) > 0.01 {
		t.Errorf("sample mean = %v, want ~%v", got, want)
	}
}

func TestSampleCDRExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	if SampleCDR(0, -100, rng) != 0 {
		t.Error("dead channel should sample 0")
	}
	if SampleCDR(0, 100, rng) != 1 {
		t.Error("perfect channel should sample 1")
	}
}

func TestThroughput(t *testing.T) {
	if got := Throughput(MaxMCS, 1); math.Abs(got-4750e6*macEfficiency) > 1 {
		t.Errorf("max throughput = %v", got)
	}
	if Throughput(MaxMCS, 0) != 0 {
		t.Error("zero CDR should give zero throughput")
	}
}

func TestIsWorking(t *testing.T) {
	cases := []struct {
		cdr, th float64
		want    bool
	}{
		{0.5, 200e6, true},
		{0.05, 200e6, false}, // CDR too low
		{0.5, 100e6, false},  // throughput too low
		{0.10, 200e6, false}, // strict inequality
		{0.11, 150e6, false},
	}
	for _, c := range cases {
		if got := IsWorking(c.cdr, c.th); got != c.want {
			t.Errorf("IsWorking(%v, %v) = %v", c.cdr, c.th, got)
		}
	}
}

func TestBestMCS(t *testing.T) {
	// At very high SNR the top MCS wins.
	if m, _ := BestMCS(40); m != MaxMCS {
		t.Errorf("BestMCS(40) = %v", m)
	}
	// At moderate SNR a middle MCS wins, and its throughput beats its
	// neighbors'.
	m, th := BestMCS(15)
	if m <= MinMCS || m >= MaxMCS {
		t.Errorf("BestMCS(15) = %v", m)
	}
	if th < ExpectedThroughput(m-1, 15) || th < ExpectedThroughput(m+1, 15) {
		t.Error("BestMCS not actually best")
	}
	// Dead channel.
	if _, th := BestMCS(-30); th > 1 {
		t.Errorf("BestMCS(-30) throughput = %v", th)
	}
}

func TestBestMCSBelow(t *testing.T) {
	limit := MCS(3)
	m, th := BestMCSBelow(40, limit)
	if m != limit {
		t.Errorf("BestMCSBelow high SNR = %v, want %v", m, limit)
	}
	if th > limit.RateBps() {
		t.Error("throughput exceeds PHY rate")
	}
	// Below, never exceeds the unconstrained optimum.
	mFree, thFree := BestMCS(14)
	mLim, thLim := BestMCSBelow(14, mFree)
	if mLim != mFree || thLim != thFree {
		t.Error("limit at optimum changed the result")
	}
}

func TestBestMCSBelowClampsLimit(t *testing.T) {
	if m, _ := BestMCSBelow(40, MCS(99)); m != MaxMCS {
		t.Errorf("over-limit clamp: %v", m)
	}
}

func TestStringFormat(t *testing.T) {
	s := MCS(3).String()
	if !strings.Contains(s, "MCS3") || !strings.Contains(s, "1900") {
		t.Errorf("String = %q", s)
	}
}

func TestBestMCSBelowProperty(t *testing.T) {
	f := func(snr float64, limRaw uint8) bool {
		if math.IsNaN(snr) || math.Abs(snr) > 200 {
			return true
		}
		lim := MCS(int(limRaw) % NumMCS)
		m, th := BestMCSBelow(snr, lim)
		if m < MinMCS || m > lim {
			return false
		}
		// No MCS within the limit beats the returned throughput.
		for k := MinMCS; k <= lim; k++ {
			if ExpectedThroughput(k, snr) > th+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
