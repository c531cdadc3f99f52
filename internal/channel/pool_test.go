package channel

import "testing"

// TestAmpPoolDropsOversizedScratch is the regression test for the scratch
// retention bug: CSIInto used to Put every amp buffer back into ampPool
// regardless of size, so one campaign with oversized PDPs pinned its large
// backing arrays for the life of the process. The Put path must drop buffers
// whose capacity exceeds maxPooledAmpCap.
func TestAmpPoolDropsOversizedScratch(t *testing.T) {
	m := &Measurement{PDP: make([]float64, maxPooledAmpCap+1)}
	if got := m.CSIInto(nil); len(got) == 0 {
		t.Fatal("CSI returned empty spectrum")
	}
	// Same-goroutine Put→Get hits the per-P private slot: had the oversized
	// buffer been retained, this Get would hand it straight back.
	ap := ampPool.Get().(*[]float64)
	if cap(*ap) > maxPooledAmpCap {
		t.Fatalf("ampPool retained oversized scratch: cap %d > limit %d", cap(*ap), maxPooledAmpCap)
	}
	ampPool.Put(ap)
}

// TestMeasureIntoReusesPDP pins the scratch-reuse contract of MeasureInto:
// repeated calls on one Measurement must not reallocate the PDP, and the
// values must match a fresh Measure exactly.
func TestMeasureIntoReusesPDP(t *testing.T) {
	l := testLink(5)
	var m Measurement
	l.MeasureInto(&m, 12, 12)
	first := &m.PDP[0]
	want := l.Measure(12, 12)
	l.MeasureInto(&m, 12, 12)
	if &m.PDP[0] != first {
		t.Error("MeasureInto reallocated the PDP scratch")
	}
	if m.RSSdBm != want.RSSdBm || m.NoiseDBm != want.NoiseDBm ||
		m.SNRdB != want.SNRdB || m.ToFNs != want.ToFNs {
		t.Errorf("MeasureInto = %+v, want %+v", m, want)
	}
	for i := range m.PDP {
		if m.PDP[i] != want.PDP[i] {
			t.Fatalf("PDP[%d] = %g, want %g", i, m.PDP[i], want.PDP[i])
		}
	}
}
