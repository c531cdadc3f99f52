package drift

import (
	"encoding/binary"
	"math"
	"testing"

	"github.com/libra-wlan/libra/internal/obs/decisionlog"
)

// fuzzWidth is the feature width of served audit records
// (dataset.NumFeatures, which this package cannot import).
const fuzzWidth = 7

// FuzzParseProfile: any profile parseProfile accepts at the records' width
// is accepted by NewMonitor, and a window of arbitrary records then closes
// with a finite PSI and with KS and TV distances at most 1, within the
// slack the proportion sums are allowed. The second input supplies the
// records: fuzzWidth float32 features and an action byte each, zeros once
// it runs dry. The seeds under testdata/fuzz/FuzzParseProfile are a
// libra-train -profile-out profile, 9- and 3-feature profiles, props
// [-3, 4] with actions [5, -4], and props [1e308, 1e308].
func FuzzParseProfile(f *testing.F) {
	const bound = 1 + propSumTol
	f.Fuzz(func(t *testing.T, data, recs []byte) {
		p, err := parseProfile(data, fuzzWidth)
		if err != nil {
			return
		}
		n := 1 + min(len(recs)/(4*fuzzWidth+1), 255)
		m, err := NewMonitor(Config{Profile: p, WindowRecords: n, Quiet: true})
		if err != nil {
			t.Fatalf("parsed profile refused by NewMonitor: %v", err)
		}
		next := func() byte {
			if len(recs) == 0 {
				return 0
			}
			b := recs[0]
			recs = recs[1:]
			return b
		}
		for i := 0; i < n; i++ {
			r := decisionlog.Record{Kind: decisionlog.KindDecision, ReqID: uint64(i), Action: next()}
			for j := 0; j < fuzzWidth; j++ {
				b := [4]byte{next(), next(), next(), next()}
				r.Feat[j] = math.Float32frombits(binary.LittleEndian.Uint32(b[:]))
			}
			m.Observe(&r)
		}
		ws := m.Windows()
		if len(ws) != 1 {
			t.Fatalf("%d records in windows of %d closed %d windows", n, n, len(ws))
		}
		w := ws[0]
		for i, v := range w.PSIPerFeature {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("feature %d PSI %v", i, v)
			}
		}
		if !(w.KSMax <= bound) || !(w.ActionTV <= bound) {
			t.Fatalf("KS %v, action TV %v: a distance between distributions exceeds 1", w.KSMax, w.ActionTV)
		}
	})
}
