package drift

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/libra-wlan/libra/internal/obs/decisionlog"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestStatistics(t *testing.T) {
	ref := []float64{0.25, 0.25, 0.25, 0.25}
	if p := PSI(ref, ref); !almost(p, 0) {
		t.Errorf("PSI(ref, ref) = %v", p)
	}
	if k := KS(ref, ref); !almost(k, 0) {
		t.Errorf("KS(ref, ref) = %v", k)
	}
	if v := TV(ref, ref); !almost(v, 0) {
		t.Errorf("TV(ref, ref) = %v", v)
	}
	shifted := []float64{0.7, 0.1, 0.1, 0.1}
	if p := PSI(ref, shifted); p < 0.25 {
		t.Errorf("PSI under a gross shift = %v, want > 0.25", p)
	}
	if k := KS(ref, shifted); !almost(k, 0.45) {
		t.Errorf("KS = %v, want 0.45", k)
	}
	if v := TV(ref, shifted); !almost(v, 0.45) {
		t.Errorf("TV = %v, want 0.45", v)
	}
	// PSI stays finite when a bin empties entirely on one side.
	if p := PSI([]float64{1, 0}, []float64{0, 1}); math.IsInf(p, 0) || math.IsNaN(p) {
		t.Errorf("PSI with empty bins = %v", p)
	}
}

// trainCols builds a deterministic synthetic "training" distribution:
// feature 0 uniform on [0,1), feature 1 discrete in {0,1,2}.
func trainCols(n int, rng *rand.Rand) [][]float64 {
	cols := [][]float64{make([]float64, n), make([]float64, n)}
	for i := 0; i < n; i++ {
		cols[0][i] = rng.Float64()
		cols[1][i] = float64(rng.Intn(3))
	}
	return cols
}

func testProfile(t *testing.T) *Profile {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	cols := trainCols(4000, rng)
	labels := make([]int, 4000)
	for i := range labels {
		labels[i] = rng.Intn(5)
	}
	p, err := BuildProfile("unit", []string{"f0", "f1"}, cols, labels, 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBuildProfile(t *testing.T) {
	p := testProfile(t)
	if len(p.Features) != 2 {
		t.Fatalf("features = %d", len(p.Features))
	}
	for _, f := range p.Features {
		var s float64
		for _, pr := range f.Props {
			s += pr
		}
		if !almost(s, 1) {
			t.Errorf("feature %q props sum to %v", f.Name, s)
		}
	}
	// The discrete feature has only 3 distinct values: duplicate quantile
	// edges must have been compacted, not emitted as empty bins.
	if n := len(p.Features[1].Edges); n > 2 {
		t.Errorf("discrete feature kept %d edges, want <= 2", n)
	}
	var s float64
	for _, a := range p.Actions {
		s += a
	}
	if !almost(s, 1) {
		t.Errorf("action props sum to %v", s)
	}
}

func TestProfileSaveLoadRoundTrip(t *testing.T) {
	p := testProfile(t)
	path := filepath.Join(t.TempDir(), "profile.json")
	if err := p.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path, len(p.Features))
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != p.Name || len(got.Features) != len(p.Features) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	for i := range p.Features {
		for j := range p.Features[i].Props {
			if got.Features[i].Props[j] != p.Features[i].Props[j] {
				t.Fatalf("feature %d prop %d drifted through JSON", i, j)
			}
		}
	}
}

// profileJSON renders a profile of nfeat features, each with one edge at
// 0.5 and the given props, and the given action proportions.
func profileJSON(nfeat int, props, actions string) []byte {
	var b strings.Builder
	b.WriteString(`{"name":"unit","features":[`)
	for i := 0; i < nfeat; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"name":"f%d","edges":[0.5],"props":%s}`, i, props)
	}
	fmt.Fprintf(&b, `],"actions":%s}`, actions)
	return []byte(b.String())
}

// TestLoadFileRejects: a profile loads only at the audit records' width and
// only when its proportion vectors are distributions. Against 7-feature
// records, a 9-feature profile would bin two zero-padded phantom features
// and trip every window, and a 3-feature one would watch 3 of the 7. Props
// [-3, 4] with actions [5, -4] would report KS and TV distances above 3,
// and props [1e308, 1e308] an infinite PSI and KS.
func TestLoadFileRejects(t *testing.T) {
	const width = 7
	dir := t.TempDir()
	load := func(data []byte) error {
		path := filepath.Join(dir, "profile.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadFile(path, width)
		return err
	}
	if err := load(profileJSON(width, "[0.25,0.75]", "[0.5,0.3,0.2]")); err != nil {
		t.Fatalf("a valid profile is refused: %v", err)
	}
	for _, c := range []struct {
		name    string
		data    []byte
		mention []string
	}{
		{"9 features", profileJSON(9, "[0.25,0.75]", "[0.5,0.5]"), []string{"9 features", "carry 7"}},
		{"3 features", profileJSON(3, "[0.25,0.75]", "[0.5,0.5]"), []string{"3 features", "carry 7"}},
		{"negative props", profileJSON(width, "[-3,4]", "[0.5,0.5]"), []string{"props", "-3"}},
		{"negative actions", profileJSON(width, "[0.25,0.75]", "[5,-4]"), []string{"actions", "5"}},
		{"huge props", profileJSON(width, "[1e308,1e308]", "[0.5,0.5]"), []string{"props", "1e+308"}},
		{"props short of 1", profileJSON(width, "[0.25,0.25]", "[0.5,0.5]"), []string{"props sum to 0.5"}},
		{"actions past 1", profileJSON(width, "[0.25,0.75]", "[0.5,0.6]"), []string{"actions sum to 1.1"}},
	} {
		err := load(c.data)
		if err == nil {
			t.Errorf("%s: loaded", c.name)
			continue
		}
		for _, m := range c.mention {
			if !strings.Contains(err.Error(), m) {
				t.Errorf("%s: error %q does not mention %q", c.name, err, m)
			}
		}
	}
}

// decRecord builds a decision record from a 2-feature sample.
func decRecord(id uint64, f0, f1 float64, action uint8) decisionlog.Record {
	r := decisionlog.Record{
		Kind: decisionlog.KindDecision, Action: action,
		ReqID: id, LinkID: id * 31, ModelID: 1,
	}
	r.Feat[0], r.Feat[1] = float32(f0), float32(f1)
	return r
}

// TestMonitorTripsOnShiftOnly is the paper's cross-building scenario in
// miniature: in-distribution traffic must close windows without tripping;
// traffic from a shifted distribution must trip.
func TestMonitorTripsOnShiftOnly(t *testing.T) {
	p := testProfile(t)

	feed := func(gen func(i int) (float64, float64)) *Monitor {
		m, err := NewMonitor(Config{Profile: p, WindowRecords: 500, Quiet: true})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 2000; i++ {
			f0, f1 := gen(i)
			rec := decRecord(uint64(i), f0, f1, uint8(rng.Intn(5)))
			m.Observe(&rec)
		}
		m.Flush()
		return m
	}

	inRng := rand.New(rand.NewSource(2))
	in := feed(func(int) (float64, float64) { return inRng.Float64(), float64(inRng.Intn(3)) })
	if in.Trips() != 0 {
		t.Errorf("in-distribution traffic tripped %d windows", in.Trips())
	}
	if len(in.Windows()) != 4 {
		t.Errorf("closed %d windows, want 4", len(in.Windows()))
	}

	outRng := rand.New(rand.NewSource(3))
	out := feed(func(int) (float64, float64) { return 0.9 + 0.1*outRng.Float64(), 2 })
	if out.Trips() == 0 {
		t.Error("shifted traffic tripped no windows")
	}
	for _, w := range out.Windows() {
		if w.PSIMax <= in.Windows()[0].PSIMax {
			t.Errorf("shifted window %d PSI %v not above in-distribution %v",
				w.Index, w.PSIMax, in.Windows()[0].PSIMax)
		}
	}
}

func TestMonitorAccuracyJoin(t *testing.T) {
	p := testProfile(t)
	m, err := NewMonitor(Config{Profile: p, WindowRecords: 100, Quiet: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		rec := decRecord(uint64(i), 0.5, 1, uint8(i%5))
		m.Observe(&rec)
		// Truth agrees for even ids, disagrees for odd.
		truth := decisionlog.Record{
			Kind: decisionlog.KindTruth, ReqID: uint64(i), LinkID: uint64(i) * 31,
			Action: uint8(i % 5),
		}
		if i%2 == 1 {
			truth.Action = uint8((i + 1) % 5)
		}
		m.Observe(&truth)
	}
	m.Flush()
	// The window rolls on the 100th decision, before that decision's truth
	// arrives; the straggler join lands in a final join-only window.
	w := m.Windows()
	if len(w) != 2 {
		t.Fatalf("windows = %d, want 2", len(w))
	}
	var joined, correct uint64
	for _, win := range w {
		joined += win.Joined
		correct += win.Correct
		if win.Records == 0 && win.Tripped {
			t.Error("join-only window tripped")
		}
	}
	if joined != 100 || correct != 50 {
		t.Fatalf("join stats = %d/%d, want 100/50", joined, correct)
	}
	// A truth record with no matching decision must be a no-op.
	orphan := decisionlog.Record{Kind: decisionlog.KindTruth, ReqID: 1 << 40, Action: 1}
	m.Observe(&orphan)
	if m.nWin != 0 || m.joined != 0 {
		t.Error("orphan truth record perturbed monitor state")
	}
}

// TestAnalyzeOrderInvariant shuffles the same record set three ways and
// requires identical reports — the offline half of the replay-determinism
// contract.
func TestAnalyzeOrderInvariant(t *testing.T) {
	p := testProfile(t)
	rng := rand.New(rand.NewSource(5))
	var recs []decisionlog.Record
	for i := 0; i < 1500; i++ {
		recs = append(recs, decRecord(uint64(i), rng.Float64(), float64(rng.Intn(3)), uint8(rng.Intn(5))))
		if i%3 == 0 {
			recs = append(recs, decisionlog.Record{
				Kind: decisionlog.KindTruth, ReqID: uint64(i), LinkID: uint64(i) * 31,
				Action: uint8(rng.Intn(5)),
			})
		}
	}
	cfg := Config{Profile: p, WindowRecords: 256}
	base, err := Analyze(recs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if base.Decisions != 1500 || base.Truths != 500 {
		t.Fatalf("counted %d decisions / %d truths", base.Decisions, base.Truths)
	}
	for trial := 0; trial < 3; trial++ {
		shuffled := make([]decisionlog.Record, len(recs))
		copy(shuffled, recs)
		rand.New(rand.NewSource(int64(trial))).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		got, err := Analyze(shuffled, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Windows) != len(base.Windows) || got.Trips != base.Trips {
			t.Fatalf("trial %d: %d windows / %d trips vs base %d / %d",
				trial, len(got.Windows), got.Trips, len(base.Windows), base.Trips)
		}
		for i := range got.Windows {
			if fmt.Sprintf("%+v", got.Windows[i]) != fmt.Sprintf("%+v", base.Windows[i]) {
				t.Fatalf("trial %d window %d diverged:\n got=%+v\nwant=%+v", trial, i, got.Windows[i], base.Windows[i])
			}
		}
	}
}

// TestMonitorCountsUnknownActions watches 3-class records with a profile
// that lists two actions only. NA decisions must be counted per window and
// weigh in ActionTV as disagreement rather than drop out of the histogram;
// with no such decision the TV keeps the bits of the profile-width TV.
func TestMonitorCountsUnknownActions(t *testing.T) {
	p := testProfile(t)
	p.Actions = []float64{0.5, 0.5}
	feed := func(nclasses int) WindowStat {
		m, err := NewMonitor(Config{Profile: p, WindowRecords: 300, Quiet: true})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 300; i++ {
			rec := decRecord(uint64(i), 0.5, 1, uint8(i%nclasses))
			m.Observe(&rec)
		}
		if len(m.Windows()) != 1 {
			t.Fatalf("closed %d windows, want 1", len(m.Windows()))
		}
		return m.Windows()[0]
	}

	w := feed(3)
	if w.UnknownActions != 100 {
		t.Errorf("UnknownActions = %d, want 100", w.UnknownActions)
	}
	// Reference (1/2, 1/2, 0) against observed thirds: (1/6 + 1/6 + 1/3)/2.
	if !almost(w.ActionTV, 1.0/3) {
		t.Errorf("ActionTV = %v, want 1/3", w.ActionTV)
	}

	w = feed(2)
	if w.UnknownActions != 0 {
		t.Errorf("UnknownActions = %d with profiled actions only", w.UnknownActions)
	}
	if want := TV(p.Actions, []float64{0.5, 0.5}); w.ActionTV != want {
		t.Errorf("ActionTV = %v, want %v bit for bit", w.ActionTV, want)
	}
}
