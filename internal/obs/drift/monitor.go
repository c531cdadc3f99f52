package drift

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"github.com/libra-wlan/libra/internal/obs"
	"github.com/libra-wlan/libra/internal/obs/decisionlog"
)

var (
	obsDriftPSI      = obs.NewFloatGauge("libra_drift_psi", "last closed window's max per-feature PSI vs the training reference")
	obsDriftKS       = obs.NewFloatGauge("libra_drift_ks", "last closed window's max per-feature KS distance vs the training reference")
	obsDriftActionTV = obs.NewFloatGauge("libra_drift_action_tv", "last closed window's action-distribution total-variation shift")
	obsDriftAccuracy = obs.NewFloatGauge("libra_drift_accuracy", "last closed window's accuracy over ground-truth joins")
	obsDriftWindows  = obs.NewCounter("libra_drift_windows_total", "drift windows closed")
	obsDriftTrips    = obs.NewCounter("libra_drift_trips_total", "drift windows whose max PSI crossed the trip threshold")
	obsDriftJoins    = obs.NewCounter("libra_drift_joins_total", "ground-truth records joined to a served decision")
)

// Config parameterizes a Monitor.
type Config struct {
	// Profile is the frozen training reference. Required.
	Profile *Profile
	// WindowRecords is how many decision records close a window.
	// Default 1024.
	WindowRecords int
	// PSITrip is the max-PSI threshold that marks a window tripped and
	// increments libra_drift_trips_total. Default 0.25.
	PSITrip float64
	// MaxJoin caps the pending ground-truth join table; once full, new
	// decisions are not retained for joining (deterministic in feed order).
	// Default 1<<20.
	MaxJoin int
	// Quiet suppresses the process-wide libra_drift_* metric updates;
	// offline analysis sets it so replaying a log does not masquerade as
	// live fleet state.
	Quiet bool
}

type joinKey struct{ req, link uint64 }

// A Monitor consumes an audit-record stream — live from the decision log's
// writer-goroutine tap, or offline in canonical order — and closes a
// WindowStat every WindowRecords decisions. Not safe for concurrent use:
// exactly one goroutine feeds it, which is also what determinism demands.
type Monitor struct {
	cfg     Config
	refFeat [][]float64 // per-feature reference proportions
	// refAct is the profile's action distribution plus one zero entry, the
	// bin of every action the profile lacks.
	refAct []float64

	featCounts [][]uint64
	actCounts  []uint64 // one bin per refAct entry
	nWin       uint64
	joined     uint64
	correct    uint64
	pending    map[joinKey]uint8

	windows []WindowStat
	trips   uint64
}

// NewMonitor validates the profile and returns an empty monitor.
func NewMonitor(cfg Config) (*Monitor, error) {
	if cfg.Profile == nil {
		return nil, fmt.Errorf("drift: monitor requires a profile")
	}
	if err := cfg.Profile.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.Profile.Features) > decisionlog.MaxFeatures {
		return nil, fmt.Errorf("drift: profile has %d features, records carry at most %d",
			len(cfg.Profile.Features), decisionlog.MaxFeatures)
	}
	if cfg.WindowRecords < 1 {
		cfg.WindowRecords = 1024
	}
	if cfg.PSITrip <= 0 {
		cfg.PSITrip = 0.25
	}
	if cfg.MaxJoin < 1 {
		cfg.MaxJoin = 1 << 20
	}
	m := &Monitor{
		cfg:        cfg,
		refAct:     append(append([]float64(nil), cfg.Profile.Actions...), 0),
		actCounts:  make([]uint64, len(cfg.Profile.Actions)+1),
		featCounts: make([][]uint64, len(cfg.Profile.Features)),
		refFeat:    make([][]float64, len(cfg.Profile.Features)),
		pending:    make(map[joinKey]uint8),
	}
	for i, f := range cfg.Profile.Features {
		m.featCounts[i] = make([]uint64, len(f.Edges)+1)
		m.refFeat[i] = f.Props
	}
	return m, nil
}

// Observe feeds one record. Decision records accumulate into the open
// window and register for ground-truth joining; truth records resolve a
// pending join and score the current window's accuracy.
func (m *Monitor) Observe(r *decisionlog.Record) {
	switch r.Kind {
	case decisionlog.KindDecision:
		for i, f := range m.cfg.Profile.Features {
			b := binOf(f.Edges, float64(r.Feat[i]))
			m.featCounts[i][b]++
		}
		m.actCounts[min(int(r.Action), len(m.actCounts)-1)]++
		if len(m.pending) < m.cfg.MaxJoin {
			m.pending[joinKey{r.ReqID, r.LinkID}] = r.Action
		}
		m.nWin++
		if m.nWin >= uint64(m.cfg.WindowRecords) {
			m.roll()
		}
	case decisionlog.KindTruth:
		k := joinKey{r.ReqID, r.LinkID}
		served, ok := m.pending[k]
		if !ok {
			return
		}
		delete(m.pending, k)
		m.joined++
		if served == r.Action {
			m.correct++
		}
		if !m.cfg.Quiet {
			obsDriftJoins.Inc()
		}
	}
}

// roll closes the open window: statistics, gauges, trip accounting, reset.
func (m *Monitor) roll() {
	w := WindowStat{
		Index:         len(m.windows),
		Records:       m.nWin,
		Joined:        m.joined,
		Correct:       m.correct,
		PSIPerFeature: make([]float64, len(m.refFeat)),
	}
	// A join-only window (late truths after the decisions rolled) carries
	// no distribution to compare; its stats stay zero and it cannot trip.
	if m.nWin > 0 {
		for i := range m.refFeat {
			obsProps := props(m.featCounts[i], m.nWin)
			p := PSI(m.refFeat[i], obsProps)
			w.PSIPerFeature[i] = p
			if p > w.PSIMax || i == 0 {
				w.PSIMax = p
				w.PSIFeature = m.cfg.Profile.Features[i].Name
			}
			if k := KS(m.refFeat[i], obsProps); k > w.KSMax {
				w.KSMax = k
			}
		}
		w.ActionTV = TV(m.refAct, props(m.actCounts, m.nWin))
		w.UnknownActions = m.actCounts[len(m.actCounts)-1]
		w.Tripped = w.PSIMax > m.cfg.PSITrip
	}
	if w.Tripped {
		m.trips++
	}
	m.windows = append(m.windows, w)

	if !m.cfg.Quiet {
		obsDriftPSI.Set(w.PSIMax)
		obsDriftKS.Set(w.KSMax)
		obsDriftActionTV.Set(w.ActionTV)
		obsDriftAccuracy.Set(w.Accuracy())
		obsDriftWindows.Inc()
		if w.Tripped {
			obsDriftTrips.Inc()
		}
	}

	for i := range m.featCounts {
		for j := range m.featCounts[i] {
			m.featCounts[i][j] = 0
		}
	}
	for i := range m.actCounts {
		m.actCounts[i] = 0
	}
	m.nWin, m.joined, m.correct = 0, 0, 0
}

// Flush closes a non-empty partial window (end of an offline replay). A
// window holding only late ground-truth joins — truths whose decisions
// closed the previous window — still rolls, so no join is ever dropped.
func (m *Monitor) Flush() {
	if m.nWin > 0 || m.joined > 0 {
		m.roll()
	}
}

// Windows returns the closed windows so far. The slice is shared; callers
// must not mutate it while feeding continues.
func (m *Monitor) Windows() []WindowStat { return m.windows }

// Trips returns the number of tripped windows so far.
func (m *Monitor) Trips() uint64 { return m.trips }

// A Report is the outcome of an offline replay of an audit log.
type Report struct {
	Windows   []WindowStat
	Trips     uint64
	Decisions uint64
	Truths    uint64
}

// Analyze replays records in canonical order through a fresh quiet monitor.
// The input slice is not modified; the result depends only on the record
// SET, so two logs of the same sampled decisions — any worker count, any
// drain interleaving — analyze identically.
func Analyze(records []decisionlog.Record, cfg Config) (*Report, error) {
	cfg.Quiet = true
	m, err := NewMonitor(cfg)
	if err != nil {
		return nil, err
	}
	ordered := make([]decisionlog.Record, len(records))
	copy(ordered, records)
	decisionlog.SortCanonical(ordered)
	rep := &Report{}
	for i := range ordered {
		switch ordered[i].Kind {
		case decisionlog.KindDecision:
			rep.Decisions++
		case decisionlog.KindTruth:
			rep.Truths++
		}
		m.Observe(&ordered[i])
	}
	m.Flush()
	rep.Windows = m.Windows()
	rep.Trips = m.Trips()
	return rep, nil
}

// BuildProfile freezes a training set's distributions: equal-frequency bin
// edges (bins buckets) and reference proportions per feature column, plus
// the label distribution over nclasses actions. cols is feature-major and
// rectangular; names must match its width.
//
// Every training value is quantized through float32 first, because that is
// the precision audit records carry: edges computed at float64 precision
// would sit between a value and its float32 rounding, shifting bin mass and
// reporting drift where there is none.
func BuildProfile(name string, names []string, cols [][]float64, labels []int, nclasses, bins int) (*Profile, error) {
	if len(cols) == 0 || len(cols) != len(names) {
		return nil, fmt.Errorf("drift: %d feature columns for %d names", len(cols), len(names))
	}
	if bins < 2 {
		bins = 10
	}
	p := &Profile{Name: name, Actions: make([]float64, nclasses)}
	for fi, col := range cols {
		if len(col) == 0 {
			return nil, fmt.Errorf("drift: feature %q has no values", names[fi])
		}
		sorted := make([]float64, len(col))
		for i, v := range col {
			sorted[i] = float64(float32(v))
		}
		quant := make([]float64, len(sorted))
		copy(quant, sorted)
		sort.Float64s(sorted)
		// Equal-frequency interior edges, deduplicated, and never the
		// column maximum: under binOf's upper-bound rule an edge at the
		// max would strand an always-empty top bin.
		var edges []float64
		for k := 1; k < bins; k++ {
			e := sorted[k*len(sorted)/bins]
			if (len(edges) == 0 || e > edges[len(edges)-1]) && e < sorted[len(sorted)-1] {
				edges = append(edges, e)
			}
		}
		ref := FeatureRef{Name: names[fi], Edges: edges, Props: make([]float64, len(edges)+1)}
		for _, v := range quant {
			ref.Props[binOf(edges, v)]++
		}
		for i := range ref.Props {
			ref.Props[i] /= float64(len(col))
		}
		p.Features = append(p.Features, ref)
	}
	if len(labels) == 0 {
		return nil, fmt.Errorf("drift: no labels for action distribution")
	}
	for _, y := range labels {
		if y >= 0 && y < nclasses {
			p.Actions[y]++
		}
	}
	for i := range p.Actions {
		p.Actions[i] /= float64(len(labels))
	}
	return p, p.Validate()
}

// SaveFile writes a profile as indented JSON.
func (p *Profile) SaveFile(path string) error {
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadFile reads a profile written by SaveFile and checks it with
// parseProfile against nfeat, the feature width of the audit records it
// will watch.
func LoadFile(path string, nfeat int) (*Profile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseProfile(data, nfeat)
}

// parseProfile decodes a profile and accepts it only when it validates and
// has exactly nfeat features, one per record feature: a narrower profile
// would silently watch only some of them, and a wider one would bin the
// records' zero padding as phantom features and trip every window.
func parseProfile(data []byte, nfeat int) (*Profile, error) {
	p := &Profile{}
	if err := json.Unmarshal(data, p); err != nil {
		return nil, fmt.Errorf("drift: parsing profile: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(p.Features) != nfeat {
		return nil, fmt.Errorf("drift: profile %q has %d features, the audit records carry %d",
			p.Name, len(p.Features), nfeat)
	}
	return p, nil
}
