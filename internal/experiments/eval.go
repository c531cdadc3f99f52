package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"github.com/libra-wlan/libra/internal/core"
	"github.com/libra-wlan/libra/internal/dataset"
	"github.com/libra-wlan/libra/internal/dsp"
	"github.com/libra-wlan/libra/internal/ml"
	"github.com/libra-wlan/libra/internal/sim"
	"github.com/libra-wlan/libra/internal/trace"
	"github.com/libra-wlan/libra/internal/vr"
)

// gridCell formats one (BA overhead, FAT) grid label.
func gridCell(ba, fat time.Duration) string {
	return fmt.Sprintf("BA Overhead %v, FAT %v", ba, fat)
}

// Figure10 reproduces the single-impairment bytes-delivered comparison:
// CDFs of Oracle-Data bytes minus each policy's bytes (MB) over the
// combined Buildings 1&2 entries, for every (BA overhead, FAT) combination
// and both flow durations (paper Fig. 10 a-h).
func Figure10(s *Suite) (*Figure, error) {
	clf, err := s.Classifier()
	if err != nil {
		return nil, err
	}
	entries := s.TestEntries()
	fig := &Figure{Title: "Figure 10: single impairment, difference of megabytes delivered vs Oracle-Data"}
	for _, fat := range sim.FATs {
		for _, ba := range sim.BAOverheads {
			panel := Panel{Title: gridCell(ba, fat), XLabel: "Oracle-Data bytes - policy bytes (MB)"}
			for _, flow := range sim.FlowDurs {
				p := sim.Params{BAOverhead: ba, FAT: fat, FlowDur: flow}
				diffs, err := oracleGaps(entries, p, clf, sim.OracleData, func(oracle, out sim.Outcome) float64 {
					d := (oracle.Bytes - out.Bytes) / 1e6
					if d < 0 {
						d = 0
					}
					return d
				})
				if err != nil {
					return nil, err
				}
				for _, pol := range sim.Policies {
					panel.Series = append(panel.Series,
						CDFSeries(fmt.Sprintf("%s (%v)", pol, flow), diffs[pol], 64))
				}
			}
			fig.Panels = append(fig.Panels, panel)
		}
	}
	return fig, nil
}

// Figure11 reproduces the single-impairment recovery-delay comparison: CDFs
// of each policy's recovery delay minus Oracle-Delay's (ms), over the same
// grid (paper Fig. 11 a-h).
func Figure11(s *Suite) (*Figure, error) {
	clf, err := s.Classifier()
	if err != nil {
		return nil, err
	}
	entries := s.TestEntries()
	fig := &Figure{Title: "Figure 11: single impairment, difference of recovery delay vs Oracle-Delay"}
	for _, fat := range sim.FATs {
		for _, ba := range sim.BAOverheads {
			p := sim.Params{BAOverhead: ba, FAT: fat, FlowDur: time.Second}
			panel := Panel{Title: gridCell(ba, fat), XLabel: "policy delay - Oracle-Delay delay (ms)"}
			diffs, err := oracleGaps(entries, p, clf, sim.OracleDelay, func(oracle, out sim.Outcome) float64 {
				d := float64(out.RecoveryDelay-oracle.RecoveryDelay) / float64(time.Millisecond)
				if d < 0 {
					d = 0
				}
				return d
			})
			if err != nil {
				return nil, err
			}
			for _, pol := range sim.Policies {
				panel.Series = append(panel.Series, CDFSeries(pol.String(), diffs[pol], 64))
			}
			fig.Panels = append(fig.Panels, panel)
		}
	}
	return fig, nil
}

// oracleGaps replays the oracle and each of sim.Policies over every entry,
// and gathers gap(oracle outcome, policy outcome) per policy in entry order.
func oracleGaps(entries []*dataset.Entry, p sim.Params, clf core.Classifier, oracle sim.Policy, gap func(oracle, out sim.Outcome) float64) (map[sim.Policy][]float64, error) {
	scs := make([]sim.Scenario, len(entries))
	for i, e := range entries {
		scs[i].Entry = e
	}
	outs, err := replay(scs, p, clf, append([]sim.Policy{oracle}, sim.Policies...))
	if err != nil {
		return nil, err
	}
	diffs := map[sim.Policy][]float64{}
	for _, o := range outs {
		for j, pol := range sim.Policies {
			diffs[pol] = append(diffs[pol], gap(o[0].Outcome, o[j+1].Outcome))
		}
	}
	return diffs, nil
}

// timelineScenarios wraps each timeline as a sim scenario.
func timelineScenarios(tls []*trace.Timeline) []sim.Scenario {
	scs := make([]sim.Scenario, len(tls))
	for i, tl := range tls {
		scs[i].Timeline = tl
	}
	return scs
}

// replay runs every policy of pols over every scenario through sim.Run on a
// bounded worker pool: out[i][j] is scenario i under pols[j]. Classifier
// inference and replay are read-only, so the fan-out is safe, and the
// result layout does not depend on scheduling.
func replay(scs []sim.Scenario, p sim.Params, clf core.Classifier, pols []sim.Policy) ([][]sim.Result, error) {
	out := make([][]sim.Result, len(scs))
	errs := make([]error, len(scs))
	ml.FanOut(context.TODO(), 0, len(scs), func(i int) {
		for _, pol := range pols {
			res, err := sim.Run(context.TODO(), scs[i],
				sim.Options{Params: p, Policy: pol, Classifier: clf})
			if err != nil {
				errs[i] = err
				return
			}
			out[i] = append(out[i], res)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// multiGrid is the reduced grid shown for Figs 12-13 (the paper omits the
// middle BA overheads for space).
var multiGrid = []struct {
	ba, fat time.Duration
}{
	{500 * time.Microsecond, 2 * time.Millisecond},
	{250 * time.Millisecond, 2 * time.Millisecond},
	{500 * time.Microsecond, 10 * time.Millisecond},
	{250 * time.Millisecond, 10 * time.Millisecond},
}

// TimelinesPerKind is the number of random timelines per scenario type
// (50 in §8.3).
const TimelinesPerKind = 50

// multiResults runs all policies over the §8.3 timelines and returns, per
// grid cell, per scenario kind ("All" included), the per-timeline ratios of
// bytes vs Oracle-Data and the mean-recovery-delay differences vs
// Oracle-Delay.
func multiResults(s *Suite, timelines int) (map[string]map[string]map[sim.Policy][]float64, map[string]map[string]map[sim.Policy][]float64, error) {
	clf, err := s.Classifier()
	if err != nil {
		return nil, nil, err
	}
	pools := s.Pools()
	rng := rand.New(rand.NewSource(s.Seed + 51))

	ratios := map[string]map[string]map[sim.Policy][]float64{}
	delays := map[string]map[string]map[sim.Policy][]float64{}
	for _, cell := range multiGrid {
		key := gridCell(cell.ba, cell.fat)
		ratios[key] = map[string]map[sim.Policy][]float64{}
		delays[key] = map[string]map[sim.Policy][]float64{}
		p := sim.Params{BAOverhead: cell.ba, FAT: cell.fat}
		for _, kind := range trace.Kinds {
			tls := pools.RandomTimelines(kind, timelines, rng)
			outs, err := replay(timelineScenarios(tls), p, clf, append([]sim.Policy{sim.OracleData, sim.OracleDelay}, sim.Policies...))
			if err != nil {
				return nil, nil, err
			}
			r := map[sim.Policy][]float64{}
			d := map[sim.Policy][]float64{}
			for _, o := range outs {
				oracle, od := &o[0].Timeline, &o[1].Timeline
				for j, pol := range sim.Policies {
					out := &o[j+2].Timeline
					if oracle.Bytes > 0 {
						r[pol] = append(r[pol], out.Bytes/oracle.Bytes)
					}
					dd := float64(out.MeanRecoveryDelay()-od.MeanRecoveryDelay()) / float64(time.Millisecond)
					if dd < 0 {
						dd = 0
					}
					d[pol] = append(d[pol], dd)
				}
			}
			ratios[key][kind.String()] = r
			delays[key][kind.String()] = d
			// Accumulate "All".
			if ratios[key]["All"] == nil {
				ratios[key]["All"] = map[sim.Policy][]float64{}
				delays[key]["All"] = map[sim.Policy][]float64{}
			}
			for _, pol := range sim.Policies {
				ratios[key]["All"][pol] = append(ratios[key]["All"][pol], r[pol]...)
				delays[key]["All"][pol] = append(delays[key]["All"][pol], d[pol]...)
			}
		}
	}
	return ratios, delays, nil
}

// scenarioOrder fixes the group order of Figs 12-13.
var scenarioOrder = []string{"Motion", "Blockage", "Interference", "Mixed", "All"}

// boxFigure builds a Figs 12/13-style boxplot figure from multiResults data.
func boxFigure(title, ylabel string, data map[string]map[string]map[sim.Policy][]float64) *BoxFigure {
	fig := &BoxFigure{Title: title, YLabel: ylabel}
	for _, cell := range multiGrid {
		key := gridCell(cell.ba, cell.fat)
		panel := BoxPanel{Title: key}
		for _, pol := range sim.Policies {
			for _, sc := range scenarioOrder {
				panel.Groups = append(panel.Groups, BoxGroup{
					Label: fmt.Sprintf("%s / %s", pol, sc),
					Stats: dsp.Box(data[key][sc][pol]),
				})
			}
		}
		fig.Panels = append(fig.Panels, panel)
	}
	return fig
}

// Figure12 reproduces the multi-impairment bytes-delivered boxplots (paper:
// LiBRA delivers 90-95% of Oracle-Data bytes in the median across all
// scenarios; RA First as low as 55% in Mixed).
func Figure12(s *Suite, timelines int) (*BoxFigure, error) {
	if timelines <= 0 {
		timelines = TimelinesPerKind
	}
	ratios, _, err := multiResults(s, timelines)
	if err != nil {
		return nil, err
	}
	return boxFigure("Figure 12: multi-impairment, ratio of data delivered vs Oracle-Data",
		"fraction of Oracle-Data bytes", ratios), nil
}

// Figure13 reproduces the multi-impairment recovery-delay boxplots (paper:
// BA First exceeds 170-250 ms median at 250 ms BA overhead; LiBRA stays at
// most ~35 ms median across all scenarios).
func Figure13(s *Suite, timelines int) (*BoxFigure, error) {
	if timelines <= 0 {
		timelines = TimelinesPerKind
	}
	_, delays, err := multiResults(s, timelines)
	if err != nil {
		return nil, err
	}
	return boxFigure("Figure 13: multi-impairment, mean recovery delay difference vs Oracle-Delay",
		"delay difference (ms)", delays), nil
}

// Table4 reproduces the VR case study (§8.4): average stall duration (ms)
// and average number of stalls for all five policies over mobility
// timelines, with throughputs scaled to COTS levels.
func Table4(s *Suite, timelines int) (*Table, error) {
	if timelines <= 0 {
		timelines = TimelinesPerKind
	}
	clf, err := s.Classifier()
	if err != nil {
		return nil, err
	}
	pools := s.Pools()
	rng := rand.New(rand.NewSource(s.Seed + 61))
	ft := vr.VikingVillage(30*time.Second, s.Seed+62)

	cols := []sim.Policy{sim.BAFirst, sim.RAFirst, sim.LiBRA, sim.OracleData, sim.OracleDelay}
	t := &Table{
		Title:  "Table 4: VR stall duration (ms) / number of stalls",
		Header: []string{"BA Overhead, FAT"},
	}
	for _, pol := range cols {
		t.Header = append(t.Header, pol.String())
	}
	for _, cell := range multiGrid {
		p := sim.Params{BAOverhead: cell.ba, FAT: cell.fat}
		row := []string{fmt.Sprintf("%v, %v", cell.ba, cell.fat)}
		// The same timelines are replayed for every policy; each covers at
		// least the 30 s scene.
		tls := make([]*trace.Timeline, timelines)
		for i := range tls {
			tls[i] = pools.RandomTimelineDur(trace.Motion, rng, ft.Duration()+time.Second)
		}
		for _, pol := range cols {
			var stallMs, stalls float64
			for _, tl := range tls {
				out, err := sim.Run(context.TODO(), sim.Scenario{Timeline: tl},
					sim.Options{Params: p, Policy: pol, Classifier: clf})
				if err != nil {
					return nil, err
				}
				res := vr.Play(ft, vr.Scale(out.Timeline.Rate, vr.COTSScale), 100*time.Millisecond)
				stallMs += float64(res.AvgStall()) / float64(time.Millisecond)
				stalls += float64(res.Stalls)
			}
			n := float64(len(tls))
			row = append(row, fmt.Sprintf("%.1f/%.1f", stallMs/n, stalls/n))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
