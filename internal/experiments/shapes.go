package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"github.com/libra-wlan/libra/internal/dataset"
	"github.com/libra-wlan/libra/internal/dsp"
	"github.com/libra-wlan/libra/internal/ml"
	"github.com/libra-wlan/libra/internal/sim"
	"github.com/libra-wlan/libra/internal/trace"
)

// ShapeCheck is one qualitative claim of the paper, encoded as an
// executable assertion against the reproduction. The claims deliberately
// test *shapes* (orderings, signs, thresholds-exist) rather than absolute
// numbers, which a simulator cannot and should not match.
type ShapeCheck struct {
	// ID is a short stable identifier ("fig3-ba-helps").
	ID string
	// Claim quotes or paraphrases the paper.
	Claim string
	// Run evaluates the claim. detail explains the measured values.
	Run func(s *Suite) (pass bool, detail string, err error)
}

// ShapeChecks returns the full claim suite, in paper order.
func ShapeChecks() []ShapeCheck {
	return []ShapeCheck{
		{
			ID:    "table1-campaign-counts",
			Claim: "Table 1: 479/81/108 cases over 94/12/12 positions (118 total)",
			Run: func(s *Suite) (bool, string, error) {
				m := s.Main()
				d, b, i := len(m.Filter(dataset.Displacement)), len(m.Filter(dataset.Blockage)), len(m.Filter(dataset.Interference))
				pos := m.SiteCount(-1, "")
				ok := d == 479 && b == 81 && i == 108 && pos == 118
				return ok, fmt.Sprintf("cases %d/%d/%d positions %d", d, b, i, pos), nil
			},
		},
		{
			ID:    "table1-label-shape",
			Claim: "BA dominates displacement and blockage; RA is the majority under interference (§5.2)",
			Run: func(s *Suite) (bool, string, error) {
				m := s.Main()
				db, dr, _ := m.CountLabels(dataset.Displacement)
				bb, br, _ := m.CountLabels(dataset.Blockage)
				ib, ir, _ := m.CountLabels(dataset.Interference)
				ok := db > 2*dr && bb > 2*br && ir > ib
				return ok, fmt.Sprintf("disp %d:%d block %d:%d intf %d:%d", db, dr, bb, br, ib, ir), nil
			},
		},
		{
			ID:    "fig1-static-ba-hurts",
			Claim: "Fig 1c: disabling BA improves static throughput (~26% in the paper)",
			Run: func(s *Suite) (bool, string, error) {
				r := Figure1(s)
				gain := (r.Locked/r.WithBA - 1) * 100
				return gain > 5, fmt.Sprintf("locked beats BA by %+.1f%%", gain), nil
			},
		},
		{
			ID:    "fig1-phone-flappier",
			Claim: "Fig 1a/b: the phone triggers BA far more than the AP chipset (>100 times in 60 s)",
			Run: func(s *Suite) (bool, string, error) {
				r := Figure1(s)
				ok := r.Phone.BATriggers > 100 && r.Phone.BATriggers > r.AP.BATriggers
				return ok, fmt.Sprintf("phone %d vs ap %d triggers", r.Phone.BATriggers, r.AP.BATriggers), nil
			},
		},
		{
			ID:    "fig2-blockage-ba-hurts",
			Claim: "Fig 2c: BA costs throughput under static blockage (~16% in the paper)",
			Run: func(s *Suite) (bool, string, error) {
				r := Figure2(s)
				gain := (r.Locked/r.WithBA - 1) * 100
				return gain > 3, fmt.Sprintf("locked beats BA by %+.1f%%", gain), nil
			},
		},
		{
			ID:    "fig3-mobility-ba-helps",
			Claim: "Fig 3c: under mobility BA beats the best static sector (~15% in the paper)",
			Run: func(s *Suite) (bool, string, error) {
				r := Figure3(s)
				gain := (r.WithBA/r.Locked - 1) * 100
				return gain > 5, fmt.Sprintf("BA beats locked by %+.1f%%", gain), nil
			},
		},
		{
			ID:    "fig4-snr-separates-displacement",
			Claim: "Fig 4a: BA-preferred displacement cases show larger SNR drops than RA-preferred ones",
			Run: func(s *Suite) (bool, string, error) {
				ba, ra := classSamples(s, dataset.Displacement, 0)
				mb, mr := dsp.Median(ba), dsp.Median(ra)
				return mb > mr, fmt.Sprintf("BA median %.1f dB vs RA %.1f dB", mb, mr), nil
			},
		},
		{
			ID:    "fig5-negative-tof-means-ra",
			Claim: "Fig 5a: negative ToF difference (backward motion) predominates in RA cases",
			Run: func(s *Suite) (bool, string, error) {
				_, ra := classSamples(s, dataset.Displacement, 1)
				neg := 0
				for _, v := range ra {
					if v < 0 {
						neg++
					}
				}
				frac := float64(neg) / float64(len(ra))
				return frac > 0.5, fmt.Sprintf("%.0f%% of RA cases negative", frac*100), nil
			},
		},
		{
			ID:    "fig6-pdp-compressed",
			Claim: "Fig 6: PDP similarity is compressed toward 1 by 60 GHz channel sparsity",
			Run: func(s *Suite) (bool, string, error) {
				ba, ra := classSamples(s, -1, 3)
				all := append(append([]float64{}, ba...), ra...)
				med := dsp.Median(all)
				return med > 0.8, fmt.Sprintf("median similarity %.2f", med), nil
			},
		},
		{
			ID:    "fig9-ra-needs-high-mcs",
			Claim: "Fig 9: RA-preferred cases almost always start from a high MCS (5-6 in the paper)",
			Run: func(s *Suite) (bool, string, error) {
				_, ra := classSamples(s, -1, 6)
				med := dsp.Median(ra)
				return med >= 4, fmt.Sprintf("RA median initial MCS %.0f", med), nil
			},
		},
		{
			ID:    "ml-rf-strong",
			Claim: "§6.2: a random forest over the 7 metrics predicts the right mechanism with high accuracy",
			Run: func(s *Suite) (bool, string, error) {
				rng := rand.New(rand.NewSource(s.Seed + 81))
				rf := func() ml.Classifier { return &ml.RandomForest{NumTrees: 60, MaxDepth: 10, Seed: s.Seed} }
				res, err := ml.CrossValidateTasks(context.Background(), []ml.CVTask{{Factory: rf, Data: s.Main().ToML(false), K: 5, Reps: 1}}, rng)
				if err != nil {
					return false, "", err
				}
				acc := res[0].Accuracy
				return acc > 0.85, fmt.Sprintf("RF 5-fold accuracy %.1f%%", acc*100), nil
			},
		},
		{
			ID:    "ml-transfer-satisfactory",
			Claim: "§6.2: accuracy drops across buildings but remains satisfactory (85-88% in the paper)",
			Run: func(s *Suite) (bool, string, error) {
				rf := &ml.RandomForest{NumTrees: 60, MaxDepth: 10, Seed: s.Seed}
				if err := rf.Fit(s.Main().ToML(false)); err != nil {
					return false, "", err
				}
				test := s.Test().ToML(false)
				acc := ml.Accuracy(test.Y, ml.PredictAll(rf, test))
				return acc > 0.8, fmt.Sprintf("transfer accuracy %.1f%%", acc*100), nil
			},
		},
		{
			ID:    "threeclass-high",
			Claim: "§7: the 3-class (BA/RA/NA) RF stays accurate enough to drive LiBRA (98/94% in the paper)",
			Run: func(s *Suite) (bool, string, error) {
				rf := &ml.RandomForest{NumTrees: 80, MaxDepth: 12, Seed: s.Seed}
				if err := rf.Fit(s.Main().ToML(true)); err != nil {
					return false, "", err
				}
				test := s.Test().ToML(true)
				acc := ml.Accuracy(test.Y, ml.PredictAll(rf, test))
				return acc > 0.88, fmt.Sprintf("3-class transfer accuracy %.1f%%", acc*100), nil
			},
		},
		{
			ID:    "fig10-libra-beats-heuristics",
			Claim: "Fig 10: over the BA-overhead grid, LiBRA loses fewer bytes to Oracle-Data than either heuristic",
			Run: func(s *Suite) (bool, string, error) {
				clf, err := s.Classifier()
				if err != nil {
					return false, "", err
				}
				// Aggregate mean loss across the four BA overheads (the
				// paper's point is that each heuristic has a regime where
				// it collapses while LiBRA never does).
				sums := map[sim.Policy]float64{}
				for _, ba := range sim.BAOverheads {
					p := sim.Params{BAOverhead: ba, FAT: 2 * time.Millisecond, FlowDur: time.Second}
					diffs, err := oracleGaps(s.TestEntries(), p, clf, sim.OracleData, func(oracle, out sim.Outcome) float64 {
						return (oracle.Bytes - out.Bytes) / 1e6
					})
					if err != nil {
						return false, "", err
					}
					for pol, v := range diffs {
						sums[pol] += dsp.Mean(v)
					}
				}
				ok := sums[sim.LiBRA] <= sums[sim.BAFirst] && sums[sim.LiBRA] <= sums[sim.RAFirst]
				return ok, fmt.Sprintf("grid-mean lost MB: LiBRA %.2f, BA First %.2f, RA First %.2f",
					sums[sim.LiBRA]/4, sums[sim.BAFirst]/4, sums[sim.RAFirst]/4), nil
			},
		},
		{
			ID:    "fig11-delay-crossover",
			Claim: "Fig 11: recovery delay is worst for RA First at low BA overhead and worst for BA First at high",
			Run: func(s *Suite) (bool, string, error) {
				clf, err := s.Classifier()
				if err != nil {
					return false, "", err
				}
				q90 := func(ba time.Duration) (map[sim.Policy]float64, error) {
					p := sim.Params{BAOverhead: ba, FAT: 2 * time.Millisecond, FlowDur: time.Second}
					diffs, err := oracleGaps(s.TestEntries(), p, clf, sim.OracleDelay, func(oracle, out sim.Outcome) float64 {
						return float64(out.RecoveryDelay-oracle.RecoveryDelay) / float64(time.Millisecond)
					})
					q := map[sim.Policy]float64{}
					for pol, v := range diffs {
						q[pol] = dsp.Quantile(v, 0.9)
					}
					return q, err
				}
				low, err := q90(500 * time.Microsecond)
				if err != nil {
					return false, "", err
				}
				high, err := q90(250 * time.Millisecond)
				if err != nil {
					return false, "", err
				}
				ok := low[sim.RAFirst] > low[sim.BAFirst] && high[sim.BAFirst] > high[sim.RAFirst]
				return ok, fmt.Sprintf("p90 ms low: RA %.1f BA %.1f | high: RA %.1f BA %.1f",
					low[sim.RAFirst], low[sim.BAFirst], high[sim.RAFirst], high[sim.BAFirst]), nil
			},
		},
		{
			ID:    "fig12-ra-first-worst-motion",
			Claim: "Fig 12: RA First delivers the smallest fraction of Oracle-Data bytes under motion",
			Run: func(s *Suite) (bool, string, error) {
				clf, err := s.Classifier()
				if err != nil {
					return false, "", err
				}
				pools := s.Pools()
				rng := rand.New(rand.NewSource(s.Seed + 82))
				p := sim.Params{BAOverhead: 500 * time.Microsecond, FAT: 2 * time.Millisecond}
				sums := map[sim.Policy]float64{}
				tls := pools.RandomTimelines(trace.Motion, 15, rng)
				outs, err := replay(timelineScenarios(tls), p, clf, append([]sim.Policy{sim.OracleData}, sim.Policies...))
				if err != nil {
					return false, "", err
				}
				for _, o := range outs {
					for j, pol := range sim.Policies {
						sums[pol] += o[j+1].Timeline.Bytes / o[0].Timeline.Bytes
					}
				}
				ok := sums[sim.RAFirst] < sums[sim.BAFirst] && sums[sim.RAFirst] < sums[sim.LiBRA]
				return ok, fmt.Sprintf("mean ratios: BA %.2f RA %.2f LiBRA %.2f",
					sums[sim.BAFirst]/15, sums[sim.RAFirst]/15, sums[sim.LiBRA]/15), nil
			},
		},
		{
			ID:    "fig13-libra-balances-delay",
			Claim: "Fig 13: at 250 ms BA overhead, LiBRA's delay sits between RA First (best) and BA First (worst)",
			Run: func(s *Suite) (bool, string, error) {
				clf, err := s.Classifier()
				if err != nil {
					return false, "", err
				}
				pools := s.Pools()
				rng := rand.New(rand.NewSource(s.Seed + 83))
				p := sim.Params{BAOverhead: 250 * time.Millisecond, FAT: 2 * time.Millisecond}
				sums := map[sim.Policy]time.Duration{}
				tls := pools.RandomTimelines(trace.Mixed, 15, rng)
				outs, err := replay(timelineScenarios(tls), p, clf, sim.Policies)
				if err != nil {
					return false, "", err
				}
				for _, o := range outs {
					for j, pol := range sim.Policies {
						sums[pol] += o[j].Timeline.MeanRecoveryDelay()
					}
				}
				ok := sums[sim.RAFirst] <= sums[sim.LiBRA] && sums[sim.LiBRA] <= sums[sim.BAFirst]
				return ok, fmt.Sprintf("mean delays: RA %v LiBRA %v BA %v",
					sums[sim.RAFirst]/15, sums[sim.LiBRA]/15, sums[sim.BAFirst]/15), nil
			},
		},
		{
			ID:    "table4-ra-first-stalls-most",
			Claim: "Table 4: RA First stalls VR playback far more often than BA First at low BA overhead",
			Run: func(s *Suite) (bool, string, error) {
				tb, err := Table4(s, 6)
				if err != nil {
					return false, "", err
				}
				// Row 0 is the 0.5 ms / 2 ms cell; columns: label, BA, RA, LiBRA, ...
				var baD, baN, raD, raN float64
				if _, err := fmt.Sscanf(tb.Rows[0][1], "%f/%f", &baD, &baN); err != nil {
					return false, "", err
				}
				if _, err := fmt.Sscanf(tb.Rows[0][2], "%f/%f", &raD, &raN); err != nil {
					return false, "", err
				}
				return raN > baN, fmt.Sprintf("stalls: RA First %.1f vs BA First %.1f", raN, baN), nil
			},
		},
		{
			ID:    "failover-tradeoff",
			Claim: "§8: a failover sector survives blockage but not angular displacement (the MOCA critique)",
			Run: func(s *Suite) (bool, string, error) {
				tb, err := FailoverComparison(s, 8)
				if err != nil {
					return false, "", err
				}
				var blockFo, blockBA, rotFo, rotBA float64
				if _, err := fmt.Sscanf(tb.Rows[0][1], "%fms", &blockFo); err != nil {
					return false, "", err
				}
				if _, err := fmt.Sscanf(tb.Rows[0][2], "%fms", &blockBA); err != nil {
					return false, "", err
				}
				if _, err := fmt.Sscanf(tb.Rows[1][1], "%fms", &rotFo); err != nil {
					return false, "", err
				}
				if _, err := fmt.Sscanf(tb.Rows[1][2], "%fms", &rotBA); err != nil {
					return false, "", err
				}
				ok := blockFo < blockBA && rotFo > rotBA*0.9
				return ok, fmt.Sprintf("blockage fo %.0f vs BA %.0f ms; rotation fo %.0f vs BA %.0f ms",
					blockFo, blockBA, rotFo, rotBA), nil
			},
		},
		{
			ID:    "futurework-blockage-predictable",
			Claim: "§7 future work: recurring blockage patterns are learnable over longer horizons",
			Run: func(s *Suite) (bool, string, error) {
				tb, err := FutureWork(s, 10)
				if err != nil {
					return false, "", err
				}
				for _, row := range tb.Rows {
					if row[0] != "Blockage" {
						continue
					}
					var acc float64
					if _, err := fmt.Sscanf(row[3], "%f%%", &acc); err != nil {
						return false, fmt.Sprintf("cell %q", row[3]), nil
					}
					return acc > 60, fmt.Sprintf("blockage pattern accuracy %.0f%%", acc), nil
				}
				return false, "no blockage row", nil
			},
		},
	}
}

// classSamples extracts the per-class values of one feature from the main
// campaign (im < 0 selects all impairments).
func classSamples(s *Suite, im dataset.Impairment, feature int) (ba, ra []float64) {
	for _, e := range s.Main().Entries {
		if e.Impairment == dataset.NoImpairment {
			continue
		}
		if im >= 0 && e.Impairment != im {
			continue
		}
		if e.Label == dataset.ActBA {
			ba = append(ba, e.Features[feature])
		} else {
			ra = append(ra, e.Features[feature])
		}
	}
	return ba, ra
}

// RunShapeChecks executes every check and returns a result table plus the
// number of failures.
func RunShapeChecks(s *Suite) (*Table, int, error) {
	t := &Table{
		Title:  "Reproduction shape checks (paper claims as executable assertions)",
		Header: []string{"Check", "Result", "Measured", "Claim"},
	}
	failures := 0
	for _, c := range ShapeChecks() {
		pass, detail, err := c.Run(s)
		if err != nil {
			return nil, 0, fmt.Errorf("experiments: shape check %s: %w", c.ID, err)
		}
		res := "PASS"
		if !pass {
			res = "FAIL"
			failures++
		}
		t.Rows = append(t.Rows, []string{c.ID, res, detail, c.Claim})
	}
	return t, failures, nil
}
