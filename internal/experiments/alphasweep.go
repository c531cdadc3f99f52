package experiments

import (
	"context"
	"fmt"
	"time"

	"github.com/libra-wlan/libra/internal/core"
	"github.com/libra-wlan/libra/internal/sim"
)

// AlphaSweep studies the utility knob of Eqn. 1: U = α·Th/Thmax +
// (1-α)·(1-D/Dmax). The paper fixes α per BA-overhead regime (0.7 for
// cheap sweeps, 0.5 for expensive ones); the sweep shows why — as α falls
// (delay matters more), RA First's fast-but-suboptimal recoveries gain
// utility against BA First's optimal-but-slow ones, and the two heuristics
// swap places across the sweep. LiBRA is never the worst policy at any α —
// the "strikes a balance between throughput and link recovery delay" claim
// of the abstract, made quantitative.
func AlphaSweep(s *Suite, baOverhead time.Duration) (*Table, error) {
	clf, err := s.Classifier()
	if err != nil {
		return nil, err
	}
	entries := s.TestEntries()
	p := sim.Params{BAOverhead: baOverhead, FAT: 2 * time.Millisecond, FlowDur: time.Second}

	t := &Table{
		Title:  fmt.Sprintf("Mean utility vs alpha (Eqn. 1) at BA overhead %v", baOverhead),
		Header: []string{"alpha", "BA First", "RA First", "LiBRA"},
	}
	pols := []sim.Policy{sim.BAFirst, sim.RAFirst, sim.LiBRA}

	// Precompute per-entry outcomes once; utility is a pure function of
	// (throughput, delay, alpha).
	type po struct {
		th    float64
		delay time.Duration
	}
	outs := make(map[sim.Policy][]po, len(pols))
	for _, pol := range pols {
		for _, e := range entries {
			res, err := sim.Run(context.TODO(), sim.Scenario{Entry: e},
				sim.Options{Params: p, Policy: pol, Classifier: clf})
			if err != nil {
				return nil, err
			}
			out := res.Outcome
			th := e.InitBeamTh[out.FinalMCS]
			if out.FinalOnBestBeam {
				th = e.BestBeamTh[out.FinalMCS]
			}
			outs[pol] = append(outs[pol], po{th: th, delay: out.RecoveryDelay})
		}
	}

	for _, alpha := range []float64{0, 0.25, 0.5, 0.7, 1} {
		cfg := p.Config()
		cfg.Alpha = alpha
		row := []string{fmt.Sprintf("%.2f", alpha)}
		for _, pol := range pols {
			var sum float64
			for _, o := range outs[pol] {
				sum += core.Utility(o.th, o.delay, cfg)
			}
			row = append(row, fmt.Sprintf("%.3f", sum/float64(len(outs[pol]))))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
