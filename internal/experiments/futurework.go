package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"github.com/libra-wlan/libra/internal/dataset"
	"github.com/libra-wlan/libra/internal/predict"
	"github.com/libra-wlan/libra/internal/sim"
	"github.com/libra-wlan/libra/internal/trace"
)

// FutureWork evaluates the paper's §7 future-work direction: learning link
// status patterns over longer periods. For each scenario kind it replays
// LiBRA over random timelines, feeds the per-break action sequence into an
// order-2 Markov predictor, and reports the online next-action prediction
// accuracy, the fraction of breaks the predictor was confident about, and
// the mean recovery delay a proactive sweep (pre-armed on confident BA
// predictions) would have removed per break.
//
// The expected shape: blockage and interference timelines alternate
// impair/recover and are highly predictable; motion and mixed timelines are
// not. A recurring blocker is exactly the case the paper's discussion calls
// out.
func FutureWork(s *Suite, timelines int) (*Table, error) {
	if timelines <= 0 {
		timelines = TimelinesPerKind
	}
	clf, err := s.Classifier()
	if err != nil {
		return nil, err
	}
	pools := s.Pools()
	rng := rand.New(rand.NewSource(s.Seed + 71))
	p := sim.Params{BAOverhead: 5 * time.Millisecond, FAT: 2 * time.Millisecond}

	t := &Table{
		Title:  "§7 future work: link-pattern prediction (order-2 Markov over per-break actions)",
		Header: []string{"Scenario", "Breaks", "Coverage", "Accuracy", "Delay saved/break"},
	}
	for _, kind := range trace.Kinds {
		var breaks int
		var accSum, covSum float64
		var savable time.Duration
		counted := 0
		for i := 0; i < timelines; i++ {
			run, err := sim.Run(context.TODO(), sim.Scenario{Timeline: pools.RandomTimeline(kind, rng)},
				sim.Options{Params: p, Policy: sim.LiBRA, Classifier: clf})
			if err != nil {
				return nil, err
			}
			res := run.Timeline
			breaks += res.Breaks
			if len(res.Actions) < 4 {
				continue
			}
			acc, cov := predict.Accuracy(res.Actions, 2)
			if cov == 0 {
				continue
			}
			counted++
			accSum += acc
			covSum += cov
			// Proactive saving: every covered, correctly-predicted BA break
			// could have had its sweep pre-armed during the previous
			// segment, removing the BA overhead from the recovery delay.
			baFrac := 0.0
			for _, a := range res.Actions {
				if a == dataset.ActBA {
					baFrac++
				}
			}
			baFrac /= float64(len(res.Actions))
			savable += time.Duration(acc * cov * baFrac * float64(p.BAOverhead))
		}
		row := []string{kind.String(), fmt.Sprint(breaks)}
		if counted == 0 {
			row = append(row, "-", "-", "-")
		} else {
			n := float64(counted)
			row = append(row,
				fmt.Sprintf("%.0f%%", covSum/n*100),
				fmt.Sprintf("%.0f%%", accSum/n*100),
				fmt.Sprintf("%.2fms", float64(savable)/n/float64(time.Millisecond)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
