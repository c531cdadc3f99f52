// Package predict implements the paper's stated future-work direction (§7):
// "longer observation windows may allow the transmitter to learn blockage
// patterns and make better decisions in the future. We believe that learning
// link status patterns over longer periods of time is an interesting avenue
// for future investigation."
//
// It provides an order-k Markov predictor over the sequence of adaptation
// actions a link experienced. When the recent history indicates a recurring
// pattern (a person walking a periodic path through the line of sight, a
// duty-cycled interferer), the predictor anticipates the next required
// mechanism before the break happens, letting a proactive LiBRA pre-arm the
// sweep and shave the reaction window off the recovery delay.
package predict

import (
	"fmt"
	"strings"

	"github.com/libra-wlan/libra/internal/dataset"
)

// MarkovPredictor is an order-k Markov chain over adaptation actions.
type MarkovPredictor struct {
	// Order is the history length conditioning each prediction (default 2
	// when zero at first Observe).
	Order int

	history []dataset.Action
	counts  map[string]*actionCounts
	total   int
}

// actionCounts tallies next-action observations for one context.
type actionCounts struct {
	n [3]int
}

func (c *actionCounts) add(a dataset.Action) { c.n[int(a)]++ }

func (c *actionCounts) best() (dataset.Action, float64) {
	total := c.n[0] + c.n[1] + c.n[2]
	if total == 0 {
		return dataset.ActNA, 0
	}
	best, bestN := dataset.ActNA, -1
	for a := dataset.ActBA; a <= dataset.ActNA; a++ {
		if c.n[int(a)] > bestN {
			best, bestN = a, c.n[int(a)]
		}
	}
	return best, float64(bestN) / float64(total)
}

// NewMarkovPredictor creates a predictor with the given order.
func NewMarkovPredictor(order int) *MarkovPredictor {
	if order <= 0 {
		order = 2
	}
	return &MarkovPredictor{Order: order, counts: map[string]*actionCounts{}}
}

// key encodes a history window.
func key(h []dataset.Action) string {
	var b strings.Builder
	for _, a := range h {
		b.WriteByte(byte('0' + int(a)))
	}
	return b.String()
}

// Observe appends the action taken at the latest link event and updates the
// transition statistics.
func (p *MarkovPredictor) Observe(a dataset.Action) {
	if p.counts == nil {
		p.counts = map[string]*actionCounts{}
	}
	if len(p.history) >= p.Order {
		k := key(p.history[len(p.history)-p.Order:])
		c := p.counts[k]
		if c == nil {
			c = &actionCounts{}
			p.counts[k] = c
		}
		c.add(a)
		p.total++
	}
	p.history = append(p.history, a)
	// Bound memory: the context map is what matters, not the raw history.
	if len(p.history) > 4*p.Order {
		p.history = p.history[len(p.history)-2*p.Order:]
	}
}

// Predict returns the most likely next action given the recent history and
// a confidence in [0, 1]. Confidence 0 means no evidence (unseen context).
func (p *MarkovPredictor) Predict() (dataset.Action, float64) {
	if len(p.history) < p.Order || p.counts == nil {
		return dataset.ActNA, 0
	}
	c := p.counts[key(p.history[len(p.history)-p.Order:])]
	if c == nil {
		return dataset.ActNA, 0
	}
	return c.best()
}

// String summarizes the learned table.
func (p *MarkovPredictor) String() string {
	return fmt.Sprintf("markov(order=%d, contexts=%d, observations=%d)",
		p.Order, len(p.counts), p.total)
}

// Accuracy replays an action sequence through a fresh predictor of the given
// order and returns the online next-step prediction accuracy (predictions
// with zero confidence are skipped, as a deployment would fall back to
// reactive LiBRA there). It is the evaluation metric for the future-work
// study.
func Accuracy(seq []dataset.Action, order int) (acc float64, covered float64) {
	p := NewMarkovPredictor(order)
	correct, predicted := 0, 0
	for _, a := range seq {
		if pred, conf := p.Predict(); conf > 0 {
			predicted++
			if pred == a {
				correct++
			}
		}
		p.Observe(a)
	}
	if predicted == 0 {
		return 0, 0
	}
	return float64(correct) / float64(predicted), float64(predicted) / float64(len(seq))
}
