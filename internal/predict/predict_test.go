package predict

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/libra-wlan/libra/internal/dataset"
)

func TestLearnsPeriodicBlockage(t *testing.T) {
	// A person crossing the LOS on a fixed loop: BA, NA, BA, NA, ...
	p := NewMarkovPredictor(2)
	seq := []dataset.Action{}
	for i := 0; i < 40; i++ {
		if i%2 == 0 {
			seq = append(seq, dataset.ActBA)
		} else {
			seq = append(seq, dataset.ActNA)
		}
	}
	for _, a := range seq {
		p.Observe(a)
	}
	// After NA, BA the pattern continues with NA.
	pred, conf := p.Predict()
	want := seq[len(seq)%2] // the next element of the alternation
	if pred != want || conf < 0.9 {
		t.Errorf("predicted %v (conf %v), want %v", pred, conf, want)
	}
}

func TestOnlineAccuracyPeriodic(t *testing.T) {
	var seq []dataset.Action
	pattern := []dataset.Action{dataset.ActBA, dataset.ActNA, dataset.ActRA, dataset.ActNA}
	for i := 0; i < 100; i++ {
		seq = append(seq, pattern[i%len(pattern)])
	}
	acc, covered := Accuracy(seq, 2)
	if acc < 0.95 {
		t.Errorf("periodic accuracy = %v", acc)
	}
	if covered < 0.8 {
		t.Errorf("coverage = %v", covered)
	}
}

func TestRandomSequenceLowConfidence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var seq []dataset.Action
	for i := 0; i < 300; i++ {
		seq = append(seq, dataset.Action(rng.Intn(3)))
	}
	acc, _ := Accuracy(seq, 2)
	// Random 3-way sequence: accuracy near chance, far below the periodic
	// case. (The most frequent class gives ~1/3; allow slack.)
	if acc > 0.55 {
		t.Errorf("random-sequence accuracy suspiciously high: %v", acc)
	}
}

func TestColdStart(t *testing.T) {
	p := NewMarkovPredictor(3)
	if _, conf := p.Predict(); conf != 0 {
		t.Error("cold predictor should have zero confidence")
	}
	p.Observe(dataset.ActBA)
	p.Observe(dataset.ActRA)
	if _, conf := p.Predict(); conf != 0 {
		t.Error("under-filled history should have zero confidence")
	}
}

func TestUnseenContext(t *testing.T) {
	p := NewMarkovPredictor(2)
	for i := 0; i < 10; i++ {
		p.Observe(dataset.ActNA)
	}
	// Force a never-seen context.
	p.Observe(dataset.ActBA)
	p.Observe(dataset.ActRA)
	if _, conf := p.Predict(); conf != 0 {
		t.Error("unseen context should have zero confidence")
	}
}

func TestZeroValueUsable(t *testing.T) {
	var p MarkovPredictor
	p.Order = 1
	p.Observe(dataset.ActBA)
	p.Observe(dataset.ActBA)
	p.Observe(dataset.ActBA)
	pred, conf := p.Predict()
	if pred != dataset.ActBA || conf != 1 {
		t.Errorf("constant stream: %v (%v)", pred, conf)
	}
}

func TestHistoryBounded(t *testing.T) {
	p := NewMarkovPredictor(2)
	for i := 0; i < 10000; i++ {
		p.Observe(dataset.ActNA)
	}
	if len(p.history) > 8 {
		t.Errorf("history grew to %d", len(p.history))
	}
}

func TestString(t *testing.T) {
	p := NewMarkovPredictor(2)
	if !strings.Contains(p.String(), "order=2") {
		t.Errorf("String = %q", p.String())
	}
}

func TestAccuracyEmptyAndShort(t *testing.T) {
	if acc, cov := Accuracy(nil, 2); acc != 0 || cov != 0 {
		t.Error("empty sequence")
	}
	if acc, cov := Accuracy([]dataset.Action{dataset.ActBA}, 2); acc != 0 || cov != 0 {
		t.Error("too-short sequence")
	}
}

func TestHigherOrderCapturesLongerPatterns(t *testing.T) {
	// Pattern of period 3 with an ambiguous bigram: order 1 confuses it,
	// order 2 nails it. Sequence: BA, BA, NA, BA, BA, NA, ...
	var seq []dataset.Action
	pattern := []dataset.Action{dataset.ActBA, dataset.ActBA, dataset.ActNA}
	for i := 0; i < 120; i++ {
		seq = append(seq, pattern[i%3])
	}
	acc1, _ := Accuracy(seq, 1)
	acc2, _ := Accuracy(seq, 2)
	if acc2 <= acc1 {
		t.Errorf("order-2 accuracy %v not above order-1 %v", acc2, acc1)
	}
	if acc2 < 0.95 {
		t.Errorf("order-2 accuracy = %v", acc2)
	}
}
