// Benchmarks regenerating every table and figure of the paper's evaluation,
// plus ablation benches for the design choices DESIGN.md calls out. Run with
//
//	go test -bench=. -benchmem
//
// Each BenchmarkTableN / BenchmarkFigureN regenerates the corresponding
// result from scratch inputs held in a shared suite; per-op time is the cost
// of reproducing that artifact.
package libra

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/libra-wlan/libra/internal/channel"
	"github.com/libra-wlan/libra/internal/dataset"
	"github.com/libra-wlan/libra/internal/env"
	"github.com/libra-wlan/libra/internal/experiments"
	"github.com/libra-wlan/libra/internal/geom"
	"github.com/libra-wlan/libra/internal/ml"
	"github.com/libra-wlan/libra/internal/phased"
	"github.com/libra-wlan/libra/internal/sim"
	"github.com/libra-wlan/libra/internal/trace"
)

var (
	benchOnce  sync.Once
	benchSuite *experiments.Suite
)

func suite(b *testing.B) *experiments.Suite {
	b.Helper()
	benchOnce.Do(func() {
		benchSuite = experiments.NewSuite(42)
		// Warm the caches so individual benchmarks measure their own work.
		benchSuite.Main()
		benchSuite.Test()
		if _, err := benchSuite.Classifier(); err != nil {
			panic(err)
		}
		benchSuite.Pools()
	})
	return benchSuite
}

// ---- Motivation (Figs 1-3) ----

func BenchmarkFigure1(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		if r := experiments.Figure1(s); r.WithBA <= 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkFigure2(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		if r := experiments.Figure2(s); r.WithBA <= 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkFigure3(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		if r := experiments.Figure3(s); r.WithBA <= 0 {
			b.Fatal("empty result")
		}
	}
}

// ---- Datasets (Tables 1-2) ----

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := dataset.GenerateMain(42)
		if len(c.Entries) != 1336 {
			b.Fatalf("entries = %d", len(c.Entries))
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := dataset.GenerateTest(43)
		if len(c.Entries) != 456 {
			b.Fatalf("entries = %d", len(c.Entries))
		}
	}
}

// BenchmarkSweepFused measures the fused 25x25 sector sweep: each iteration
// moves the receiver (forcing a geometry and gain-table rebuild, like a
// displacement step) and then finds the best beam pair through the blocked
// matrix kernel.
func BenchmarkSweepFused(b *testing.B) {
	e := env.Lobby()
	tx := phased.NewArray(geom.V(2, 6), 0, 7)
	rx := phased.NewArray(geom.V(15, 5), 90, 108)
	l := channel.NewLink(e, tx, rx)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.MoveRx(geom.V(15, 5+float64(i%5)*0.05))
		if _, _, snr := l.BestPair(); math.IsNaN(snr) {
			b.Fatal("bad sweep")
		}
	}
}

// ---- PHY metric CDFs (Figs 4-9) ----

func benchMetricFigure(b *testing.B, f func(*experiments.Suite) *experiments.Figure) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fig := f(s); len(fig.Panels) != 4 {
			b.Fatal("bad figure")
		}
	}
}

func BenchmarkFigure4(b *testing.B) { benchMetricFigure(b, experiments.Figure4) }
func BenchmarkFigure5(b *testing.B) { benchMetricFigure(b, experiments.Figure5) }
func BenchmarkFigure6(b *testing.B) { benchMetricFigure(b, experiments.Figure6) }
func BenchmarkFigure7(b *testing.B) { benchMetricFigure(b, experiments.Figure7) }
func BenchmarkFigure8(b *testing.B) { benchMetricFigure(b, experiments.Figure8) }
func BenchmarkFigure9(b *testing.B) { benchMetricFigure(b, experiments.Figure9) }

// ---- ML study (§6.2, Table 3) ----

func BenchmarkCrossValidation(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.CrossValidation(s, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTransferAccuracy(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TransferAccuracy(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table3(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkThreeClass(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ThreeClass(s); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Trace-driven evaluation (Figs 10-13, Table 4) ----

func BenchmarkFigure10(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure10(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure11(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure11(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure12(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure12(s, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure13(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure13(s, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table4(s, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Hot-path microbenchmarks ----

func BenchmarkSectorSweep(b *testing.B) {
	s := suite(b)
	pools := s.Pools()
	rng := rand.New(rand.NewSource(1))
	tl := pools.RandomTimeline(trace.Motion, rng)
	snap := tl.Segments[0].Snap
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sw := snap.Sweep(); len(sw) == 0 {
			b.Fatal("empty sweep")
		}
	}
}

func BenchmarkClassifierInference(b *testing.B) {
	s := suite(b)
	clf, err := s.Classifier()
	if err != nil {
		b.Fatal(err)
	}
	e := s.TestEntries()[0]
	f := e.FeatureSlice()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clf.Classify(f)
	}
}

// BenchmarkForestFit measures forest training on the main campaign's feature
// matrix — the presorted split-finding hot path.
func BenchmarkForestFit(b *testing.B) {
	s := suite(b)
	train := s.Main().ToML(true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rf := &ml.RandomForest{NumTrees: 60, MaxDepth: 10, Seed: 3}
		if err := rf.Fit(train); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNeuralNetFit measures one §6.2 DNN fit on the main campaign's
// 2-class feature matrix — the mini-batch training kernel.
func BenchmarkNeuralNetFit(b *testing.B) {
	s := suite(b)
	train := s.Main().ToML(false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nn := &ml.NeuralNet{Epochs: 120, Seed: 3}
		if err := nn.Fit(train); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSVMFit measures one §6.2 SVM fit (the RBF kernel and the
// parameters ModelFactories gives it) on the main campaign's 2-class feature
// matrix — the SMO solver.
func BenchmarkSVMFit(b *testing.B) {
	s := suite(b)
	train := s.Main().ToML(false)
	newSVM := experiments.ModelFactories(3)["SVM"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := newSVM().Fit(train); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictBatch measures flattened batch inference over the whole
// test campaign with a reused output buffer (zero per-sample allocation).
func BenchmarkPredictBatch(b *testing.B) {
	s := suite(b)
	train := s.Main().ToML(true)
	test := s.Test().ToML(true)
	rf := &ml.RandomForest{NumTrees: 60, MaxDepth: 10, Seed: 3}
	if err := rf.Fit(train); err != nil {
		b.Fatal(err)
	}
	out := make([]int, 0, test.Len())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = rf.PredictBatch(test.X, out)
	}
	if len(out) != test.Len() {
		b.Fatal("bad batch output")
	}
}

func BenchmarkPolicyEntry(b *testing.B) {
	s := suite(b)
	clf, _ := s.Classifier()
	entries := s.TestEntries()
	opt := sim.Options{
		Params: sim.Params{BAOverhead: 5 * time.Millisecond, FAT: 2 * time.Millisecond, FlowDur: time.Second},
		Policy: sim.LiBRA, Classifier: clf,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(context.Background(), sim.Scenario{Entry: entries[i%len(entries)]}, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// entryTotals replays every entry through sim.Run under opt and sums the
// outcomes' bytes and recovery delays.
func entryTotals(b *testing.B, entries []*dataset.Entry, opt sim.Options) (bytes float64, delay time.Duration) {
	for _, e := range entries {
		res, err := sim.Run(context.Background(), sim.Scenario{Entry: e}, opt)
		if err != nil {
			b.Fatal(err)
		}
		bytes += res.Outcome.Bytes
		delay += res.Outcome.RecoveryDelay
	}
	return bytes, delay
}

// ---- Ablations (DESIGN.md §5) ----

// BenchmarkAblationClassifier compares the accuracy of the four model
// families as LiBRA's decision core (reported via b.ReportMetric).
func BenchmarkAblationClassifier(b *testing.B) {
	s := suite(b)
	train := s.Main().ToML(true)
	test := s.Test().ToML(true)
	for name, factory := range experiments.ModelFactories(1) {
		b.Run(name, func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				m := factory()
				if err := m.Fit(train); err != nil {
					b.Fatal(err)
				}
				acc = ml.Accuracy(test.Y, ml.PredictAll(m, test))
			}
			b.ReportMetric(acc*100, "acc%")
		})
	}
}

// BenchmarkAblationMissingACK compares the bytes LiBRA delivers on the test
// entries with those of the RA First policy, which tries RA first at every
// break and never consults the classifier. The gap therefore measures the
// classifier and the §7 missing-ACK rule together; no arm drops the rule
// alone.
func BenchmarkAblationMissingACK(b *testing.B) {
	s := suite(b)
	clf, _ := s.Classifier()
	entries := s.TestEntries()
	p := sim.Params{BAOverhead: 5 * time.Millisecond, FAT: 2 * time.Millisecond, FlowDur: time.Second}
	run := func(b *testing.B, pol sim.Policy) {
		var bytes float64
		for i := 0; i < b.N; i++ {
			bytes, _ = entryTotals(b, entries, sim.Options{Params: p, Policy: pol, Classifier: clf})
		}
		b.ReportMetric(bytes/1e9, "GB")
	}
	b.Run("libra", func(b *testing.B) { run(b, sim.LiBRA) })
	b.Run("ra-first", func(b *testing.B) { run(b, sim.RAFirst) })
}

// BenchmarkAblationThreeClass compares the native 3-class model against the
// 2-class model on transfer accuracy.
func BenchmarkAblationThreeClass(b *testing.B) {
	s := suite(b)
	cases := []struct {
		name  string
		three bool
	}{{"two-class", false}, {"three-class", true}}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			train := s.Main().ToML(c.three)
			test := s.Test().ToML(c.three)
			var acc float64
			for i := 0; i < b.N; i++ {
				rf := &ml.RandomForest{NumTrees: 60, MaxDepth: 10, Seed: 3}
				if err := rf.Fit(train); err != nil {
					b.Fatal(err)
				}
				acc = ml.Accuracy(test.Y, ml.PredictAll(rf, test))
			}
			b.ReportMetric(acc*100, "acc%")
		})
	}
}

// BenchmarkAblationRxInitiated quantifies §7's Tx- vs Rx-initiated design
// choice: the Rx-initiated variant never hits the missing-ACK blind spot but
// pays a signaling exchange on every adaptation.
func BenchmarkAblationRxInitiated(b *testing.B) {
	s := suite(b)
	clf, _ := s.Classifier()
	entries := s.TestEntries()
	p := sim.Params{BAOverhead: 5 * time.Millisecond, FAT: 2 * time.Millisecond, FlowDur: time.Second}
	for _, v := range []struct {
		name    string
		variant sim.Variant
	}{{"tx-initiated", sim.VariantStandard}, {"rx-initiated", sim.VariantRxInitiated}} {
		b.Run(v.name, func(b *testing.B) {
			var delay time.Duration
			for i := 0; i < b.N; i++ {
				_, delay = entryTotals(b, entries, sim.Options{Params: p, Policy: sim.LiBRA, Classifier: clf, Variant: v.variant})
			}
			b.ReportMetric(float64(delay/time.Duration(len(entries)))/1e6, "ms/break")
		})
	}
}
