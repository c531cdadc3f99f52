package ml_test

import (
	"fmt"
	"testing"

	"github.com/libra-wlan/libra/internal/dataset"
	"github.com/libra-wlan/libra/internal/ml"
)

// BenchmarkQuantShapes times one class-prediction batch call per operation,
// quantized and float64, over the shapes that set decide latency and the
// serving throughput ceiling: the shipped 80x12 forest and a 2400x20 one
// beyond L2, each fit on GenerateMain(42) with seed 44 as libra-train fits
// them, at the row counts a flush holds — one row when the decide path runs
// idle, up to the coalescer's max-batch under load. Rows are the
// transfer-test campaign narrowed to float32 (what the binary wire
// delivers), cycled so consecutive calls walk different paths.
func BenchmarkQuantShapes(b *testing.B) {
	test := dataset.GenerateTest(7).ToML(true)
	pool := make([][]float64, len(test.X))
	for i, x := range test.X {
		pool[i] = make([]float64, len(x))
		for j, v := range x {
			pool[i][j] = float64(float32(v))
		}
	}
	// ring repeats the pool so that every window of up to 512 rows is one
	// slice; consecutive calls take consecutive windows.
	var ring [][]float64
	for len(ring) < len(pool)+512 {
		ring = append(ring, pool...)
	}
	train := dataset.GenerateMain(42).ToML(true)
	for _, shape := range []struct {
		trees, depth int
		rows         []int
	}{
		{80, 12, []int{1, 2, 3, 4, 8, 64}},
		{2400, 20, []int{1, 2, 3, 4, 8, 64, 256, 512}},
	} {
		rf := &ml.RandomForest{NumTrees: shape.trees, MaxDepth: shape.depth, Seed: 44}
		if err := rf.Fit(train); err != nil {
			b.Fatal(err)
		}
		q, err := rf.Quantize()
		if err != nil {
			b.Fatal(err)
		}
		for _, rows := range shape.rows {
			out := make([]int, rows)
			for _, impl := range []struct {
				name    string
				predict func([][]float64, []int) []int
			}{
				{"quant32-class", q.PredictBatch},
				{"float64-class", rf.PredictBatch},
			} {
				name := fmt.Sprintf("%dx%d/rows=%d/%s", shape.trees, shape.depth, rows, impl.name)
				b.Run(name, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						at := i * rows % len(pool)
						impl.predict(ring[at:at+rows], out)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
				})
			}
		}
	}
}
