package obs

import (
	"sync"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if again := r.Counter("c_total", "a counter"); again != c {
		t.Error("re-registering a counter must return the same instance")
	}

	g := r.Gauge("g", "a gauge")
	g.Inc()
	g.Inc()
	g.Inc()
	g.Dec()
	if got, max := g.Value(), g.Max(); got != 2 || max != 3 {
		t.Errorf("gauge = (%d, max %d), want (2, max 3)", got, max)
	}

	h := r.Histogram("h_seconds", "a histogram", []float64{1, 2})
	for _, v := range []float64{0.5, 1, 1.5, 2.5} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Errorf("histogram count = %d, want 4", h.Count())
	}
	if h.Sum() != 5.5 {
		t.Errorf("histogram sum = %g, want 5.5", h.Sum())
	}
	var snap Metric
	for _, m := range r.Snapshot() {
		if m.Name == "h_seconds" {
			snap = m
		}
	}
	// Bucket bounds are inclusive (le): 1 falls in the first bucket.
	wantCum := []uint64{2, 3, 4}
	for i, b := range snap.Buckets {
		if b.Count != wantCum[i] {
			t.Errorf("bucket %d cumulative count = %d, want %d", i, b.Count, wantCum[i])
		}
	}
}

// TestRegistryConcurrent hammers one registry from many goroutines; run
// under -race it proves the hot-path operations and Snapshot are safe.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hammer_total", "")
	g := r.Gauge("hammer_depth", "")
	h := r.Histogram("hammer_seconds", "", DurationBuckets)

	const workers = 8
	const perWorker = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Inc()
				h.Observe(float64(i%7) * 1e-3)
				g.Dec()
				if i%512 == 0 {
					// Registration and snapshotting race against updates.
					r.Counter("hammer_total", "")
					r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()

	if got := c.Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := h.Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
	if g.Value() != 0 {
		t.Errorf("gauge = %d, want 0", g.Value())
	}
	if g.Max() < 1 || g.Max() > workers {
		t.Errorf("gauge max = %d, want within [1, %d]", g.Max(), workers)
	}
}
