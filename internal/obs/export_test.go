package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the exporter golden files")

// goldenRegistry builds a registry with fixed values covering every metric
// kind, labeled names, and special floats.
func goldenRegistry() *Registry {
	r := NewRegistry()
	c := r.Counter("libra_demo_cache_hits_total", "cache hits on the demo path")
	c.Add(41)
	cl := r.Counter(`libra_demo_runs_total{algo="standard-sls"}`, "runs per algorithm")
	cl.Add(3)
	cl2 := r.Counter(`libra_demo_runs_total{algo="txonly-sls"}`, "runs per algorithm")
	cl2.Add(2)
	g := r.Gauge("libra_demo_workers_active", "worker-pool occupancy")
	g.Add(3)
	g.Add(-2)
	fg := r.FloatGauge("libra_demo_drift_psi", "windowed drift statistic")
	fg.Set(0.375)
	fg.Set(0.125)
	h := r.Histogram("libra_demo_fit_seconds", "fit wall time", []float64{0.001, 0.01, 0.1})
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(0.5)
	return r
}

func TestExportGolden(t *testing.T) {
	r := goldenRegistry()
	cases := []struct {
		file  string
		write func(*bytes.Buffer) error
	}{
		{"golden.prom", func(b *bytes.Buffer) error { return r.WritePrometheus(b) }},
		{"golden.jsonl", func(b *bytes.Buffer) error { return r.WriteJSON(b) }},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			var buf bytes.Buffer
			if err := tc.write(&buf); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", tc.file)
			if *update {
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s drifted from golden:\n--- got ---\n%s--- want ---\n%s", tc.file, buf.Bytes(), want)
			}
		})
	}
}

// TestExportDeterministic re-exports the same registry and requires
// identical bytes — the property the trace/metrics reproducibility contract
// rests on.
func TestExportDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := goldenRegistry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two exports of equal registries produced different bytes")
	}
}
