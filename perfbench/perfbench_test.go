package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{39, 0, false},  // p75 of 39 leaves 9 beyond
		{40, 75, true},  // p75 of 40 leaves 10 beyond
		{100, 90, true}, // p90 leaves 10; p95 would leave 5
		{199, 90, true}, // p95 of 199 leaves 9
		{200, 95, true},
		{1000, 99, true}, // p99 of 1000 leaves 10
		{999, 95, true},  // p99 of 999 leaves 9
		{10010, 99.9, true},
		{200000, 99.99, true},
	}
	for _, c := range cases {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
		if ok && c.n-1-rankIndex(p, c.n) < minBeyond {
			t.Errorf("n=%d: p%v leaves %d samples beyond", c.n, p, c.n-1-rankIndex(p, c.n))
		}
	}
}

func TestSummarize(t *testing.T) {
	var ds []time.Duration
	for i := 1000; i >= 1; i-- { // unsorted on purpose
		ds = append(ds, time.Duration(i)*time.Millisecond)
	}
	got := summarize(ds)
	if got.N != 1000 || got.P50ms != 500.5 || got.MaxMs != 1000 {
		t.Fatalf("summarize: %+v", got)
	}
	// 1000 samples: p99 leaves 10 beyond (991..1000 after rank 990).
	if got.TailP != 99 || got.TailMs != 990 {
		t.Fatalf("tail = p%v %v ms, want p99 990 ms", got.TailP, got.TailMs)
	}
	few := summarize([]time.Duration{3 * time.Second, time.Second, 2 * time.Second})
	if few.TailP != 0 || few.MaxMs != 3000 || few.P50ms != 2000 {
		t.Fatalf("three samples: %+v", few)
	}
}

func TestSelfTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []Span{
		{Name: "root", Start: at(0), End: at(100), Parent: -1},
		{Name: "a", Start: at(10), End: at(40), Parent: 0},
		{Name: "b", Start: at(30), End: at(50), Parent: 0},    // overlaps a: union 10..50
		{Name: "c", Start: at(90), End: at(120), Parent: 0},   // clipped to 90..100
		{Name: "a1", Start: at(15), End: at(20), Parent: 1},   // child of a
		{Name: "x", Start: at(200), End: at(210), Parent: -1}, // a second root
	}
	self := selfTimes(spans)
	want := []time.Duration{50, 25, 20, 30, 5, 10}
	for i, w := range want {
		if self[i] != w*time.Millisecond {
			t.Errorf("self[%s] = %v, want %v", spans[i].Name, self[i], w*time.Millisecond)
		}
	}
	if got := selfOf(spans, "root"); got != 50*time.Millisecond {
		t.Errorf("selfOf(root) = %v", got)
	}
	if got := totalOf(spans, "a", "b"); got != 50*time.Millisecond {
		t.Errorf("totalOf(a, b) = %v", got)
	}
	rows := layerTable(spans)
	if rows[0].Layer != "root" || rows[0].Self != 50*time.Millisecond {
		t.Errorf("layerTable top row %+v", rows[0])
	}
}

func TestLadderBisectionFindsHighestPassingRung(t *testing.T) {
	l := Ladder{Base: 1000, Step: 1.05, Rungs: 110}
	if r := l.Rate(1) / l.Rate(0); r > 1.05+1e-12 {
		t.Fatalf("rungs %v apart, want <= 5%%", r)
	}
	for capacity := -1; capacity < l.Rungs; capacity++ {
		best, probed := l.highestPassing(func(k int) bool { return k <= capacity })
		if best != capacity {
			t.Fatalf("capacity %d: bisection returned %d", capacity, best)
		}
		if len(probed) > l.probes() {
			t.Fatalf("capacity %d: %d probes, bound %d", capacity, len(probed), l.probes())
		}
	}
}

func TestWindowsAndBacklog(t *testing.T) {
	dur := time.Second
	ph := &Phase{}
	for i := 0; i < 1000; i++ {
		off := time.Duration(i) * time.Millisecond
		ph.Sched = append(ph.Sched, off)
		// Latency grows with time: a building backlog.
		ph.Lat = append(ph.Lat, time.Millisecond+off/100)
	}
	ws := ph.windows(5, dur)
	if len(ws) != 5 || ws[0].N != 200 || ws[4].N != 200 || ws[4].P50ms <= ws[0].P50ms {
		t.Fatalf("windows: %+v", ws)
	}
	if !ph.growing(dur, time.Millisecond) {
		t.Fatal("a latency ramp of 7.5 ms is a growing backlog")
	}
	flat := &Phase{Sched: ph.Sched, Lat: make([]time.Duration, 1000)}
	for i := range flat.Lat {
		flat.Lat[i] = time.Millisecond
	}
	if flat.growing(dur, time.Millisecond) {
		t.Fatal("flat latency is no backlog")
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metric tables in
// sync: the program must print exactly the declared metrics.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
			Bound      float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d/%d metrics, code %d/%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].Name || m.Unit != endToEnd[i].Unit {
			t.Errorf("end_to_end[%d] = %s %s, code %+v", i, m.Name, m.Unit, endToEnd[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].Name || m.Unit != perLayer[i].Unit {
			t.Errorf("per_layer[%d] = %s %s, code %+v", i, m.Name, m.Unit, perLayer[i])
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, code %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d = %s, code %s", i, w.Name, workloads[i].name)
		}
	}
}
