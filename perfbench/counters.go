package main

import (
	"runtime"
	"syscall"

	"github.com/libra-wlan/libra/internal/obs"
)

// Counters is a frozen view of the program's own metric registry. The
// benchmark reads the counters and histograms the packages already register
// in obs; it adds none.
type Counters map[string]obs.Metric

// readCounters snapshots obs.Default.
func readCounters() Counters {
	out := Counters{}
	for _, m := range obs.Default.Snapshot() {
		out[m.Name] = m
	}
	return out
}

// delta returns the growth of counter name since before.
func (c Counters) delta(before Counters, name string) float64 {
	return c[name].Value - before[name].Value
}

// histDelta returns the observation count and sum added to histogram name
// since before.
func (c Counters) histDelta(before Counters, name string) (count uint64, sum float64) {
	return c[name].Count - before[name].Count, c[name].Sum - before[name].Sum
}

// histMean is the mean of the observations added since before (0 when none).
func (c Counters) histMean(before Counters, name string) float64 {
	n, s := c.histDelta(before, name)
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

// memSample is the runtime's allocation and GC totals at one instant.
type memSample struct {
	allocBytes uint64
	gcCycles   uint32
}

func readMem() memSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSample{allocBytes: ms.TotalAlloc, gcCycles: ms.NumGC}
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// setupLayers records the set-up's layer metrics of a traced run: the spans
// around campaign generation, classifier fit and quantization, and the
// dataset and ml counters over the set-up.
func setupLayers(r *Result, spans []Span, before, after Counters) {
	collect := totalOf(spans, "dataset.collect")
	r.layer("dataset.collect_s", collect.Seconds(), "s")
	if collect > 0 {
		r.layer("dataset.entries_per_s", after.delta(before, "libra_dataset_campaign_entries_total")/collect.Seconds(), "1/s")
	}
	r.layer("core.classifier_fit_s", totalOf(spans, "core.classifier_fit").Seconds(), "s")
	r.layer("ml.quantize_s", totalOf(spans, "ml.quantize").Seconds(), "s")
	r.layer("ml.tree_fits", after.delta(before, "libra_ml_tree_fits_total"), "count")
}
