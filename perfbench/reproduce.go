package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"github.com/libra-wlan/libra/internal/experiments"
	"github.com/libra-wlan/libra/internal/sim"
)

// The reproduce workload: the whole canonical battery, as libra-figures
// -quick runs it (2 cross-validation repetitions, 10 timelines per kind), on
// a fresh experiments.Suite per battery.
var reproduceOpts = experiments.RunOptions{Reps: 2, Timelines: 10}

// pinnedSeed/pinnedSHA pin the rendered battery for libra-figures' default
// seed. The digest is over the text libra-figures -quick prints, minus its
// "(<step> completed at ...)" timing lines:
//
//	go run ./cmd/libra-figures -quick | grep -v 'completed at' | sha256sum
const (
	pinnedSeed = 42
	pinnedSHA  = "73866b51faca71a0bde3d23689f36b3b0aca695597869882a3f843acb07cc601"
)

// warmupSeed is the throwaway suite the set-up warms the process with. It
// is fixed, so every run's set-up does the same work.
const warmupSeed = 1000

// stepLayer maps a battery step to the layer that does its work.
func stepLayer(key string) string {
	switch key {
	case "fig1", "fig2", "fig3":
		return "channel.motivation"
	case "table1", "table2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9":
		return "dataset.summaries"
	case "cv":
		return "ml.cv"
	case "transfer", "table3", "threeclass":
		return "ml.study"
	case "futurework", "failover", "alphasweep", "fig10", "fig11", "fig12", "fig13", "table4":
		return "sim.eval"
	case "multiap":
		return "engine.multiap_step"
	}
	return "experiments.other_step"
}

// renderDigest hashes the battery's rendered text the way libra-figures
// prints it.
func renderDigest(res []experiments.NamedResult) string {
	h := sha256.New()
	for _, r := range res {
		fmt.Fprintln(h, r.Result.String())
		fmt.Fprintln(h)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// battery runs one full battery on a fresh suite in one Suite.Run call.
func battery(seed int64) (time.Duration, string, error) {
	t0 := time.Now()
	res, err := experiments.NewSuite(seed).Run(reproduceOpts)
	d := time.Since(t0)
	if err != nil {
		return d, "", err
	}
	if len(res) != len(experiments.StepKeys()) {
		return d, "", fmt.Errorf("battery returned %d of %d steps", len(res), len(experiments.StepKeys()))
	}
	return d, renderDigest(res), nil
}

func runReproduce(e *runEnv) error {
	r := e.res
	r.Params = map[string]any{
		"cv_reps": reproduceOpts.Reps, "timelines_per_kind": reproduceOpts.Timelines,
		"steps": len(experiments.StepKeys()), "equivalent": "libra-figures -quick",
	}
	// Set-up: warm the process by generating a throwaway suite's campaigns.
	var setups []time.Duration
	for i := 0; i < e.setupRepeats(5); i++ {
		t0 := time.Now()
		s := experiments.NewSuite(warmupSeed)
		s.Main()
		s.Test()
		setups = append(setups, time.Since(t0))
	}
	r.setup(setups)

	if e.tr != nil {
		return reproduceTraced(e)
	}
	var times []time.Duration
	digests := map[string]int{}
	t0 := time.Now()
	for len(times) < 2 || time.Since(t0) < e.seconds {
		d, digest, err := battery(e.seed)
		r.Attempted++
		if err != nil {
			// The battery is deterministic: a failing one fails again.
			r.check(false, fmt.Sprintf("battery %d: %v", len(times)+1, err))
			break
		}
		times = append(times, d)
		digests[digest]++
	}
	checkDigests(r, e.seed, digests)
	t := summarize(times)
	r.e2e("op_p50_ms", t.P50ms)
	r.named("reproduce_s", t.P50ms/1e3, "s", t.N)
	r.Detail["batteries"] = t
	for _, d := range times {
		r.note(fmt.Sprintf("battery %.3f s", d.Seconds()))
	}
	return nil
}

// checkDigests demands one rendered output across the run's batteries, and
// the pinned one for the pinned seed. A run whose batteries all failed has
// nothing to compare; those failures are already counted.
func checkDigests(r *Result, seed int64, digests map[string]int) {
	if len(digests) == 0 {
		return
	}
	r.check(len(digests) == 1, fmt.Sprintf("every battery renders the same output (%d distinct digests)", len(digests)))
	for d := range digests {
		r.Detail["battery_sha256"] = d
		if seed == pinnedSeed {
			r.check(d == pinnedSHA, fmt.Sprintf("battery digest %s matches the pin for seed %d", d, pinnedSeed))
		}
	}
}

// reproduceTraced runs an untraced warm-up battery (the process's first
// battery runs cold), one battery traced step by step, and one untraced
// battery after it (the overhead baseline), then one Fit per model family
// and a sim.Run per test entry.
func reproduceTraced(e *runEnv) error {
	r, tr := e.res, e.tr
	digests := map[string]int{}
	var untraced time.Duration
	untracedBattery := func() bool {
		d, digest, err := battery(e.seed)
		r.Attempted++
		if err != nil {
			r.check(false, fmt.Sprintf("untraced battery: %v", err))
			return false
		}
		untraced = d
		digests[digest]++
		return true
	}
	if !untracedBattery() {
		return nil
	}
	var err error

	c0, m0 := readCounters(), readMem()
	root := tr.Begin("experiments.battery", -1)
	s := experiments.NewSuite(e.seed)
	tr.Do("dataset.collect", root, func() { s.Main(); s.Test() })
	var clfErr error
	tr.Do("core.classifier_fit", root, func() { _, clfErr = s.Classifier() })
	tr.Do("trace.pools", root, func() { s.Pools() })
	var res []experiments.NamedResult
	for _, k := range experiments.StepKeys() {
		opt := reproduceOpts
		opt.Only = []string{k}
		tr.Do(stepLayer(k), root, func() {
			var one []experiments.NamedResult
			one, err = s.Run(opt)
			res = append(res, one...)
		})
		if err != nil {
			break
		}
	}
	tr.End(root)
	c1, m1 := readCounters(), readMem()
	r.Attempted++
	if err == nil {
		err = clfErr
	}
	if err != nil {
		r.check(false, fmt.Sprintf("traced battery: %v", err))
		return nil
	}
	digests[renderDigest(res)]++
	if !untracedBattery() {
		return nil
	}
	checkDigests(r, e.seed, digests)

	spans := tr.Spans()
	traced := spans[root].Dur()
	r.layer("bench.trace_overhead_ms", ms(traced-untraced), "ms")
	r.note(fmt.Sprintf("battery untraced %.3f s, traced %.3f s", untraced.Seconds(), traced.Seconds()))
	collect := totalOf(spans, "dataset.collect")
	entries := len(s.Main().Entries) + len(s.Test().Entries)
	r.layer("dataset.collect_s", collect.Seconds(), "s")
	r.layer("dataset.entries_per_s", float64(entries)/collect.Seconds(), "1/s")
	r.layer("dataset.summaries_s", totalOf(spans, "dataset.summaries").Seconds(), "s")
	r.layer("channel.motivation_s", totalOf(spans, "channel.motivation").Seconds(), "s")
	r.layer("ml.cv_s", totalOf(spans, "ml.cv").Seconds(), "s")
	r.layer("ml.study_s", totalOf(spans, "ml.study").Seconds(), "s")
	r.layer("core.classifier_fit_s", totalOf(spans, "core.classifier_fit").Seconds(), "s")
	r.layer("trace.pools_s", totalOf(spans, "trace.pools").Seconds(), "s")
	r.layer("sim.eval_s", totalOf(spans, "sim.eval").Seconds(), "s")
	r.layer("engine.multiap_step_s", totalOf(spans, "engine.multiap_step").Seconds(), "s")
	r.layer("experiments.unaccounted_s", selfOf(spans, "experiments.battery").Seconds(), "s")
	r.layer("ml.tree_fits", c1.delta(c0, "libra_ml_tree_fits_total"), "count")
	channelLayers(r, c0, c1)
	r.layer("runtime.alloc_mb", float64(m1.allocBytes-m0.allocBytes)/(1<<20), "MB")
	r.layer("runtime.gc_cycles", float64(m1.gcCycles-m0.gcCycles), "count")

	// One Fit per model family on the main campaign.
	train := s.Main().ToML(false)
	for name, factory := range experiments.ModelFactories(e.seed + 23) {
		c := factory()
		d := tr.Do("ml.fit."+name, -1, func() { err = c.Fit(train) })
		if err != nil {
			r.check(false, fmt.Sprintf("fit %s: %v", name, err))
			continue
		}
		r.layer("ml.fit_s."+name, d.Seconds(), "s")
	}

	// sim.Run per test entry under LiBRA at the paper's large-α cell.
	clf, _ := s.Classifier()
	opt := sim.Options{
		Params:     sim.Params{BAOverhead: 50 * time.Millisecond, FAT: 2 * time.Millisecond, FlowDur: time.Second},
		Policy:     sim.LiBRA,
		Classifier: clf,
	}
	var runs []time.Duration
	simRoot := tr.Begin("sim.run", -1)
	for pass := 0; pass < 5; pass++ {
		for _, ent := range s.TestEntries() {
			t0 := time.Now()
			if _, err := sim.Run(context.Background(), sim.Scenario{Entry: ent}, opt); err != nil {
				r.check(false, fmt.Sprintf("sim.Run: %v", err))
				break
			}
			runs = append(runs, time.Since(t0))
		}
	}
	tr.End(simRoot)
	r.layer("sim.run_us", summarize(runs).P50ms*1e3, "us")
	return nil
}

// channelLayers reads the channel's own counters over a measured stretch.
func channelLayers(r *Result, c0, c1 Counters) {
	hits := c1.delta(c0, "libra_channel_bestpair_cache_hits_total")
	lookups := hits + c1.delta(c0, "libra_channel_bestpair_cache_misses_total")
	if lookups > 0 {
		r.layer("channel.bestpair_hit_ratio", hits/lookups, "ratio")
	}
	r.layer("channel.bestpair_lookups", lookups, "count")
	r.layer("channel.ray_traces", c1.delta(c0, "libra_channel_ray_traces_total"), "count")
	r.layer("channel.gain_rebuilds", c1.delta(c0, "libra_channel_gain_rebuilds_total"), "count")
}
