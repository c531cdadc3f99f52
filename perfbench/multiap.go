package main

import (
	"context"
	"fmt"
	"time"

	"github.com/libra-wlan/libra/internal/core"
	"github.com/libra-wlan/libra/internal/dataset"
	"github.com/libra-wlan/libra/internal/sim"
	"github.com/libra-wlan/libra/internal/sim/engine"
)

// The multiap workload: engine.Build and Engine.Run of a grid deployment
// under the LiBRA policy, with the large-α parameters of the battery's
// multiap step. Sized so both phases take seconds on a 2-CPU box.
const (
	multiAPs      = 8
	multiStations = 256
	multiDuration = 4 * time.Second
)

func multiSpec(seed int64, clf core.Classifier) engine.Spec {
	return engine.Spec{
		APs: multiAPs, Stations: multiStations, Duration: multiDuration,
		Seed:     uint64(seed),
		Topology: "grid",
		Params:   sim.Params{BAOverhead: 50 * time.Millisecond, FAT: 2 * time.Millisecond},
		Policy:   sim.LiBRA, Classifier: clf,
	}
}

// engineRun times one Engine.Run at the given worker count.
func engineRun(sc *engine.Scenario, workers int) (time.Duration, *engine.Result, error) {
	t0 := time.Now()
	res, err := engine.New(sc, workers).Run(context.Background())
	return time.Since(t0), res, err
}

func runMultiAP(e *runEnv) error {
	r := e.res
	r.Params = map[string]any{
		"aps": multiAPs, "stations": multiStations, "sim_duration": multiDuration.String(),
		"topology": "grid", "policy": "LiBRA", "ba_overhead": "50ms", "fat": "2ms",
		"workers": "Run at 2 (timed) and 1 (digest check)", "model_seed": modelSeed,
	}
	// Set-up: the LiBRA policy's classifier, trained on the main campaign.
	// Like the decide workloads, it is the shipped model (modelSeed); the
	// run's seed drives the deployment: station layout and impairments.
	var clf *core.MLClassifier
	var setups []time.Duration
	cs := readCounters()
	for i := 0; i < e.setupRepeats(5); i++ {
		t0 := time.Now()
		var main *dataset.Campaign
		e.tr.Do("dataset.collect", -1, func() { main = dataset.GenerateMain(modelSeed) })
		var err error
		e.tr.Do("core.classifier_fit", -1, func() { clf, err = core.TrainDefaultClassifier(main, modelSeed+2) })
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0))
	}
	r.setup(setups)
	if e.tr != nil {
		setupLayers(r, e.tr.Spans(), cs, readCounters())
	}
	spec := multiSpec(e.seed, clf)

	// One operation: Build, Run at 2 workers (timed), Run at 1 worker (the
	// digest check: results are worker-count invariant).
	op := func(tr *Tracer) (build, run2, run1 time.Duration, res *engine.Result, err error) {
		var sc *engine.Scenario
		build = tr.Do("engine.build", -1, func() { sc, err = engine.Build(spec) })
		if err != nil {
			return
		}
		var res1 *engine.Result
		i := tr.Begin("engine.run.w2", -1)
		run2, res, err = engineRun(sc, 2)
		tr.End(i)
		if err != nil {
			return
		}
		i = tr.Begin("engine.run.w1", -1)
		run1, res1, err = engineRun(sc, 1)
		tr.End(i)
		if err != nil {
			return
		}
		r.check(res.Digest == res1.Digest, fmt.Sprintf("digest at 1 worker equals digest at 2 workers (%.16s…)", res.Digest))
		return
	}

	if e.tr != nil {
		// An untraced warm-up operation (the process's first runs cold), the
		// traced one, and an untraced one after it: the overhead baseline.
		var untraced time.Duration
		untracedOp := func() error {
			b, rn, _, _, err := op(nil)
			r.Attempted++
			untraced = b + rn
			return err
		}
		if err := untracedOp(); err != nil {
			return err
		}
		c0, m0 := readCounters(), readMem()
		build, run2, run1, res, err := op(e.tr)
		c1, m1 := readCounters(), readMem()
		r.Attempted++
		if err != nil {
			return err
		}
		if err := untracedOp(); err != nil {
			return err
		}
		r.layer("bench.trace_overhead_ms", ms(build+run2-untraced), "ms")
		pairs := float64(multiAPs * multiStations)
		r.layer("engine.build_s", build.Seconds(), "s")
		r.layer("engine.build_pairs_per_s", pairs/build.Seconds(), "1/s")
		r.layer("engine.run_s.w1", run1.Seconds(), "s")
		r.layer("engine.run_s.w2", run2.Seconds(), "s")
		r.layer("engine.parallel_speedup", run1.Seconds()/run2.Seconds(), "ratio")
		r.layer("engine.events", float64(res.Events), "count")
		r.layer("engine.events_per_s", float64(res.Events)/run2.Seconds(), "1/s")
		r.layer("engine.sim_s_per_host_s", multiDuration.Seconds()/run2.Seconds(), "ratio")
		// The simulated counts of one run (the counters saw two).
		r.layer("engine.handoffs", c1.delta(c0, "libra_sim_handoffs_total")/2, "count")
		r.layer("engine.slot_grants", c1.delta(c0, "libra_sim_slot_grants_total")/2, "count")
		r.layer("engine.interference_verdicts", c1.delta(c0, "libra_sim_interference_verdicts_total")/2, "count")
		r.layer("engine.impairments", c1.delta(c0, "libra_sim_impairments_total")/2, "count")
		channelLayers(r, c0, c1)
		r.layer("runtime.alloc_mb", float64(m1.allocBytes-m0.allocBytes)/(1<<20), "MB")
		r.layer("runtime.gc_cycles", float64(m1.gcCycles-m0.gcCycles), "count")
		return nil
	}

	var ops, builds, runs []time.Duration
	t0 := time.Now()
	for len(ops) < 2 || time.Since(t0) < e.seconds {
		build, run2, _, _, err := op(nil)
		r.Attempted++
		if err != nil {
			// Build and Run are deterministic: a failing operation fails again.
			r.check(false, fmt.Sprintf("engine: %v", err))
			break
		}
		ops = append(ops, build+run2)
		builds = append(builds, build)
		runs = append(runs, run2)
		r.note(fmt.Sprintf("build %.3f s, run %.3f s", build.Seconds(), run2.Seconds()))
	}
	t, b, rn := summarize(ops), summarize(builds), summarize(runs)
	r.e2e("op_p50_ms", t.P50ms)
	r.Detail["build_plus_run"] = t
	r.named("multiap_build_s", b.P50ms/1e3, "s", b.N)
	r.named("multiap_run_s", rn.P50ms/1e3, "s", rn.N)
	return nil
}
