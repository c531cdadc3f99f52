// Command perfbench is the repository's benchmark: one program that runs a
// named workload end to end, checks that its outputs are correct, and prints
// every metric by name with its unit. The last line of standard output is a
// JSON object {correct, attempted, failed, metrics}: the end-to-end metrics
// of BENCHMARK.json with -trace 0, the per-layer metrics with -trace 1.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload reproduce --seed 1 --seconds 12 --trace 0
//
// See README.md in this directory for the workloads, the metrics, and which
// layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workload is one named input set.
type workload struct {
	name string
	run  func(*runEnv) error
}

var workloads = []workload{
	{"reproduce", runReproduce},
	{"multiap", runMultiAP},
	{"decide", runDecide(decideFleet)},
	{"decide_heavy", runDecide(decideHeavy)},
}

// metricDef declares one reported metric.
type metricDef struct {
	Name, Unit string
}

// endToEnd are the end-to-end metrics every workload reports with -trace 0
// (README.md says what each means on each workload). Tails and rates are
// printed as workload metrics but not gated: on a shared 2-CPU box they
// moved beyond any 25% bound from run to run (README.md, "Gated metrics").
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the per-layer metrics of a -trace 1 run. A layer the
// workload never enters reads 0.
var perLayer = []metricDef{
	{"dataset.collect_s", "s"},
	{"dataset.entries_per_s", "1/s"},
	{"dataset.summaries_s", "s"},
	{"channel.motivation_s", "s"},
	{"channel.bestpair_hit_ratio", "ratio"},
	{"channel.bestpair_lookups", "count"},
	{"channel.ray_traces", "count"},
	{"channel.gain_rebuilds", "count"},
	{"ml.cv_s", "s"},
	{"ml.study_s", "s"},
	{"ml.fit_s.DT", "s"},
	{"ml.fit_s.RF", "s"},
	{"ml.fit_s.SVM", "s"},
	{"ml.fit_s.DNN", "s"},
	{"ml.tree_fits", "count"},
	{"ml.quantize_s", "s"},
	{"core.classifier_fit_s", "s"},
	{"trace.pools_s", "s"},
	{"sim.eval_s", "s"},
	{"sim.run_us", "us"},
	{"engine.multiap_step_s", "s"},
	{"experiments.unaccounted_s", "s"},
	{"engine.build_s", "s"},
	{"engine.build_pairs_per_s", "1/s"},
	{"engine.events", "count"},
	{"engine.events_per_s", "1/s"},
	{"engine.sim_s_per_host_s", "ratio"},
	{"engine.run_s.w1", "s"},
	{"engine.run_s.w2", "s"},
	{"engine.parallel_speedup", "ratio"},
	{"engine.handoffs", "count"},
	{"engine.slot_grants", "count"},
	{"engine.interference_verdicts", "count"},
	{"engine.impairments", "count"},
	{"serve.stage_ms.admission", "ms"},
	{"serve.stage_ms.queue", "ms"},
	{"serve.stage_ms.coalesce", "ms"},
	{"serve.stage_ms.predict", "ms"},
	{"serve.stage_ms.encode", "ms"},
	{"serve.client_mean_ms", "ms"},
	{"serve.unaccounted_ms", "ms"},
	{"serve.batch_mean", "rows"},
	{"serve.shed", "count"},
	{"serve.errors", "count"},
	{"serve.inproc_p50_ms", "ms"},
	{"serve.router_ns", "ns"},
	{"ml.quant_ns_per_row.b8", "ns"},
	{"ml.quant_ns_per_row.b64", "ns"},
	{"ml.quant_ns_per_row.b512", "ns"},
	{"decisionlog.publish_ns", "ns"},
	{"decisionlog.records", "count"},
	{"decisionlog.drops", "count"},
	{"decisionlog.bytes", "count"},
	{"loadgen.late_p99_ms", "ms"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"bench.trace_overhead_ms", "ms"},
}

// runEnv is what a workload gets: its inputs and the result it fills.
type runEnv struct {
	seed    int64
	seconds time.Duration
	tr      *Tracer // nil unless -trace 1
	res     *Result
}

// setupRepeats is how many times a run sets up; setup_s is the median. A
// traced run sets up once.
func (e *runEnv) setupRepeats(n int) int {
	if e.tr != nil {
		return 1
	}
	return n
}

// outDir holds a run's artifacts (spans, result, audit log scratch),
// relative to the checkout root the benchmark runs from.
var outDir = filepath.Join(".bench_build", "perfbench")

// Value is one reported number.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// Result is everything one run measured.
type Result struct {
	Stamp     map[string]any   `json:"stamp"`
	Params    map[string]any   `json:"params"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Checks    []string         `json:"checks"`
	Correct   bool             `json:"correct"`
	E2E       map[string]Value `json:"end_to_end"`
	Named     map[string]Value `json:"workload_metrics"`
	Layers    map[string]Value `json:"per_layer,omitempty"`
	Detail    map[string]any   `json:"detail"`
	Notes     []string         `json:"notes"`
}

func (r *Result) e2e(name string, v float64) {
	for _, d := range endToEnd {
		if d.Name == name {
			r.E2E[name] = Value{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("undeclared end-to-end metric " + name)
}

// named records an end-to-end metric under the workload's own name (as in
// README.md), with its sample count.
func (r *Result) named(name string, v float64, unit string, n int) {
	r.Named[name] = Value{Value: v, Unit: unit, N: n}
}

func (r *Result) layer(name string, v float64, unit string) {
	r.Layers[name] = Value{Value: v, Unit: unit}
}

func (r *Result) note(s string) { r.Notes = append(r.Notes, s) }

// check records a correctness check and its outcome; a failed check counts
// as a failed operation.
func (r *Result) check(ok bool, what string) {
	mark := "PASS"
	if !ok {
		mark = "FAIL"
		r.Correct = false
		r.Failed++
	}
	r.Checks = append(r.Checks, mark+" "+what)
}

// setup records the set-up times: setup_s is their median.
func (r *Result) setup(ds []time.Duration) {
	t := summarize(ds)
	r.e2e("setup_s", t.P50ms/1e3)
	r.named("setup_s", t.P50ms/1e3, "s", t.N)
}

// markPeakRSS records the process's peak resident memory so far. The decide
// workloads mark it after their nominal phase; the rest are marked when the
// run ends.
func (r *Result) markPeakRSS() {
	rss := peakRSSMB()
	r.e2e("peak_rss_mb", rss)
	r.named("peak_rss_mb", rss, "MB", 1)
}

// account adds an open-loop phase to the operation counts. Admission sheds
// are failures at the nominal rate; on ladder rungs above capacity they are
// the expected overload signal and are reported, not counted as failures.
func (r *Result) account(ph *Phase, nominal bool) {
	r.Attempted += ph.Sent
	r.Failed += ph.Wrong + ph.Errors
	if nominal {
		r.Failed += ph.Shed
	}
	if ph.Err != nil {
		r.check(false, fmt.Sprintf("open-loop phase at %.0f rps: %v", ph.Rate, ph.Err))
	}
}

func main() {
	name := flag.String("workload", "", "workload: reproduce, multiap, decide or decide_heavy")
	seed := flag.Int64("seed", 42, "input seed")
	seconds := flag.Int("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs traced and reports per-layer metrics")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1, --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	res := &Result{
		Correct: true,
		E2E:     map[string]Value{}, Named: map[string]Value{}, Layers: map[string]Value{},
		Detail: map[string]any{},
		Stamp: map[string]any{
			"workload":   w.name,
			"seed":       *seed,
			"seconds":    *seconds,
			"trace":      *trace,
			"git_sha":    gitSHA(),
			"num_cpu":    runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go_version": runtime.Version(),
			"goos":       runtime.GOOS,
			"goarch":     runtime.GOARCH,
			"host_note":  fmt.Sprintf("numbers come from a %d-CPU shared box; compare only runs made on the same box", runtime.NumCPU()),
		},
	}
	env := &runEnv{seed: *seed, seconds: time.Duration(*seconds) * time.Second, res: res}
	if *trace == 1 {
		env.tr = &Tracer{}
	}
	m0 := readMem()
	if err := w.run(env); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if _, ok := res.E2E["peak_rss_mb"]; !ok {
		res.markPeakRSS()
	}
	if _, ok := res.Layers["runtime.alloc_mb"]; !ok {
		m := readMem()
		res.layer("runtime.alloc_mb", float64(m.allocBytes-m0.allocBytes)/(1<<20), "MB")
		res.layer("runtime.gc_cycles", float64(m.gcCycles-m0.gcCycles), "count")
	}
	if res.Attempted < 1 {
		res.check(false, "no operation was attempted")
	}
	if res.Failed > 0 {
		res.Correct = false
	}

	if env.tr != nil {
		path, err := writeSpans(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, *seed), env.tr.Spans())
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			os.Exit(1)
		}
		res.Detail["spans_file"] = path
	}
	report(os.Stdout, res, *trace == 1, env.tr)
	if err := writeResult(outDir, fmt.Sprintf("result-%s-seed%d-trace%d.json", w.name, *seed, *trace), res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing result: %v\n", err)
		os.Exit(1)
	}

	// The last line: the result object BENCHMARK.json's runner reads.
	defs, got := endToEnd, res.E2E
	if *trace == 1 {
		defs, got = perLayer, res.Layers
	}
	metrics := map[string]Value{}
	for _, d := range defs {
		metrics[d.Name] = Value{Value: got[d.Name].Value, Unit: d.Unit}
	}
	line, _ := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
	fmt.Println(string(line))
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// gitSHA is the commit run.sh found, or "unknown" outside a git checkout.
func gitSHA() string {
	if s := os.Getenv("PERFBENCH_GIT_SHA"); s != "" {
		return s
	}
	return "unknown"
}

// report prints the human-readable result.
func report(w *os.File, r *Result, traced bool, tr *Tracer) {
	keys := func(m map[string]any) []string {
		var ks []string
		for k := range m {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		return ks
	}
	fmt.Fprintln(w, "== perfbench ==")
	for _, k := range keys(r.Stamp) {
		fmt.Fprintf(w, "stamp  %-12s %v\n", k, r.Stamp[k])
	}
	for _, k := range keys(r.Params) {
		fmt.Fprintf(w, "param  %-18s %v\n", k, r.Params[k])
	}
	for _, n := range r.Notes {
		fmt.Fprintln(w, "note  ", n)
	}
	for _, c := range r.Checks {
		fmt.Fprintln(w, "check ", c)
	}
	fmt.Fprintf(w, "ops    attempted %d  succeeded %d  failed %d\n", r.Attempted, r.Attempted-r.Failed, r.Failed)
	var names []string
	for k := range r.Named {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		v := r.Named[k]
		fmt.Fprintf(w, "metric %-22s %14.4f %-5s (n=%d)\n", k, v.Value, v.Unit, v.N)
	}
	if traced {
		spans := tr.Spans()
		if len(spans) > 0 {
			fmt.Fprintln(w, "-- per-layer self time (benchmark-side spans) --")
			printLayerTable(w, spans, "experiments.battery")
		}
		for _, d := range perLayer {
			if v, ok := r.Layers[d.Name]; ok {
				fmt.Fprintf(w, "layer  %-30s %14.4f %s\n", d.Name, v.Value, d.Unit)
			}
		}
	}
}

// writeResult stores the full result next to the spans.
func writeResult(dir, name string, r *Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}
