// Command libra-loadgen is a deterministic closed-loop load generator for
// the libra-serve decision service. It replays measurement-campaign feature
// vectors (fixed seed, fixed shuffle, per-worker stride) so runs are
// comparable, and reports throughput, latency percentiles, and online
// accuracy against the campaign's ground truth.
//
// Three modes:
//
//	-mode compare   (default) drives the serving engine in-process twice —
//	                once uncoalesced (every request walks the forest alone)
//	                and once through the request coalescer — and reports the
//	                batched-over-direct speedup. This isolates the decision
//	                engine from HTTP stack costs, which on a small host
//	                otherwise dominate and blur the comparison.
//	-mode http      drives a running libra-serve closed loop with -c
//	                workers: over HTTP/JSON (-url) by default, or over the
//	                pipelined binary decide protocol with -proto binary
//	                (-target host:port, -pipeline in-flight per worker).
//	-mode shard     self-contained fleet bench: trains (or loads) the
//	                forest, verifies the quantized form classifies
//	                bit-identically to the float64 flat arrays on the
//	                campaign replay, stands up -shards coalescer shards
//	                behind the consistent-hash router with a binary
//	                listener, and drives it closed loop. The artifact is
//	                committed as BENCH_<date>_shard.json.
//
// -json writes the results as a machine-readable artifact (the repo commits
// these as BENCH_<date>_serve.json / BENCH_<date>_shard.json).
//
// Request identity is global and worker-count invariant: request g of a run
// carries req_id g and link_id g mod the replay length, whatever -c is.
// With -feedback the generator also reports each request's campaign ground
// truth back to the server — over the binary feedback frame in http mode,
// or straight into the router's join path in shard mode — so a serve-side
// audit stream (libra-serve -audit-out, or shard mode's own -audit-out)
// carries joinable truth records and libra-report can compute
// accuracy-over-window. Shard mode's -audit-out/-audit-sample write the
// fleet's LDL1 decision log in-process; because sampling keys on request
// identity, the log's canonical digest and the drift report derived from it
// are byte-identical across -c (DESIGN.md §8).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/libra-wlan/libra/internal/core"
	"github.com/libra-wlan/libra/internal/dataset"
	"github.com/libra-wlan/libra/internal/ml"
	"github.com/libra-wlan/libra/internal/obs"
	"github.com/libra-wlan/libra/internal/obs/decisionlog"
	"github.com/libra-wlan/libra/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("libra-loadgen: ")
	mode := flag.String("mode", "compare", "compare (in-process engine A/B), http (drive a running server), or shard (fleet bench)")
	url := flag.String("url", "http://127.0.0.1:8060", "server base URL (http mode, -proto json)")
	proto := flag.String("proto", "json", "http-mode protocol: json or binary")
	target := flag.String("target", "127.0.0.1:8061", "binary-protocol host:port (http mode, -proto binary)")
	pipeline := flag.Int("pipeline", 64, "in-flight requests per worker connection (binary protocol)")
	shards := flag.Int("shards", 2, "coalescer shards behind the router (shard mode)")
	runs := flag.Int("runs", 1, "timed repetitions in shard mode; every run is recorded and the best is the headline (rejects scheduler noise on shared hosts)")
	modelFormat := flag.String("model-format", serve.FormatQuant32, "serving representation in shard mode: float64 or quant32")
	conc := flag.Int("c", 64, "closed-loop workers")
	n := flag.Int("n", 100000, "requests per engine run")
	warm := flag.Int("warmup", 5000, "untimed warmup requests per engine run")
	seed := flag.Int64("seed", 42, "campaign + shuffle seed")
	trees := flag.Int("trees", 80, "forest size of the in-process model (compare mode)")
	depth := flag.Int("depth", 12, "tree depth of the in-process model (compare mode)")
	model := flag.String("model", "", "serve this libra-model artifact instead of training in-process (compare mode)")
	maxBatch := flag.Int("max-batch", 64, "coalescer batch bound for the batched run")
	jsonOut := flag.String("json", "", "write a JSON results artifact to this file")
	feedback := flag.Bool("feedback", false, "report campaign ground truth for every request (binary feedback frames in http mode, in-process joins in shard mode)")
	auditOut := flag.String("audit-out", "", "shard mode: write the fleet's per-decision LDL1 audit log to this file")
	auditSample := flag.Uint64("audit-sample", 1, "shard mode: deterministic 1-in-N audit sampling divisor")
	oc := obs.RegisterCLI(flag.CommandLine)
	flag.Parse()
	if err := oc.Start(); err != nil {
		log.Fatal(err)
	}

	log.Printf("generating test campaign (seed %d)", *seed)
	camp := dataset.GenerateTest(*seed)
	replay := serve.NewReplay(camp, *seed)

	switch *mode {
	case "compare":
		runCompare(replay, *conc, *n, *warm, *seed, *trees, *depth, *model,
			*maxBatch, *jsonOut)
	case "http":
		switch *proto {
		case "json":
			runHTTP(*url, replay, *conc, *n, *warm, *jsonOut)
		case "binary":
			res := driveBinary("binary", *target, replay, newRows32(replay), *conc, *n, *warm, *pipeline, *feedback)
			fmt.Println(res)
			writeArtifact(*jsonOut, artifact{Runs: []engineResult{res}})
		default:
			log.Fatalf("unknown -proto %q (want json or binary)", *proto)
		}
	case "shard":
		runShard(replay, *conc, *n, *warm, *seed, *trees, *depth, *model,
			*maxBatch, *shards, *pipeline, *modelFormat, *runs, *jsonOut,
			*feedback, *auditOut, *auditSample)
	default:
		log.Fatalf("unknown -mode %q (want compare, http, or shard)", *mode)
	}
	if err := oc.Stop(); err != nil {
		log.Fatal(err)
	}
}

// engineResult is one closed-loop run's report.
type engineResult struct {
	Label       string  `json:"label"`
	MaxBatch    int     `json:"max_batch,omitempty"`
	Proto       string  `json:"proto,omitempty"`
	Pipeline    int     `json:"pipeline,omitempty"`
	Concurrency int     `json:"concurrency"`
	Requests    int     `json:"requests"`
	Seconds     float64 `json:"seconds"`
	Throughput  float64 `json:"throughput_rps"`
	P50ms       float64 `json:"p50_ms"`
	P90ms       float64 `json:"p90_ms"`
	P99ms       float64 `json:"p99_ms"`
	Errors      int     `json:"errors"`
	Accuracy    float64 `json:"accuracy"`
}

func (r engineResult) String() string {
	return fmt.Sprintf("%-8s c=%d n=%d  %10.0f req/s  p50 %.3f ms  p90 %.3f ms  p99 %.3f ms  acc %.3f  errors %d",
		r.Label, r.Concurrency, r.Requests, r.Throughput, r.P50ms, r.P90ms, r.P99ms, r.Accuracy, r.Errors)
}

// artifact is the -json output.
type artifact struct {
	Generated string `json:"generated"`
	GoVersion string `json:"go_version"`
	// GitSHA is the commit the numbers were measured at (empty outside a
	// git checkout).
	GitSHA      string `json:"git_sha,omitempty"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	NumCPU      int    `json:"num_cpu"`
	Seed        int64  `json:"seed"`
	Trees       int    `json:"trees,omitempty"`
	Depth       int    `json:"depth,omitempty"`
	Shards      int    `json:"shards,omitempty"`
	ModelFormat string `json:"model_format,omitempty"`
	// QuantParityRows / QuantParityMismatches record the shard-mode check
	// that the quantized forest classifies the campaign replay
	// bit-identically to the float64 flat arrays (on the float32-narrowed
	// features the binary wire carries).
	QuantParityRows       int `json:"quant_parity_rows,omitempty"`
	QuantParityMismatches int `json:"quant_parity_mismatches"`
	// AccuracyFloat64 is the float64 forest's transfer accuracy on the
	// un-narrowed campaign replay — the number the paper reproduction
	// tracks, unchanged by the serving representation.
	AccuracyFloat64 float64        `json:"accuracy_float64,omitempty"`
	BaselineRPS     float64        `json:"baseline_batched_http_rps,omitempty"`
	SpeedupVsBase   float64        `json:"speedup_vs_baseline,omitempty"`
	Runs            []engineResult `json:"runs"`
	Speedup         float64        `json:"speedup,omitempty"`
}

// gitSHA returns the current commit hash, or "" outside a git checkout.
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

func writeArtifact(path string, a artifact) {
	if path == "" {
		return
	}
	a.Generated = time.Now().UTC().Format(time.RFC3339)
	a.GoVersion = runtime.Version()
	a.GitSHA = gitSHA()
	a.GOOS = runtime.GOOS
	a.GOARCH = runtime.GOARCH
	a.NumCPU = runtime.NumCPU()
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(a); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	log.Printf("results written to %s", path)
}

// runCompare A/B-tests the serving engine: direct per-request inference
// versus the coalescer's batched path, same model, same request stream.
func runCompare(replay *serve.Replay, conc, n, warm int,
	seed int64, trees, depth int, model string, maxBatch int, jsonOut string) {

	var pred serve.Predictor
	if model != "" {
		f, err := os.Open(model)
		if err != nil {
			log.Fatal(err)
		}
		m, err := serve.NewRegistry().Load(model, f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		pred = m.Predictor()
		log.Printf("serving %s from %s", m.Name, model)
	} else {
		// Paper-faithful split: train on the main campaign, serve the test
		// campaign's features — accuracy below is the transfer accuracy.
		log.Printf("training %d-tree depth-%d forest in-process on the main campaign", trees, depth)
		rf := &ml.RandomForest{NumTrees: trees, MaxDepth: depth, Seed: seed}
		if err := rf.Fit(dataset.GenerateMain(seed).ToML(true)); err != nil {
			log.Fatal(err)
		}
		pred = rf
	}

	direct := runEngine("direct", pred, serve.CoalescerConfig{MaxBatch: 1},
		replay, conc, n, warm)
	fmt.Println(direct)
	batched := runEngine("batched", pred,
		serve.CoalescerConfig{MaxBatch: maxBatch, QueueDepth: 4 * conc},
		replay, conc, n, warm)
	fmt.Println(batched)

	speedup := batched.Throughput / direct.Throughput
	fmt.Printf("speedup: batched is %.2fx direct throughput at concurrency %d\n", speedup, conc)
	writeArtifact(jsonOut, artifact{
		Seed: seed, Trees: trees, Depth: depth,
		Runs:    []engineResult{direct, batched},
		Speedup: speedup,
	})
}

// runEngine drives one coalescer configuration closed-loop and measures it.
func runEngine(label string, pred serve.Predictor, cfg serve.CoalescerConfig,
	replay *serve.Replay, conc, n, warm int) engineResult {

	reg := serve.NewRegistry()
	reg.Install("loadgen", pred)
	co := serve.NewCoalescer(reg, cfg)
	defer co.Close()

	issue := func(total int, lats [][]time.Duration, hits []int) {
		done := make(chan struct{})
		for w := 0; w < conc; w++ {
			go func(w int) {
				defer func() { done <- struct{}{} }()
				ctx := context.Background()
				for i := w; i < total; i += conc {
					t0 := time.Now()
					dec, err := co.Decide(ctx, replay.At(i))
					if err != nil {
						log.Fatalf("%s: decide: %v", label, err)
					}
					if lats != nil {
						lats[w] = append(lats[w], time.Since(t0))
						if dec.Action == replay.LabelAt(i) {
							hits[w]++
						}
					}
					// Yield between requests. In direct mode the model runs
					// inline in this goroutine, and with workers >> cores the
					// scheduler's ~10ms preemption quantum otherwise turns
					// into a convoy: a worker that loses the core mid-request
					// waits for every other worker's full quantum, which
					// showed up as a pathological p99 (1278 ms against a
					// 0.3 ms p50 in BENCH_2026-08-05_serve.json) that no
					// warm-up can fix. Yielding at request boundaries makes
					// the rotation per-request, so closed-loop latency is the
					// honest queue-wait (~concurrency x service time).
					runtime.Gosched()
				}
			}(w)
		}
		for w := 0; w < conc; w++ {
			<-done
		}
	}

	issue(warm, nil, nil)
	lats := make([][]time.Duration, conc)
	for w := range lats {
		lats[w] = make([]time.Duration, 0, n/conc+1)
	}
	hits := make([]int, conc)
	t0 := time.Now()
	issue(n, lats, hits)
	elapsed := time.Since(t0)

	var all []time.Duration
	correct := 0
	for w := range lats {
		all = append(all, lats[w]...)
		correct += hits[w]
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return engineResult{
		Label:       label,
		MaxBatch:    cfg.MaxBatch,
		Concurrency: conc,
		Requests:    len(all),
		Seconds:     elapsed.Seconds(),
		Throughput:  float64(len(all)) / elapsed.Seconds(),
		P50ms:       pctMs(all, 0.50),
		P90ms:       pctMs(all, 0.90),
		P99ms:       pctMs(all, 0.99),
		Accuracy:    float64(correct) / float64(len(all)),
	}
}

// runHTTP drives a running libra-serve closed-loop over HTTP.
func runHTTP(base string, replay *serve.Replay, conc, n, warm int, jsonOut string) {
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        2 * conc,
		MaxIdleConnsPerHost: 2 * conc,
	}}
	url := base + "/v1/decide"

	// Pre-encode every distinct request body once.
	bodies := make([][]byte, replay.Len())
	for i := range bodies {
		b := append([]byte(nil), `{"features":[`...)
		for j, v := range replay.At(i) {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, v, 'g', -1, 64)
		}
		bodies[i] = append(b, `]}`...)
	}

	issue := func(total int, lats [][]time.Duration, errs, hits []int) {
		done := make(chan struct{})
		for w := 0; w < conc; w++ {
			go func(w int) {
				defer func() { done <- struct{}{} }()
				var dec struct {
					ActionID int `json:"action_id"`
				}
				for i := w; i < total; i += conc {
					t0 := time.Now()
					resp, err := client.Post(url, "application/json",
						bytes.NewReader(bodies[i%len(bodies)]))
					ok := err == nil && resp.StatusCode == http.StatusOK
					correct := false
					if err == nil {
						if ok && json.NewDecoder(resp.Body).Decode(&dec) == nil {
							correct = dec.ActionID == int(replay.LabelAt(i))
						}
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
					if lats != nil {
						lats[w] = append(lats[w], time.Since(t0))
						if !ok {
							errs[w]++
						}
						if correct {
							hits[w]++
						}
					}
				}
			}(w)
		}
		for w := 0; w < conc; w++ {
			<-done
		}
	}

	issue(warm, nil, nil, nil)
	lats := make([][]time.Duration, conc)
	for w := range lats {
		lats[w] = make([]time.Duration, 0, n/conc+1)
	}
	errs := make([]int, conc)
	hits := make([]int, conc)
	t0 := time.Now()
	issue(n, lats, errs, hits)
	elapsed := time.Since(t0)

	var all []time.Duration
	nerr, correct := 0, 0
	for w := range lats {
		all = append(all, lats[w]...)
		nerr += errs[w]
		correct += hits[w]
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	res := engineResult{
		Label:       "http",
		Concurrency: conc,
		Requests:    len(all),
		Seconds:     elapsed.Seconds(),
		Throughput:  float64(len(all)) / elapsed.Seconds(),
		P50ms:       pctMs(all, 0.50),
		P90ms:       pctMs(all, 0.90),
		P99ms:       pctMs(all, 0.99),
		Errors:      nerr,
		Accuracy:    float64(correct) / float64(len(all)),
	}
	fmt.Println(res)
	writeArtifact(jsonOut, artifact{Runs: []engineResult{res}})
}

// pctMs returns the p-th percentile of sorted durations, in milliseconds.
func pctMs(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return float64(sorted[i]) / float64(time.Millisecond)
}

// newRows32 narrows the replay's feature vectors to the float32 rows the
// binary wire carries.
func newRows32(replay *serve.Replay) [][]float32 {
	rows := make([][]float32, replay.Len())
	for i := range rows {
		x := replay.At(i)
		r := make([]float32, len(x))
		for j, v := range x {
			r[j] = float32(v)
		}
		rows[i] = r
	}
	return rows
}

// driveBinary drives a binary-protocol listener closed loop: conc workers,
// each with its own connection keeping up to pipeline requests in flight,
// responses drained in FIFO order. Latency is measured submit-to-response
// (it includes the worker's own pipeline queueing — the closed-loop view).
//
// Request g of a run carries req_id g globally (worker w issues the
// residue class g ≡ w mod conc), so the set of served request identities —
// and therefore the server's deterministic audit sample — is invariant
// across worker counts. With feedback, each drained response is followed by
// a fire-and-forget ground-truth frame for its request.
func driveBinary(label, addr string, replay *serve.Replay, rows32 [][]float32,
	conc, n, warm, pipeline int, feedback bool) engineResult {

	if pipeline < 1 {
		pipeline = 1
	}
	run := func(total int, lats [][]time.Duration, errs, hits []int) {
		done := make(chan error, conc)
		for w := 0; w < conc; w++ {
			go func(w int) {
				c, err := serve.DialBinary(addr)
				if err != nil {
					done <- err
					return
				}
				defer c.Close()
				myTotal := (total - w + conc - 1) / conc
				if myTotal <= 0 {
					done <- nil
					return
				}
				p := pipeline
				starts := make([]time.Time, p)
				idxs := make([]int, p)
				sent, recvd := 0, 0
				for recvd < myTotal {
					for sent < myTotal && sent-recvd < p {
						g := w + sent*conc
						i := g % len(rows32)
						starts[sent%p] = time.Now()
						idxs[sent%p] = i
						// The replay index doubles as the link ID, spreading
						// links across the ring.
						if err := c.Send(uint64(g), uint64(i), rows32[i], false); err != nil {
							done <- err
							return
						}
						sent++
					}
					if err := c.Flush(); err != nil {
						done <- err
						return
					}
					// Drain half the window (at least one) before topping it
					// up again, so sends stay batched while the pipe is never
					// empty.
					drain := (sent - recvd + 1) / 2
					if drain < 1 {
						drain = 1
					}
					for k := 0; k < drain; k++ {
						resp, err := c.Recv()
						if err != nil {
							done <- fmt.Errorf("%s: recv after %d: %w", label, recvd, err)
							return
						}
						g := w + recvd*conc
						if resp.ReqID != uint64(g) {
							done <- fmt.Errorf("%s: response order broken: got req %d want %d",
								label, resp.ReqID, g)
							return
						}
						idx := idxs[recvd%p]
						if lats != nil {
							lats[w] = append(lats[w], time.Since(starts[recvd%p]))
							if resp.Err != 0 {
								errs[w]++
							} else if int(resp.Action) == int(replay.LabelAt(idx)) {
								hits[w]++
							}
						}
						if feedback && resp.Err == 0 {
							if err := c.SendFeedback(uint64(g), uint64(idx), uint8(replay.LabelAt(idx))); err != nil {
								done <- err
								return
							}
						}
						recvd++
					}
				}
				if feedback {
					// The trailing feedback frames are still in the client
					// buffer; push them before the connection closes.
					if err := c.Flush(); err != nil {
						done <- err
						return
					}
				}
				done <- nil
			}(w)
		}
		for w := 0; w < conc; w++ {
			if err := <-done; err != nil {
				log.Fatal(err)
			}
		}
	}

	run(warm, nil, nil, nil)
	lats := make([][]time.Duration, conc)
	for w := range lats {
		lats[w] = make([]time.Duration, 0, n/conc+1)
	}
	errs := make([]int, conc)
	hits := make([]int, conc)
	t0 := time.Now()
	run(n, lats, errs, hits)
	elapsed := time.Since(t0)

	var all []time.Duration
	nerr, correct := 0, 0
	for w := range lats {
		all = append(all, lats[w]...)
		nerr += errs[w]
		correct += hits[w]
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return engineResult{
		Label:       label,
		Proto:       "binary",
		Pipeline:    pipeline,
		Concurrency: conc,
		Requests:    len(all),
		Seconds:     elapsed.Seconds(),
		Throughput:  float64(len(all)) / elapsed.Seconds(),
		P50ms:       pctMs(all, 0.50),
		P90ms:       pctMs(all, 0.90),
		P99ms:       pctMs(all, 0.99),
		Errors:      nerr,
		Accuracy:    float64(correct) / float64(len(all)),
	}
}

// runShard is the self-contained fleet bench: quantized forest, sharded
// router, binary wire, all in one process so the artifact is reproducible
// from a fixed seed. Before timing anything it proves the serving
// representation: the quantized forest must classify the campaign replay
// bit-identically to the float64 flat arrays on the float32-narrowed
// features the wire carries.
func runShard(replay *serve.Replay, conc, n, warm int,
	seed int64, trees, depth int, model string, maxBatch int,
	shards, pipeline int, modelFormat string, runs int, jsonOut string,
	feedback bool, auditOut string, auditSample uint64) {

	var rf *ml.RandomForest
	if model != "" {
		if _, err := os.Stat(model); os.IsNotExist(err) {
			// Cache miss: train the canonical bench forest and persist it so
			// repeated bench runs skip the ~minutes of fitting.
			log.Printf("training %d-tree depth-%d forest in-process on the main campaign (caching to %s)", trees, depth, model)
			rf := &ml.RandomForest{NumTrees: trees, MaxDepth: depth, Seed: seed}
			if err := rf.Fit(dataset.GenerateMain(seed).ToML(true)); err != nil {
				log.Fatal(err)
			}
			f, err := os.Create(model)
			if err != nil {
				log.Fatal(err)
			}
			if err := core.SaveClassifier(&core.MLClassifier{Model: rf}, f); err != nil {
				log.Fatal(err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}
		f, err := os.Open(model)
		if err != nil {
			log.Fatal(err)
		}
		m, err := serve.NewRegistry().Load(model, f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		var ok bool
		rf, ok = m.Predictor().(*ml.RandomForest)
		if !ok {
			log.Fatalf("%s: shard mode needs a random-forest artifact", model)
		}
		log.Printf("serving %s from %s", m.Name, model)
	} else {
		log.Printf("training %d-tree depth-%d forest in-process on the main campaign", trees, depth)
		rf = &ml.RandomForest{NumTrees: trees, MaxDepth: depth, Seed: seed}
		if err := rf.Fit(dataset.GenerateMain(seed).ToML(true)); err != nil {
			log.Fatal(err)
		}
	}
	quant, err := rf.Quantize()
	if err != nil {
		log.Fatal(err)
	}

	// Parity gate: narrow every replay row to float32 (what the wire
	// carries), widen back, and demand bit-identical classes from both
	// representations. A single mismatch disqualifies the artifact.
	rows32 := newRows32(replay)
	wide := make([][]float64, len(rows32))
	for i, r := range rows32 {
		x := make([]float64, len(r))
		for j, v := range r {
			x[j] = float64(v)
		}
		wide[i] = x
	}
	log.Printf("verifying quantized/float64 class parity on %d replay rows", len(wide))
	base := rf.PredictBatch(wide, nil)
	qgot := quant.PredictBatch(wide, nil)
	mismatches := 0
	for i := range base {
		if base[i] != qgot[i] {
			mismatches++
		}
	}
	if mismatches != 0 {
		log.Fatalf("quantized forest diverges from float64 flat arrays on %d of %d rows", mismatches, len(base))
	}
	log.Printf("parity holds: %d rows bit-identical", len(base))

	// The paper-reproduction number: float64 transfer accuracy on the
	// original (un-narrowed) replay, independent of serving representation.
	f64Classes := rf.PredictBatch(replayRows(replay), nil)
	accF64Hits := 0
	for i, c := range f64Classes {
		if c == int(replay.LabelAt(i)) {
			accF64Hits++
		}
	}
	accFloat64 := float64(accF64Hits) / float64(len(f64Classes))

	reg := serve.NewRegistry()
	switch modelFormat {
	case serve.FormatQuant32:
		reg.Install("loadgen-quant", quant)
	case serve.FormatFloat64:
		reg.Install("loadgen-float64", rf)
	default:
		log.Fatalf("unknown -model-format %q", modelFormat)
	}
	rt := serve.NewRouter(reg, serve.RouterConfig{
		Shards:    shards,
		Coalescer: serve.CoalescerConfig{MaxBatch: maxBatch, QueueDepth: 4 * conc * pipeline},
	})
	defer rt.Close()

	// The optional audit stream: every sampled decision the fleet serves
	// lands in an LDL1 log whose canonical digest is worker-count invariant
	// (sampling keys on the global request identity, never on scheduling).
	var auditLog *decisionlog.Log
	var auditFile *os.File
	if auditOut != "" {
		f, err := os.Create(auditOut)
		if err != nil {
			log.Fatal(err)
		}
		auditFile = f
		auditLog, err = decisionlog.New(f, decisionlog.Config{
			NFeat:  dataset.NumFeatures,
			Rings:  shards,
			Sample: auditSample,
		})
		if err != nil {
			log.Fatal(err)
		}
		rt.SetAudit(auditLog)
		log.Printf("audit stream on %s (1-in-%d sampling)", auditOut, max(auditSample, 1))
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := serve.NewBinaryServer(rt, 2*pipeline)
	go srv.Serve(ln)
	defer srv.Close()

	// Repeat the timed window and headline the best run: on a shared host
	// a single sample can land on a noisy-neighbor quantum, and the best of
	// K is the closest observable to the machine's actual capacity. Every
	// run is recorded in the artifact.
	if runs < 1 {
		runs = 1
	}
	label := fmt.Sprintf("shard-%d", shards)
	all := make([]engineResult, 0, runs)
	res := engineResult{}
	for r := 0; r < runs; r++ {
		w := warm
		if r > 0 {
			w = 0 // the first run's warmup already primed caches and pools
		}
		got := driveBinary(label, ln.Addr().String(), replay, rows32, conc, n, w, pipeline, false)
		got.MaxBatch = maxBatch
		fmt.Println(got)
		all = append(all, got)
		if got.Throughput > res.Throughput {
			res = got
		}
	}

	// Ground truth goes straight into the router's join path after the drive
	// — one truth per request identity, in request order — rather than over
	// the wire, so the audit stream's truth records never race a shutdown and
	// the log is reproducible byte-for-byte.
	if feedback {
		for g := 0; g < n; g++ {
			idx := g % replay.Len()
			rt.Feedback(uint64(g), uint64(idx), uint8(replay.LabelAt(idx)))
		}
		log.Printf("joined %d ground-truth labels into the audit stream", n)
	}

	// Shard accounting must add up: every admitted request on exactly one
	// shard.
	var admitted uint64
	for _, st := range rt.ShardStats() {
		admitted += st.Requests
	}
	if admitted < uint64(n*runs) {
		log.Fatalf("shards admitted %d requests, expected at least %d", admitted, n*runs)
	}

	// Seal the audit log before reporting: stop the listener and the shards
	// (both idempotent — the deferred Closes become no-ops), then flush.
	if auditLog != nil {
		srv.Close()
		rt.Close()
		if err := auditLog.Close(); err != nil {
			log.Fatal(err)
		}
		if err := auditFile.Close(); err != nil {
			log.Fatal(err)
		}
		if d := auditLog.Drops(); d > 0 {
			log.Printf("audit log sealed with %d ring drops", d)
		}
	}

	// The baseline this bench exists to beat: batched HTTP/JSON from
	// BENCH_2026-08-05_serve.json on the same forest shape and host.
	const baselineRPS = 8440.8
	speedup := res.Throughput / baselineRPS
	fmt.Printf("fleet: %.0f decisions/s over %d shards (%.2fx the %.0f rps batched-HTTP baseline)\n",
		res.Throughput, shards, speedup, baselineRPS)
	writeArtifact(jsonOut, artifact{
		Seed: seed, Trees: trees, Depth: depth,
		Shards:                shards,
		ModelFormat:           modelFormat,
		QuantParityRows:       len(base),
		QuantParityMismatches: mismatches,
		AccuracyFloat64:       accFloat64,
		BaselineRPS:           baselineRPS,
		SpeedupVsBase:         speedup,
		Runs:                  all,
	})
}

// replayRows materializes the replay's float64 rows.
func replayRows(replay *serve.Replay) [][]float64 {
	rows := make([][]float64, replay.Len())
	for i := range rows {
		rows[i] = replay.At(i)
	}
	return rows
}
