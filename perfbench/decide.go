package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/libra-wlan/libra/internal/dataset"
	"github.com/libra-wlan/libra/internal/ml"
	"github.com/libra-wlan/libra/internal/obs/decisionlog"
	"github.com/libra-wlan/libra/internal/serve"
)

// decideShape is one decide workload: the served forest and the traffic
// around it.
type decideShape struct {
	// Trees/Depth size the forest.
	Trees, Depth int
	// Audit logs every decision (1-in-1, libra-serve's default sampling) and
	// follows every answered decision with a ground-truth feedback frame.
	Audit bool
	// Nominal is the fixed offered rate the latency metrics are read at,
	// chosen from measured rungs (README.md, "Nominal rates").
	Nominal float64
	// Limit is the p99 the highest passing rung of decideLadder must meet.
	Limit time.Duration
}

// decideLadder is the rate ladder both decide workloads bisect, 4000 to
// 82k rps.
var decideLadder = Ladder{Base: 4000, Step: 1.05, Rungs: 63}

var (
	// decideFleet serves the model the fleet ships: the 80x12 forest that
	// libra-train and core.TrainDefaultClassifier fit (about 120 KB,
	// L2-resident).
	decideFleet = decideShape{
		Trees: 80, Depth: 12, Audit: true,
		// About half the highest passing rung on a quiet box (25.5k-32.6k
		// rps over six runs). Each shard then sees a request every 150 µs,
		// and the p50 is the 200 µs linger plus serve work. At 4000 rps the
		// linger timer fired up to a millisecond late when the box stalled.
		Nominal: 13000,
		Limit:   2 * time.Millisecond, // the smallest FAT of the paper's grid
	}
	// decideHeavy serves the committed shard-bench shape, a 2400x20 forest
	// of several MB, with audit and feedback off: the forest kernel
	// dominates. A batch of 64 walks for about 3 ms, so its p99 climbs
	// steadily with load (tens of ms well below saturation) and no rate
	// meets the 2 ms limit. Its ladder takes the largest BA overhead of the
	// paper's grid, 250 ms, as the limit: a decision slower than any beam
	// sweep it could spare is worthless. That puts its highest passing rung
	// where the admission queues start to shed, at the saturation throughput
	// the kernel sets.
	decideHeavy = decideShape{
		Trees: 2400, Depth: 20,
		// 4-7% of the saturation rung (21k-38k rps), and the steadiest p50
		// of the rates measured (README.md, "Nominal rates"): its spread over
		// ten seeds was 0.04-0.06, against 0.16 at 2500 rps and 0.30 at 4000
		// over five, where queueing on the connections begins.
		Nominal: 1500,
		Limit:   250 * time.Millisecond,
	}
)

// The serve configuration is libra-serve's default (-max-batch 64,
// -max-linger 200µs, -queue-depth 1024) with two shards behind the router.
const (
	decideShards   = 2
	decideMaxBatch = 64
	decideLinger   = 200 * time.Microsecond
	decideQueue    = 1024
	warmupDuration = 300 * time.Millisecond
	// latencyWindows splits every timed phase for Phase.windowPercentile.
	// Each window of the nominal phase and of every rung holds at least
	// windowRequests requests, so each window's p99 has at least ten samples
	// beyond it.
	latencyWindows = 5
	windowRequests = 1000
	probePause     = 50 * time.Millisecond
	// probeTries is how often a rung is offered before it counts as failed.
	// CPU steal on a shared box stalls a whole probe now and then; a stall
	// can only fail a rung, never pass one, so a second try filters it.
	probeTries     = 2
	micro          = 200 * time.Millisecond // length of each micro-measurement
	inprocFraction = 0.5                    // of the nominal phase, traced runs only
)

// fleet is one stood-up decide plane: model, router, audit log, binary
// listener and the generator's connections.
type fleet struct {
	quant   *ml.QuantForest
	replay  *serve.Replay
	rows32  [][]float32
	wide    [][]float64 // rows32 widened back to float64
	want    []int       // float64 forest class of each float32-narrowed row
	parity  int         // quant32/float64 class mismatches over the replay
	rt      *serve.Router
	srv     *serve.BinaryServer
	serveCh chan error
	audit   *decisionlog.Log
	logFile *os.File
	logPath string
	gen     *Generator
}

// modelSeed trains the served forest (and multiap's LiBRA classifier). The
// model is what the fleet ships, fixed across runs; the run's seed drives
// the traffic: the test campaign whose feature vectors are replayed, and
// their order.
const modelSeed = 42

// newFleet generates the campaigns, fits and quantizes the forest, checks
// class parity, and starts the sharded router and binary listener.
func newFleet(sh decideShape, seed int64, dir string, tr *Tracer) (*fleet, error) {
	f := &fleet{}
	var main, test *dataset.Campaign
	var rf *ml.RandomForest
	tr.Do("dataset.collect", -1, func() {
		main = dataset.GenerateMain(modelSeed)
		test = dataset.GenerateTest(seed)
	})
	var err error
	tr.Do("core.classifier_fit", -1, func() {
		rf = &ml.RandomForest{NumTrees: sh.Trees, MaxDepth: sh.Depth, Seed: modelSeed + 2}
		err = rf.Fit(main.ToML(true))
	})
	if err != nil {
		return nil, err
	}
	f.replay = serve.NewReplay(test, seed)
	tr.Do("ml.quantize", -1, func() {
		if f.quant, err = rf.Quantize(); err != nil {
			return
		}
		f.rows32 = make([][]float32, f.replay.Len())
		f.wide = make([][]float64, f.replay.Len())
		for i := range f.rows32 {
			x := f.replay.At(i)
			r, w := make([]float32, len(x)), make([]float64, len(x))
			for j, v := range x {
				r[j] = float32(v)
				w[j] = float64(r[j])
			}
			f.rows32[i], f.wide[i] = r, w
		}
		// Parity gate: the quantized forest must classify every replay row
		// exactly as the float64 forest does on the same float32-narrowed
		// row, and those float64 classes are what each response must carry.
		f.want = rf.PredictBatch(f.wide, nil)
		for i, c := range f.quant.PredictBatch(f.wide, nil) {
			if c != f.want[i] {
				f.parity++
			}
		}
	})
	if err != nil {
		return nil, err
	}

	reg := serve.NewRegistry()
	reg.Install("perfbench-quant32", f.quant)
	f.rt = serve.NewRouter(reg, serve.RouterConfig{
		Shards:    decideShards,
		Coalescer: serve.CoalescerConfig{MaxBatch: decideMaxBatch, MaxLinger: decideLinger, QueueDepth: decideQueue},
	})
	if sh.Audit {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			f.close()
			return nil, err
		}
		f.logPath = filepath.Join(dir, fmt.Sprintf("audit-%d.ldl", os.Getpid()))
		if f.logFile, err = os.Create(f.logPath); err != nil {
			f.close()
			return nil, err
		}
		f.audit, err = decisionlog.New(f.logFile, decisionlog.Config{
			NFeat: dataset.NumFeatures, Rings: decideShards, Sample: 1,
		})
		if err != nil {
			f.close()
			return nil, err
		}
		f.rt.SetAudit(f.audit)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.close()
		return nil, err
	}
	f.srv = serve.NewBinaryServer(f.rt, 0)
	f.serveCh = make(chan error, 1)
	go func() { f.serveCh <- f.srv.Serve(ln) }()

	labels := make([]uint8, f.replay.Len())
	for i := range labels {
		labels[i] = uint8(f.replay.LabelAt(i))
	}
	f.gen, err = dialGenerator(ln.Addr().String(), clientConns(), f.rows32, f.want, labels, sh.Audit)
	if err != nil {
		f.close()
		return nil, err
	}
	// Only the quantized forest is served (as libra-serve's quant32 format
	// does); collect the float64 one and the campaigns before warming up.
	runtime.GC()
	// Warm-up: untimed open-loop traffic at the nominal rate.
	if ph := f.gen.Run(sh.Nominal, warmupDuration, -1); ph.Err != nil {
		f.close()
		return nil, fmt.Errorf("warm-up: %w", ph.Err)
	}
	return f, nil
}

// close stops the plane in dependency order (clients, listener, shards,
// audit log) and verifies the sealed audit log. It returns the number of
// records the log holds.
func (f *fleet) close() (records int, err error) {
	if f.gen != nil {
		f.gen.Close()
	}
	if f.srv != nil {
		f.srv.Close()
		if e := <-f.serveCh; e != nil {
			err = e
		}
	}
	if f.rt != nil {
		f.rt.Close()
	}
	if f.audit != nil {
		err = errors.Join(err, f.audit.Close(), f.logFile.Close())
		if err == nil {
			// The fail-closed reader checks every chunk checksum.
			ld, rerr := decisionlog.ReadFile(f.logPath)
			if rerr != nil {
				err = rerr
			} else {
				records = len(ld.Records)
			}
		}
		os.Remove(f.logPath)
	}
	return records, err
}

// clientConns is the generator's connection count: one per CPU, at most 2.
func clientConns() int {
	return min(2, max(1, runtime.NumCPU()))
}

// nominalResult is the latency view of the nominal-rate phase: pooled over
// the whole phase, the p90 and p99 of its median window, and per-window
// summaries for the record.
type nominalResult struct {
	Phase   *Phase
	Pooled  Timing
	P90ms   float64
	P99ms   float64
	Windows []Timing
	LateP99 float64
}

func readNominal(ph *Phase, dur time.Duration) nominalResult {
	r := nominalResult{Phase: ph, Windows: ph.windows(latencyWindows, dur)}
	r.Pooled = summarize(append([]time.Duration(nil), ph.Lat...))
	r.P90ms = ph.windowPercentile(90, latencyWindows, dur)
	r.P99ms = ph.windowPercentile(99, latencyWindows, dur)
	late := append([]time.Duration(nil), ph.Late...)
	sortDur(late)
	r.LateP99 = ms(percentileSorted(late, 99))
	return r
}

// probe is one ladder rung's verdict.
type probe struct {
	Rung    int     `json:"rung"`
	Rate    float64 `json:"rate"`
	P99ms   float64 `json:"p99_ms"`
	Failed  int     `json:"failed"`
	Growing bool    `json:"growing"`
	Pass    bool    `json:"pass"`
}

// passes applies the ladder's three conditions to a probe phase: p99 within
// the limit, no failed or shed request, no growing backlog.
func passes(ph *Phase, dur, limit time.Duration) probe {
	p := probe{
		Rate:    ph.Rate,
		P99ms:   ph.windowPercentile(99, latencyWindows, dur),
		Failed:  ph.Failed(),
		Growing: ph.growing(dur, limit/2),
	}
	p.Pass = ph.Err == nil && p.Failed == 0 && !p.Growing && p.P99ms <= ms(limit)
	return p
}

// runDecide is the decide and decide_heavy workload.
func runDecide(sh decideShape) func(*runEnv) error {
	return func(e *runEnv) error {
		r := e.res
		r.Params = map[string]any{
			"trees": sh.Trees, "depth": sh.Depth,
			"format": serve.FormatQuant32, "shards": decideShards, "max_batch": decideMaxBatch,
			"max_linger": decideLinger.String(), "queue_depth": decideQueue,
			"audit": sh.Audit, "audit_sample": 1, "feedback": sh.Audit,
			"client_conns": clientConns(), "nominal_rps": sh.Nominal, "model_seed": modelSeed,
			"ladder":        fmt.Sprintf("%g rps x %g^k, k < %d", decideLadder.Base, decideLadder.Step, decideLadder.Rungs),
			"latency_limit": sh.Limit.String(), "open_loop": true,
		}
		// Set-up, several times; the last plane stays up.
		var f *fleet
		var setups []time.Duration
		cs := readCounters()
		for i := 0; i < e.setupRepeats(3); i++ {
			if f != nil {
				if _, err := f.close(); err != nil {
					return err
				}
			}
			var tr *Tracer
			if i == e.setupRepeats(3)-1 {
				tr = e.tr
			}
			t0 := time.Now()
			nf, err := newFleet(sh, e.seed, outDir, tr)
			if err != nil {
				return fmt.Errorf("setup: %w", err)
			}
			setups = append(setups, time.Since(t0))
			f = nf
		}
		r.setup(setups)
		if e.tr != nil {
			setupLayers(r, e.tr.Spans(), cs, readCounters())
		}
		r.check(f.parity == 0, fmt.Sprintf("quant32/float64 class parity over %d replay rows: %d mismatches", len(f.want), f.parity))

		seconds := e.seconds.Seconds()
		nominalDur := time.Duration(seconds / 3 * float64(time.Second))
		// Budget for about half the bisection's rungs being retried.
		probeDur := time.Duration((seconds - nominalDur.Seconds()) / (1.5 * float64(decideLadder.probes())) * float64(time.Second))
		m0 := readMem()
		c0 := readCounters()

		// Nominal-rate phase. Peak memory is marked as served at the nominal
		// rate, before the benchmark's own summaries copy the latencies. The
		// ladder's rungs above capacity fill the admission queues on purpose,
		// by an amount that depends on which rungs the bisection visits.
		var nom nominalResult
		if e.tr != nil {
			// Untraced first, for the tracing overhead.
			base := readNominal(f.gen.Run(sh.Nominal, nominalDur/2, -1), nominalDur/2)
			r.account(base.Phase, true)
			c0 = readCounters() // stage means cover the traced half only
			root := e.tr.Begin("decide.nominal", -1)
			ph := f.gen.Run(sh.Nominal, nominalDur/2, root)
			e.tr.End(root)
			r.markPeakRSS()
			for _, s := range ph.Requests {
				e.tr.Add(s)
			}
			nom = readNominal(ph, nominalDur/2)
			r.layer("bench.trace_overhead_ms", nom.Pooled.MeanMs-base.Pooled.MeanMs, "ms")
		} else {
			ph := f.gen.Run(sh.Nominal, nominalDur, -1)
			r.markPeakRSS()
			nom = readNominal(ph, nominalDur)
		}
		r.account(nom.Phase, true)
		if nom.Phase.Err != nil {
			return nom.Phase.Err
		}
		c1 := readCounters()

		// Rate ladder.
		var probes []probe
		best, _ := decideLadder.highestPassing(func(k int) bool {
			rate := decideLadder.Rate(k)
			dur := max(probeDur, time.Duration(latencyWindows*windowRequests/rate*float64(time.Second)))
			for try := 0; try < probeTries; try++ {
				time.Sleep(probePause)
				ph := f.gen.Run(rate, dur, -1)
				r.account(ph, false)
				p := passes(ph, dur, sh.Limit)
				p.Rung = k
				probes = append(probes, p)
				if p.Pass {
					return true
				}
			}
			return false
		})
		maxRPS := 0.0
		if best >= 0 {
			maxRPS = decideLadder.Rate(best)
		}
		r.Detail["ladder_probes"] = probes
		r.Detail["nominal"] = nom.Pooled
		r.Detail["nominal_windows"] = nom.Windows
		c2, m2 := readCounters(), readMem()

		r.e2e("op_p50_ms", nom.Pooled.P50ms)
		r.named("decide_p50_ms", nom.Pooled.P50ms, "ms", nom.Pooled.N)
		r.named("decide_p90_ms", nom.P90ms, "ms", nom.Pooled.N)
		r.named("decide_p99_ms", nom.P99ms, "ms", nom.Pooled.N)
		r.named("decide_max_rps", maxRPS, "1/s", len(probes))
		r.note(fmt.Sprintf("nominal %.0f rps for %v: pooled p50 %.3f ms, p%g %.3f ms over %d requests; generator late p99 %.3f ms",
			sh.Nominal, nominalDur.Round(time.Millisecond), nom.Pooled.P50ms, nom.Pooled.TailP, nom.Pooled.TailMs, nom.Pooled.N, nom.LateP99))
		for _, p := range probes {
			r.note(fmt.Sprintf("ladder rung %3d  %8.0f rps  p99 %7.3f ms  failed %5d  growing %-5v  pass %v",
				p.Rung, p.Rate, p.P99ms, p.Failed, p.Growing, p.Pass))
		}

		if e.tr != nil {
			decideLayers(e, f, sh, nominalDur, c0, c1, c2, m0, m2, nom)
		}
		records, err := f.close()
		if err != nil {
			r.check(false, fmt.Sprintf("closing the decide plane: %v", err))
		} else if sh.Audit {
			r.check(records > 0, fmt.Sprintf("sealed LDL1 audit log verifies: %d records", records))
		}
		return nil
	}
}

// decideLayers fills the decide per-layer metrics of a traced run.
func decideLayers(e *runEnv, f *fleet, sh decideShape, nominalDur time.Duration,
	c0, c1, c2 Counters, m0, m2 memSample, nom nominalResult) {
	r := e.res
	// Stage means and the batch mean over the traced nominal phase, from
	// the program's own libra_serve_stage_seconds and libra_serve_batch_size
	// histograms.
	var stageSum float64
	for _, st := range []string{"admission", "queue", "coalesce", "predict", "encode"} {
		mean := c1.histMean(c0, `libra_serve_stage_seconds{stage="`+st+`"}`) * 1e3
		stageSum += mean
		r.layer("serve.stage_ms."+st, mean, "ms")
	}
	r.layer("serve.client_mean_ms", nom.Pooled.MeanMs, "ms")
	r.layer("serve.unaccounted_ms", nom.Pooled.MeanMs-stageSum, "ms")
	r.note(fmt.Sprintf("serve: client mean %.4f ms = stages %.4f ms + unaccounted %.4f ms (wire, client, scheduling)",
		nom.Pooled.MeanMs, stageSum, nom.Pooled.MeanMs-stageSum))
	r.layer("loadgen.late_p99_ms", nom.LateP99, "ms")
	if n, s := c1.histDelta(c0, "libra_serve_batch_size"); n > 0 {
		r.layer("serve.batch_mean", s/float64(n), "rows")
	}
	r.layer("serve.shed", c2.delta(c0, "libra_serve_shed_total"), "count")
	r.layer("serve.errors", c2.delta(c0, "libra_serve_errors_total"), "count")
	r.layer("decisionlog.records", c2.delta(c0, "libra_audit_records_total"), "count")
	r.layer("decisionlog.drops", c2.delta(c0, "libra_audit_drops_total"), "count")
	r.layer("decisionlog.bytes", c2.delta(c0, "libra_audit_bytes_total"), "count")
	r.layer("runtime.alloc_mb", float64(m2.allocBytes-m0.allocBytes)/(1<<20), "MB")
	r.layer("runtime.gc_cycles", float64(m2.gcCycles-m0.gcCycles), "count")

	// In-process path at the nominal rate: Router.Submit to Pending.Done,
	// no wire.
	inproc, sent, failed := runInproc(f, sh.Nominal, time.Duration(inprocFraction*float64(nominalDur)), e.tr)
	r.layer("serve.inproc_p50_ms", inproc.P50ms, "ms")
	r.Attempted += sent
	r.Failed += failed

	// Micro-measurements of single layers.
	r.layer("serve.router_ns", routerNs(f.rt), "ns")
	for _, b := range []int{8, 64, 512} {
		r.layer(fmt.Sprintf("ml.quant_ns_per_row.b%d", b), quantNsPerRow(f.quant, f.wide, b), "ns")
	}
	r.layer("decisionlog.publish_ns", publishNs(), "ns")
}

// runInproc drives the router directly at rate for dur over two lanes, each
// waiting on its requests in submission order (as a connection's writer
// does), and times Submit-to-Done from the scheduled submit time. failed
// counts sheds, errors and answers other than the expected class.
func runInproc(f *fleet, rate float64, dur time.Duration, tr *Tracer) (t Timing, sent, failed int) {
	root := tr.Begin("serve.inproc", -1)
	defer tr.End(root)
	n := int(rate * dur.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(2 * time.Millisecond)
	const lanes = 2
	type item struct {
		p   *serve.Pending
		due time.Time
		row int
	}
	lats := make([][]time.Duration, lanes)
	fails := make([]int, lanes)
	ctx := context.Background()
	var wg sync.WaitGroup
	for l := 0; l < lanes; l++ {
		ch := make(chan item, n/lanes+1) // sized to every request of the lane
		wg.Add(1)
		go func(l int) { // collector: in submission order, like a connection
			defer wg.Done()
			for it := range ch {
				<-it.p.Done()
				lats[l] = append(lats[l], time.Since(it.due))
				if dec, err := it.p.Result(); err != nil || int(dec.Action) != f.want[it.row] {
					fails[l]++
				}
			}
		}(l)
		go func(l int) { // pacer; closing ch releases the collector
			defer close(ch)
			pc, err := newPacer()
			if err != nil {
				fails[l] = n
				return
			}
			defer pc.Close()
			for g := l; g < n; g += lanes {
				due := start.Add(time.Duration(g) * interval)
				if pc.sleepUntil(due) != nil {
					return
				}
				row := g % len(f.wide)
				p, err := f.rt.Submit(ctx, uint64(row), f.wide[row], true)
				if err != nil {
					fails[l]++
					continue
				}
				ch <- item{p, due, row}
			}
		}(l)
	}
	wg.Wait()
	var all []time.Duration
	for l := range lats {
		all = append(all, lats[l]...)
		failed += fails[l]
	}
	return summarize(all), n, failed
}

// routerNs times Router.ShardFor over distinct link IDs.
func routerNs(rt *serve.Router) float64 {
	const batch = 1 << 16
	var sink int
	n := 0
	t0 := time.Now()
	for time.Since(t0) < micro {
		for i := 0; i < batch; i++ {
			sink += rt.ShardFor(uint64(n + i))
		}
		n += batch
	}
	d := time.Since(t0)
	if sink < 0 {
		fmt.Fprintln(os.Stderr, sink)
	}
	return float64(d.Nanoseconds()) / float64(n)
}

// quantNsPerRow times QuantForest.PredictBatch on replay rows in batches of
// b rows.
func quantNsPerRow(q *ml.QuantForest, rows [][]float64, b int) float64 {
	batch := make([][]float64, b)
	for i := range batch {
		batch[i] = rows[i%len(rows)]
	}
	out := make([]int, b)
	n := 0
	t0 := time.Now()
	for time.Since(t0) < micro {
		out = q.PredictBatch(batch, out)
		n += b
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// publishNs times Log.Publish into a log that writes nowhere; the ring is
// drained by the log's writer goroutine as in production.
func publishNs() float64 {
	l, err := decisionlog.New(discard{}, decisionlog.Config{NFeat: dataset.NumFeatures, Rings: 1})
	if err != nil {
		return 0
	}
	defer l.Close()
	rec := decisionlog.Record{Kind: decisionlog.KindDecision}
	n := 0
	t0 := time.Now()
	for time.Since(t0) < micro {
		for i := 0; i < 1024; i++ {
			rec.ReqID = uint64(n + i)
			l.Publish(0, &rec)
		}
		n += 1024
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
