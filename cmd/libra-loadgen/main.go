// Command libra-loadgen is a deterministic closed-loop load generator for a
// running libra-serve. It replays measurement-campaign feature vectors
// (fixed seed, fixed shuffle, per-worker stride) so runs are comparable,
// and reports throughput, latency percentiles, and online accuracy against
// the campaign's ground truth. The repository's benchmark is perfbench/
// (BENCHMARK.json); this command only drives a live server.
//
// Usage:
//
//	libra-loadgen [-proto json|binary] [-url URL] [-target HOST:PORT]
//	              [-pipeline D] [-c N] [-n N] [-warmup N] [-seed N]
//	              [-feedback]
//
// -proto json posts to -url's /v1/decide over HTTP/JSON. -proto binary
// speaks the pipelined binary decide protocol to -target, with up to
// -pipeline requests in flight on each worker's connection. -warmup untimed
// requests precede the -n timed ones; -c workers share both.
//
// Over the binary protocol, request identity is global and worker-count
// invariant: request g of a run carries req_id g and link_id g mod the
// replay length, whatever -c is. With -feedback the generator reports each
// answered request's campaign ground truth back over the binary feedback
// frame, so a serve-side audit stream (libra-serve -audit-out) carries
// joinable truth records and libra-report can compute accuracy-over-window.
// Because the server samples on request identity, the log's canonical
// digest and the drift report derived from it are byte-identical across -c
// (DESIGN.md §8).
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sort"
	"strconv"
	"time"

	"github.com/libra-wlan/libra/internal/dataset"
	"github.com/libra-wlan/libra/internal/obs"
	"github.com/libra-wlan/libra/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("libra-loadgen: ")
	url := flag.String("url", "http://127.0.0.1:8060", "server base URL (-proto json)")
	proto := flag.String("proto", "json", "decide protocol: json (HTTP, -url) or binary (-target)")
	target := flag.String("target", "127.0.0.1:8061", "binary-protocol host:port (-proto binary)")
	pipeline := flag.Int("pipeline", 64, "in-flight requests per worker connection (-proto binary)")
	conc := flag.Int("c", 64, "closed-loop workers")
	n := flag.Int("n", 100000, "timed requests")
	warm := flag.Int("warmup", 5000, "untimed warm-up requests before the timed run")
	seed := flag.Int64("seed", 42, "campaign + shuffle seed")
	feedback := flag.Bool("feedback", false, "report campaign ground truth for every answered request (-proto binary)")
	oc := obs.RegisterCLI(flag.CommandLine)
	flag.Parse()
	// A run that measures nothing must not pass for one that measured.
	switch {
	case *conc < 1:
		log.Fatalf("-c %d: need at least one worker", *conc)
	case *n < 1:
		log.Fatalf("-n %d: need at least one timed request", *n)
	case *warm < 0:
		log.Fatalf("-warmup %d: must not be negative", *warm)
	case *proto != "json" && *proto != "binary":
		log.Fatalf("unknown -proto %q (want json or binary)", *proto)
	}
	if err := oc.Start(); err != nil {
		log.Fatal(err)
	}

	log.Printf("generating test campaign (seed %d)", *seed)
	replay := serve.NewReplay(dataset.GenerateTest(*seed), *seed)
	var (
		res result
		err error
	)
	if *proto == "json" {
		res, err = driveHTTP(*url, replay, *conc, *n, *warm)
	} else {
		res, err = driveBinary(*target, replay, *conc, *n, *warm, *pipeline, *feedback)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res)
	if err := oc.Stop(); err != nil {
		log.Fatal(err)
	}
}

// result is one timed run's report.
type result struct {
	label         string
	conc          int
	requests      int
	seconds       float64
	p50, p90, p99 float64 // milliseconds
	errors        int
	accuracy      float64
}

func (r result) String() string {
	return fmt.Sprintf("%-8s c=%d n=%d  %10.0f req/s  p50 %.3f ms  p90 %.3f ms  p99 %.3f ms  acc %.3f  errors %d",
		r.label, r.conc, r.requests, float64(r.requests)/r.seconds, r.p50, r.p90, r.p99, r.accuracy, r.errors)
}

// tally is one worker's record of the timed run. A nil *tally records
// nothing: that is the warm-up.
type tally struct {
	lats   []time.Duration
	errors int
	hits   int
}

// observe records one request issued at start: whether the server answered
// it, and whether the answer matched the campaign's ground truth.
func (t *tally) observe(start time.Time, ok, correct bool) {
	if t == nil {
		return
	}
	t.lats = append(t.lats, time.Since(start))
	if !ok {
		t.errors++
	}
	if correct {
		t.hits++
	}
}

// A worker issues requests w, w+conc, w+2·conc, … below total and records
// each one in t.
type worker func(w, total int, t *tally) error

// closedLoop runs warm untimed requests and then n timed ones, each spread
// over conc workers, and reduces the timed run's tallies to one result.
func closedLoop(label string, conc, n, warm int, work worker) (result, error) {
	if err := fanOut(conc, warm, nil, work); err != nil {
		return result{}, err
	}
	ts := make([]tally, conc)
	for w := range ts {
		ts[w].lats = make([]time.Duration, 0, n/conc+1)
	}
	t0 := time.Now()
	if err := fanOut(conc, n, ts, work); err != nil {
		return result{}, err
	}
	res := result{label: label, conc: conc, seconds: time.Since(t0).Seconds()}

	var all []time.Duration
	hits := 0
	for _, t := range ts {
		all = append(all, t.lats...)
		res.errors += t.errors
		hits += t.hits
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	res.requests = len(all)
	res.p50, res.p90, res.p99 = pctMs(all, 0.50), pctMs(all, 0.90), pctMs(all, 0.99)
	res.accuracy = float64(hits) / float64(len(all))
	return res, nil
}

// fanOut runs conc workers over total requests, waits for every one, and
// returns the first error. ts is nil during the warm-up.
func fanOut(conc, total int, ts []tally, work worker) error {
	errc := make(chan error, conc)
	for w := 0; w < conc; w++ {
		var t *tally
		if ts != nil {
			t = &ts[w]
		}
		go func(w int, t *tally) { errc <- work(w, total, t) }(w, t)
	}
	var first error
	for w := 0; w < conc; w++ {
		if err := <-errc; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// pctMs returns the p-th percentile of sorted durations, in milliseconds.
func pctMs(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return float64(sorted[i]) / float64(time.Millisecond)
}

// driveHTTP drives a running libra-serve closed loop over HTTP/JSON.
func driveHTTP(base string, replay *serve.Replay, conc, n, warm int) (result, error) {
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

	return closedLoop("http", conc, n, warm, func(w, total int, t *tally) error {
		var dec struct {
			ActionID int `json:"action_id"`
		}
		for i := w; i < total; i += conc {
			start := time.Now()
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
			t.observe(start, ok, correct)
		}
		return nil
	})
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

// driveBinary drives a binary-protocol listener closed loop: each worker
// has its own connection keeping up to pipeline requests in flight,
// responses drained in FIFO order. Latency is measured submit-to-response
// (it includes the worker's own pipeline queueing — the closed-loop view).
//
// Request g of a run carries req_id g globally (worker w issues the
// residue class g ≡ w mod conc), so the set of served request identities —
// and therefore the server's deterministic audit sample — is invariant
// across worker counts. With feedback, each answered response is followed
// by a fire-and-forget ground-truth frame for its request.
func driveBinary(addr string, replay *serve.Replay, conc, n, warm, pipeline int, feedback bool) (result, error) {
	pipeline = max(pipeline, 1)
	rows := newRows32(replay)
	return closedLoop("binary", conc, n, warm, func(w, total int, t *tally) error {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return err
		}
		c, err := serve.NewBinaryClient(conn)
		if err != nil {
			return err
		}
		defer c.Close()
		mine := (total - w + conc - 1) / conc
		starts := make([]time.Time, pipeline)
		idxs := make([]int, pipeline)
		sent, recvd := 0, 0
		for recvd < mine {
			for sent < mine && sent-recvd < pipeline {
				g := w + sent*conc
				i := g % len(rows)
				starts[sent%pipeline] = time.Now()
				idxs[sent%pipeline] = i
				// The replay index doubles as the link ID, spreading links
				// across the ring.
				if err := c.Send(uint64(g), uint64(i), rows[i], false); err != nil {
					return err
				}
				sent++
			}
			if err := c.Flush(); err != nil {
				return err
			}
			// Drain half the window (at least one) before topping it up
			// again, so sends stay batched while the pipe is never empty.
			for k := max((sent-recvd+1)/2, 1); k > 0; k-- {
				resp, err := c.Recv()
				if err != nil {
					return fmt.Errorf("binary: recv after %d: %w", recvd, err)
				}
				g := w + recvd*conc
				if resp.ReqID != uint64(g) {
					return fmt.Errorf("binary: response order broken: got req %d want %d", resp.ReqID, g)
				}
				i := idxs[recvd%pipeline]
				truth := replay.LabelAt(i)
				t.observe(starts[recvd%pipeline], resp.Err == 0, resp.Err == 0 && int(resp.Action) == int(truth))
				if feedback && resp.Err == 0 {
					if err := c.SendFeedback(uint64(g), uint64(i), uint8(truth)); err != nil {
						return err
					}
				}
				recvd++
			}
		}
		// Fence the trailing feedback frames: push them, half-close, and
		// wait for the server to close its side. It does so only after its
		// reader has consumed every frame, so a server stopped after this
		// returns (SIGTERM) cannot drop truths it never read.
		if err := c.Flush(); err != nil {
			return err
		}
		if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
			return err
		}
		if _, err := c.Recv(); !errors.Is(err, io.EOF) {
			return fmt.Errorf("binary: want EOF after the last response, got %v", err)
		}
		return nil
	})
}
