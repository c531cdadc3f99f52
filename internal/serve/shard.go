package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/libra-wlan/libra/internal/obs"
	"github.com/libra-wlan/libra/internal/obs/decisionlog"
)

// The sharded decide plane. A Router fronts N independent coalescer shards
// behind a consistent-hash ring keyed on link ID: each shard has its own
// admission queue and dispatcher goroutine, so one saturated link cannot
// head-of-line-block the rest of the fleet, and shard count scales the
// decide plane across cores. All shards share ONE Registry — a hot-swap is
// a single atomic pointer store observed by every shard's next batch, so
// the fleet never serves two model versions to new batches (in-flight
// batches finish on the snapshot they captured, exactly as before).

// ErrBadFeatures is returned for a feature vector holding NaN or ±Inf.
var ErrBadFeatures = errors.New("serve: non-finite feature")

// RouterConfig sizes the sharded decide plane.
type RouterConfig struct {
	// Shards is the number of coalescer shards (<= 0 selects 1).
	Shards int
	// Coalescer sizes each shard's batching engine.
	Coalescer CoalescerConfig
}

// withDefaults resolves the zero values.
func (c RouterConfig) withDefaults() RouterConfig {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	c.Coalescer = c.Coalescer.withDefaults()
	return c
}

// Router routes decisions to coalescer shards by link ID.
type Router struct {
	ring   *hashRing
	shards []*Coalescer

	// Per-shard admission counters, aggregated by ShardStats and diffed by
	// the CI smoke test against the router-level totals.
	requests []*obs.Counter

	// audit, when attached (SetAudit, before traffic), receives the sampled
	// decision stream; see audit.go.
	audit *decisionlog.Log
}

// NewRouter builds the shard fleet around one shared registry. Callers own
// the lifecycle: Close drains every shard.
func NewRouter(reg *Registry, cfg RouterConfig) *Router {
	cfg = cfg.withDefaults()
	rt := &Router{
		ring:     newRing(cfg.Shards),
		shards:   make([]*Coalescer, cfg.Shards),
		requests: make([]*obs.Counter, cfg.Shards),
	}
	for i := range rt.shards {
		rt.shards[i] = NewCoalescer(reg, cfg.Coalescer)
		rt.requests[i] = obs.NewCounter(
			fmt.Sprintf(`libra_serve_shard_requests_total{shard="%d"}`, i),
			fmt.Sprintf("decision requests admitted by shard %d", i))
	}
	return rt
}

// ShardFor returns the shard index owning linkID on the hash ring.
//
//lint:ignore deadexport perfbench's decide workload, a separate module, times the ring with it
func (rt *Router) ShardFor(linkID uint64) int { return rt.ring.shardFor(linkID) }

// SubmitTimed is the decide plane's one admission point. It refuses a
// vector holding NaN or ±Inf with ErrBadFeatures (counted in
// libra_serve_errors_total), enqueues the rest on the shard owning linkID
// without waiting for the answer, and counts each admitted request once, in
// libra_serve_requests_total and its shard's counter. classOnly requests
// take the model's early-exit class kernel; reqID and linkID key the
// decision log's sampling and ground-truth joins; t0 is the transport's
// arrival stamp (zero records a zero admission span). The Pending resolves
// when its batch flushes; EmitDecision consumes it after the response.
func (rt *Router) SubmitTimed(ctx context.Context, linkID uint64, x []float64, classOnly bool, reqID uint64, t0 time.Time) (*Pending, error) {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			obsErrors.Inc()
			return nil, ErrBadFeatures
		}
	}
	s := rt.ring.shardFor(linkID)
	p := &pending{
		x: x, classOnly: classOnly, ctx: ctx, done: make(chan struct{}),
		reqID: reqID, linkID: linkID, shard: uint16(s), t0: t0, tEnq: nowStamp(),
	}
	if err := rt.shards[s].admit(p); err != nil {
		return nil, err
	}
	rt.requests[s].Inc()
	obsRequests.Inc()
	return &Pending{p: p}, nil
}

// Submit is SubmitTimed without audit identity or arrival stamp.
// Transports that feed the decision log use SubmitTimed.
//
//lint:ignore deadexport perfbench's decide workload, a separate module, drives the in-process path with it
func (rt *Router) Submit(ctx context.Context, linkID uint64, x []float64, classOnly bool) (*Pending, error) {
	return rt.SubmitTimed(ctx, linkID, x, classOnly, 0, time.Time{})
}

// Close drains every shard. Safe to call once; see Coalescer.Close.
func (rt *Router) Close() {
	for _, s := range rt.shards {
		s.Close()
	}
}

// ShardStat is one shard's view in the GET /shards listing.
type ShardStat struct {
	// Shard is the ring index.
	Shard int `json:"shard"`
	// VNodes is the shard's virtual point count on the ring.
	VNodes int `json:"vnodes"`
	// Requests is the shard's admitted decision count.
	Requests uint64 `json:"requests"`
}

// ShardStats snapshots per-shard admission counts. The sum over shards
// equals the router's total admissions — the invariant CI's smoke test
// checks after driving load through the ring.
func (rt *Router) ShardStats() []ShardStat {
	out := make([]ShardStat, len(rt.shards))
	for i := range out {
		out[i] = ShardStat{Shard: i, VNodes: ringVNodes, Requests: rt.requests[i].Value()}
	}
	return out
}
