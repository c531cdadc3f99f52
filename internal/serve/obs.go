package serve

import "github.com/libra-wlan/libra/internal/obs"

// The serving layer's metrics, registered once at init so the hot path pays
// no lookups. Names follow the repo convention
// libra_<subsystem>_<noun>_<unit>; see DESIGN.md §8.
var (
	obsRequests = obs.NewCounter("libra_serve_requests_total",
		"decision requests admitted (sheds and malformed requests excluded)")
	obsShed = obs.NewCounter("libra_serve_shed_total",
		"decision requests rejected with 429 because the admission queue was full")
	obsCanceled = obs.NewCounter("libra_serve_canceled_total",
		"decision requests abandoned because their context expired before a result")
	obsErrors = obs.NewCounter("libra_serve_errors_total",
		"malformed or failed decision requests (4xx other than 429, and 5xx)")
	obsSwaps = obs.NewCounter("libra_serve_swaps_total",
		"model hot-swaps (loads and rollbacks) applied to the registry")
	obsQueueDepth = obs.NewGauge("libra_serve_queue_depth",
		"decision requests waiting in the coalescer's admission queue")
	obsBatchSize = obs.NewHistogram("libra_serve_batch_size",
		"predictions per coalesced model invocation",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256})
	obsDecisionSeconds = obs.NewHistogram("libra_serve_decision_seconds",
		"wall-clock latency of one decision, admission to response",
		obs.DurationBuckets)
	obsDecisions = [3]*obs.Counter{
		obs.NewCounter(`libra_serve_decisions_total{action="BA"}`,
			"decisions answered with beam adaptation"),
		obs.NewCounter(`libra_serve_decisions_total{action="RA"}`,
			"decisions answered with rate adaptation"),
		obs.NewCounter(`libra_serve_decisions_total{action="NA"}`,
			"decisions answered with no adaptation"),
	}
	// Stage-attribution histograms: libra_serve_decision_seconds split at the
	// pipeline's seams, so a tail regression on /metrics names its stage. The
	// same five spans are stamped into every sampled audit record
	// (decisionlog.Record), which holds the per-decision evidence.
	obsStageSeconds = [numStages]*obs.Histogram{
		obs.NewHistogram(`libra_serve_stage_seconds{stage="admission"}`,
			"transport decode and validation, request arrival to admission", obs.DurationBuckets),
		obs.NewHistogram(`libra_serve_stage_seconds{stage="queue"}`,
			"admission enqueue to dispatcher dequeue", obs.DurationBuckets),
		obs.NewHistogram(`libra_serve_stage_seconds{stage="coalesce"}`,
			"dispatcher dequeue to batch capture (taking what is already queued)", obs.DurationBuckets),
		obs.NewHistogram(`libra_serve_stage_seconds{stage="predict"}`,
			"model batch walk, shared by every decision in the batch", obs.DurationBuckets),
		obs.NewHistogram(`libra_serve_stage_seconds{stage="encode"}`,
			"result ready to response bytes handed to the transport", obs.DurationBuckets),
	}
)

// Stage indices into obsStageSeconds, in pipeline order. They mirror the
// lat_*_ns columns of an audit record one-for-one.
const (
	stageAdmission = iota
	stageQueue
	stageCoalesce
	stagePredict
	stageEncode
	numStages
)
