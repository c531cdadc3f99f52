// Package serve is the online inference service: it loads classifiers
// persisted by libra-train and answers per-link adaptation queries over
// HTTP/JSON. Concurrent single-prediction requests are coalesced into the
// forest's 0 B/op batch path, models hot-swap atomically with zero dropped
// in-flight requests, and a bounded admission queue sheds overload with 429
// instead of letting latency collapse. See DESIGN.md §9.
//
// The serving layer is deliberately outside the deterministic core: it
// reads wall clocks and races goroutines. The boundary is one-way — serve
// imports the core, never the reverse — and the deterministic feature
// sources it exposes for replay (replay*.go) stay under the determinism
// analyzer's full discipline.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/libra-wlan/libra/internal/dataset"
	"github.com/libra-wlan/libra/internal/obs"
)

// maxModelUpload bounds POST /models bodies (a 500-tree forest is ~15 MB).
const maxModelUpload = 256 << 20

// Config parameterizes the service.
type Config struct {
	// Coalescer sizes each shard's batching engine (zero values pick
	// defaults).
	Coalescer CoalescerConfig
	// Shards is the number of coalescer shards behind the consistent-hash
	// router (<= 0 selects 1).
	Shards int
	// DefaultTimeout is applied to decision requests that carry no
	// deadline of their own (<= 0 selects 2s).
	DefaultTimeout time.Duration
}

// withDefaults resolves the zero values (NewRouter resolves the rest).
func (c Config) withDefaults() Config {
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 2 * time.Second
	}
	return c
}

// Server answers decision queries from the registry's active model.
//
//	POST /v1/decide        {"features":[7 floats],"link_id":N,"req_id":N} -> action + probabilities
//	POST /v1/feedback      {"req_id":N,"link_id":N,"action_id":N} ground truth -> 204
//	GET  /models           active model and rollback target
//	POST /models           upload a libra-model artifact; atomic hot-swap
//	POST /models/rollback  restore the previously active model
//	GET  /shards           per-shard routing and admission stats
//	GET  /healthz          liveness (200 once the process serves HTTP)
//	GET  /readyz           readiness (200 once a model is loaded)
//	GET  /metrics          libra_serve_* metrics (Prometheus; ?format=json)
type Server struct {
	cfg Config
	reg *Registry
	rt  *Router
	mux *http.ServeMux
}

// New assembles a server around reg. Callers own the registry so they can
// pre-load a model before exposing the listener; Close drains every shard.
func New(reg *Registry, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg: cfg,
		reg: reg,
		rt:  NewRouter(reg, RouterConfig{Shards: cfg.Shards, Coalescer: cfg.Coalescer}),
		mux: http.NewServeMux(),
	}
	s.mux.HandleFunc("POST /v1/decide", s.handleDecide)
	s.mux.HandleFunc("POST /v1/feedback", s.handleFeedback)
	s.mux.HandleFunc("GET /models", s.handleModels)
	s.mux.HandleFunc("POST /models", s.handleModelUpload)
	s.mux.HandleFunc("POST /models/rollback", s.handleRollback)
	s.mux.HandleFunc("GET /shards", s.handleShards)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Router returns the sharded decide plane, for mounting the binary
// protocol listener on the same shards (cmd/libra-serve).
func (s *Server) Router() *Router { return s.rt }

// Close stops admissions and drains queued decisions. Call after the
// listeners have shut down (so no handler can enqueue concurrently
// forever); handlers still blocked in Decide are answered before Close
// returns.
func (s *Server) Close() { s.rt.Close() }

// decideRequest is the POST /v1/decide body.
type decideRequest struct {
	// Features is the 7-dimensional PHY feature vector in campaign order
	// (see dataset.Entry.Features).
	Features []float64 `json:"features"`
	// LinkID keys consistent-hash shard routing; absent means link 0.
	LinkID uint64 `json:"link_id"`
	// ReqID is the client-chosen audit identity: it keys the decision log's
	// deterministic sampling and later ground-truth joins (POST
	// /v1/feedback). Absent means 0 — fine when no audit log is attached.
	ReqID uint64 `json:"req_id"`
}

// respPool recycles response-encoding buffers across decision requests.
var respPool = sync.Pool{
	New: func() any { return make([]byte, 0, 256) },
}

// handleDecide answers one feature vector. The response is hand-encoded:
// on a single-core host the fixed per-request cost (parse + encode) is what
// dilutes the batched model's advantage, so the hot path avoids
// encoding/json on the way out.
func (s *Server) handleDecide(w http.ResponseWriter, r *http.Request) {
	t0 := nowStamp()
	timer := obs.StartTimer()
	var req decideRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
		obsErrors.Inc()
		httpError(w, http.StatusBadRequest, "malformed JSON body: "+err.Error())
		return
	}
	if len(req.Features) != dataset.NumFeatures {
		obsErrors.Inc()
		httpError(w, http.StatusBadRequest,
			fmt.Sprintf("want %d features, got %d", dataset.NumFeatures, len(req.Features)))
		return
	}
	// Decide on the float32 features the binary wire and the audit record
	// carry, so every decision replays from its record. A value beyond
	// float32 range narrows to ±Inf, which admission refuses.
	for i, v := range req.Features {
		req.Features[i] = float64(float32(v))
	}

	ctx := r.Context()
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.DefaultTimeout)
		defer cancel()
	}
	// Submit rather than Decide: the handler keeps the Pending so it can
	// stamp the encode span and emit the audit record after the response
	// bytes leave.
	t, err := s.rt.SubmitTimed(ctx, req.LinkID, req.Features, false, req.ReqID, t0)
	if err != nil {
		s.writeDecideError(w, err)
		return
	}
	select {
	case <-t.Done():
	case <-ctx.Done():
		obsCanceled.Inc()
		s.writeDecideError(w, ctx.Err())
		return
	}
	dec, err := t.Result()
	if err != nil {
		s.writeDecideError(w, err)
		return
	}

	tEnc := nowStamp()
	buf := respPool.Get().([]byte)[:0]
	buf = append(buf, `{"action":"`...)
	buf = append(buf, dec.Action.String()...)
	buf = append(buf, `","action_id":`...)
	buf = strconv.AppendInt(buf, int64(dec.Action), 10)
	buf = append(buf, `,"proba":[`...)
	for i, p := range dec.Proba {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendFloat(buf, p, 'g', -1, 64)
	}
	buf = append(buf, `],"model_id":`...)
	buf = strconv.AppendInt(buf, int64(dec.Model.ID), 10)
	buf = append(buf, '}', '\n')

	w.Header().Set("Content-Type", "application/json")
	w.Write(buf)
	respPool.Put(buf)
	s.rt.EmitDecision(t, nowStamp().Sub(tEnc))

	if a := int(dec.Action); a >= 0 && a < len(obsDecisions) {
		obsDecisions[a].Inc()
	}
	timer.Observe(obsDecisionSeconds)
}

// feedbackRequest is the POST /v1/feedback body: delayed ground truth for a
// previously served decision, keyed by the (req_id, link_id) the client sent
// with it.
type feedbackRequest struct {
	ReqID    uint64 `json:"req_id"`
	LinkID   uint64 `json:"link_id"`
	ActionID int    `json:"action_id"`
}

// handleFeedback joins ground truth to the audit stream; see Router.Feedback.
// Always 204: feedback for an unsampled or unknown decision is simply
// dropped, which is what deterministic sampling demands.
func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request) {
	var req feedbackRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<12)).Decode(&req); err != nil {
		obsErrors.Inc()
		httpError(w, http.StatusBadRequest, "malformed JSON body: "+err.Error())
		return
	}
	if req.ActionID < 0 || req.ActionID > 255 {
		obsErrors.Inc()
		httpError(w, http.StatusBadRequest, "action_id out of range")
		return
	}
	s.rt.Feedback(req.ReqID, req.LinkID, uint8(req.ActionID))
	w.WriteHeader(http.StatusNoContent)
}

// writeDecideError maps coalescer errors to HTTP status codes.
func (s *Server) writeDecideError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrOverloaded):
		// obsShed already counted at the admission queue.
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, ErrBadFeatures):
		// obsErrors already counted at admission.
		httpError(w, http.StatusBadRequest, err.Error())
	case errors.Is(err, ErrNoModel), errors.Is(err, ErrDraining):
		obsErrors.Inc()
		httpError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		// obsCanceled already counted at the waiter.
		httpError(w, http.StatusGatewayTimeout, err.Error())
	default:
		obsErrors.Inc()
		httpError(w, http.StatusInternalServerError, err.Error())
	}
}

// modelsResponse is the GET /models body.
type modelsResponse struct {
	Active   *Model `json:"active"`
	Rollback *Model `json:"rollback,omitempty"`
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, modelsResponse{
		Active:   s.reg.Active(),
		Rollback: s.reg.Previous(),
	})
}

// handleModelUpload ingests a libra-model artifact and hot-swaps it in.
// The swap is atomic: batches in flight finish on the model they captured,
// and no request is dropped. ?source= labels the version (default "upload").
func (s *Server) handleModelUpload(w http.ResponseWriter, r *http.Request) {
	source := r.URL.Query().Get("source")
	if source == "" {
		source = "upload"
	}
	m, err := s.reg.Load(source, io.LimitReader(r.Body, maxModelUpload))
	if err != nil {
		obsErrors.Inc()
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, m)
}

func (s *Server) handleRollback(w http.ResponseWriter, r *http.Request) {
	m, err := s.reg.Rollback()
	if err != nil {
		obsErrors.Inc()
		httpError(w, http.StatusConflict, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, m)
}

// shardsResponse is the GET /shards body.
type shardsResponse struct {
	Shards []ShardStat `json:"shards"`
	Total  uint64      `json:"total"`
}

func (s *Server) handleShards(w http.ResponseWriter, r *http.Request) {
	stats := s.rt.ShardStats()
	var total uint64
	for _, st := range stats {
		total += st.Requests
	}
	writeJSON(w, http.StatusOK, shardsResponse{Shards: stats, Total: total})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.reg.Active() == nil {
		httpError(w, http.StatusServiceUnavailable, ErrNoModel.Error())
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ready\n")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		obs.Default.WriteJSON(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.Default.WritePrometheus(w)
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// writeJSON writes v as a JSON response body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
