package serve

import (
	"time"

	"github.com/libra-wlan/libra/internal/obs/decisionlog"
)

// The audit-stream glue between the serving layer and the decision log.
// The serving layer owns every wall-clock read (nowStamp, sanctioned below);
// the decisionlog and drift packages are //lint:clockfree and receive
// latencies only as plain integer data, already measured. Emission happens
// on transport goroutines AFTER the response bytes are written, so the
// decide path never waits on the audit ring, and the ring's Publish is
// itself //lint:noalloc and non-blocking.

// nowStamp reads the wall clock for stage-latency attribution. Every stamp
// on the decide path funnels through here so the sanction below is the one
// place the serving layer's measurement clock is visible to the analyzers.
//
//lint:wallclock per-stage latency attribution measures real elapsed time
func nowStamp() time.Time { return time.Now() }

// durNs converts a duration to nanoseconds, saturated to u32 (about 4.29s —
// far beyond any request deadline) and clamped at zero.
func durNs(d time.Duration) uint32 {
	if d <= 0 {
		return 0
	}
	if d > time.Duration(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(d)
}

// spanNs returns the a->b span in nanoseconds; unset stamps span zero.
func spanNs(a, b time.Time) uint32 {
	if a.IsZero() || b.IsZero() {
		return 0
	}
	return durNs(b.Sub(a))
}

// SetAudit attaches a decision log to the router. Every served decision then
// feeds the five stage histograms, and the log's deterministic 1-in-N sample
// of decisions (plus their ground-truth feedback) is published to the
// per-shard rings. Call before the listeners start serving traffic; the
// field is read unsynchronized on the hot path.
func (rt *Router) SetAudit(l *decisionlog.Log) { rt.audit = l }

// EmitDecision closes the books on one successfully answered decision:
// observe the five stage spans on libra_serve_stage_seconds, and — when an
// audit log is attached and (reqID, linkID) falls in its deterministic
// sample — publish the full audit record to the owning shard's ring.
// Transports call it once per decision, after the response bytes are handed
// off, with the encode span they measured; it must not be called before the
// Pending is done or on an errored result.
func (rt *Router) EmitDecision(t *Pending, encode time.Duration) {
	p := t.p
	adm := spanNs(p.t0, p.tEnq)
	que := spanNs(p.tEnq, p.tDeq)
	coa := spanNs(p.tDeq, p.tCap)
	pre := spanNs(p.tCap, p.tPred)
	enc := durNs(encode)
	obsStageSeconds[stageAdmission].Observe(float64(adm) / 1e9)
	obsStageSeconds[stageQueue].Observe(float64(que) / 1e9)
	obsStageSeconds[stageCoalesce].Observe(float64(coa) / 1e9)
	obsStageSeconds[stagePredict].Observe(float64(pre) / 1e9)
	obsStageSeconds[stageEncode].Observe(float64(enc) / 1e9)

	l := rt.audit
	if l == nil || !l.Sampled(p.reqID, p.linkID) {
		return
	}
	rec := decisionlog.Record{
		Kind:    decisionlog.KindDecision,
		Action:  uint8(p.dec.Action),
		Shard:   p.shard,
		ModelID: uint32(p.dec.Model.ID),
		ReqID:   p.reqID,
		LinkID:  p.linkID,

		LatAdmissionNs: adm,
		LatQueueNs:     que,
		LatCoalesceNs:  coa,
		LatPredictNs:   pre,
		LatEncodeNs:    enc,
	}
	for i, v := range p.x {
		if i == decisionlog.MaxFeatures {
			break
		}
		rec.Feat[i] = float32(v)
	}
	l.Publish(int(p.shard), &rec)
}

// Feedback records delayed ground truth for a served decision: the action
// that hindsight says was right for (reqID, linkID). When the decision fell
// in the audit sample, a KindTruth record joins it in the log — same
// sampling predicate, so truth records are exactly as worker-count-invariant
// as the decisions they join — and the drift monitor's accuracy-over-window
// statistic consumes the pair. A no-op without an attached log.
func (rt *Router) Feedback(reqID, linkID uint64, action uint8) {
	l := rt.audit
	if l == nil || !l.Sampled(reqID, linkID) {
		return
	}
	s := rt.ring.shardFor(linkID)
	rec := decisionlog.Record{
		Kind:   decisionlog.KindTruth,
		Action: action,
		Shard:  uint16(s),
		ReqID:  reqID,
		LinkID: linkID,
	}
	l.Publish(s, &rec)
}
