// Package decisionlog is the serve fleet's per-decision audit stream: every
// served decision — feature vector, predicted action, model version, shard,
// and per-stage latencies — becomes one fixed-width record in a bounded
// per-shard ring, drained by a single writer goroutine into a checksummed
// binary log ("LDL1", an internal/framing container like libra-ds: LE
// fixed-width frames, a footer with a SHA-256 per chunk, a seekable
// trailer, and a fail-closed reader).
//
// The hot-path contract: Publish is //lint:noalloc and never blocks — a
// full ring drops the record and counts the drop, so a stalled disk can
// slow the audit stream but never the decide path. Deterministic 1/N
// sampling (Sampled) keys on request identity, not arrival order, so the
// sampled record SET is identical for any worker or connection count; the
// canonical digest (latencies zeroed, records sorted) is then byte-identical
// across runs too.
//
// The package is //lint:clockfree: stage latencies arrive as plain u32 data
// stamped by the serving layer under its own //lint:wallclock sanctions.
// Nothing here — ring, drain loop, container writer — may read a clock, and
// the clocksep analyzer proves it.
//
//lint:clockfree audit log bytes must depend on publish order, not arrival time
package decisionlog

import (
	"encoding/binary"
	"errors"
	"math"
	"sort"

	"github.com/libra-wlan/libra/internal/splitmix"
)

// Record kinds.
const (
	// KindDecision is a served decision (features, action, latencies).
	KindDecision = 1
	// KindTruth is a delayed ground-truth join: Action carries the true
	// label for the (ReqID, LinkID) decision; features and latencies are
	// zero.
	KindTruth = 2
)

// MaxFeatures bounds a record's feature vector (the campaign uses 7).
const MaxFeatures = 16

// recHeadBytes is the fixed prefix before the feature columns.
const recHeadBytes = 44

// RecordBytes returns the encoded width of a record with nfeat features.
func RecordBytes(nfeat int) int { return recHeadBytes + 4*nfeat }

// Record is one audit-stream entry.
//
//	off  size  field
//	0    u8    kind     (1 decision, 2 truth)
//	1    u8    action   (predicted action; true label for truth records)
//	2    u16   shard
//	4    u32   model_id (registry version that answered; 0 for truth)
//	8    u64   req_id
//	16   u64   link_id
//	24   u32   lat_admission_ns  (transport read -> admission queue)
//	28   u32   lat_queue_ns      (enqueue -> dispatcher dequeue)
//	32   u32   lat_coalesce_ns   (dequeue -> batch capture)
//	36   u32   lat_predict_ns    (model walk, per batch)
//	40   u32   lat_encode_ns     (result ready -> response bytes written)
//	44   f32 x nfeat feature vector
type Record struct {
	Kind    uint8
	Action  uint8
	Shard   uint16
	ModelID uint32
	ReqID   uint64
	LinkID  uint64

	LatAdmissionNs uint32
	LatQueueNs     uint32
	LatCoalesceNs  uint32
	LatPredictNs   uint32
	LatEncodeNs    uint32

	Feat [MaxFeatures]float32
}

// encodeInto serializes the record's first nfeat features into dst, which
// must hold RecordBytes(nfeat).
//
//lint:noalloc runs inside Publish on the decide hot path
func (r *Record) encodeInto(dst []byte, nfeat int) {
	dst[0] = r.Kind
	dst[1] = r.Action
	binary.LittleEndian.PutUint16(dst[2:], r.Shard)
	binary.LittleEndian.PutUint32(dst[4:], r.ModelID)
	binary.LittleEndian.PutUint64(dst[8:], r.ReqID)
	binary.LittleEndian.PutUint64(dst[16:], r.LinkID)
	binary.LittleEndian.PutUint32(dst[24:], r.LatAdmissionNs)
	binary.LittleEndian.PutUint32(dst[28:], r.LatQueueNs)
	binary.LittleEndian.PutUint32(dst[32:], r.LatCoalesceNs)
	binary.LittleEndian.PutUint32(dst[36:], r.LatPredictNs)
	binary.LittleEndian.PutUint32(dst[40:], r.LatEncodeNs)
	for i := 0; i < nfeat; i++ {
		binary.LittleEndian.PutUint32(dst[recHeadBytes+4*i:], math.Float32bits(r.Feat[i]))
	}
}

// errRecordTruncated guards decodeFrom against short slices.
var errRecordTruncated = errors.New("decisionlog: truncated record")

// decodeFrom parses one encoded record of nfeat features out of src.
func (r *Record) decodeFrom(src []byte, nfeat int) error {
	if len(src) < RecordBytes(nfeat) || nfeat > MaxFeatures {
		return errRecordTruncated
	}
	r.Kind = src[0]
	r.Action = src[1]
	r.Shard = binary.LittleEndian.Uint16(src[2:])
	r.ModelID = binary.LittleEndian.Uint32(src[4:])
	r.ReqID = binary.LittleEndian.Uint64(src[8:])
	r.LinkID = binary.LittleEndian.Uint64(src[16:])
	r.LatAdmissionNs = binary.LittleEndian.Uint32(src[24:])
	r.LatQueueNs = binary.LittleEndian.Uint32(src[28:])
	r.LatCoalesceNs = binary.LittleEndian.Uint32(src[32:])
	r.LatPredictNs = binary.LittleEndian.Uint32(src[36:])
	r.LatEncodeNs = binary.LittleEndian.Uint32(src[40:])
	for i := range r.Feat {
		r.Feat[i] = 0
	}
	for i := 0; i < nfeat; i++ {
		r.Feat[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[recHeadBytes+4*i:]))
	}
	return nil
}

// Sampled reports whether the (reqID, linkID) decision falls in the 1-in-n
// deterministic sample. n <= 1 samples everything. The predicate depends
// only on request identity — never on arrival order, worker, shard, or
// connection — so the sampled record set is invariant across worker counts,
// and applying the same predicate to delayed ground-truth joins keeps truth
// records joinable with their decisions.
//
//lint:noalloc sampling gate runs per decision on the hot path
func Sampled(n uint64, reqID, linkID uint64) bool {
	if n <= 1 {
		return true
	}
	// One SplitMix64 step from state linkID, then one from reqID^that.
	h := splitmix.Mix(linkID + splitmix.Gamma)
	return splitmix.Mix((reqID^h)+splitmix.Gamma)%n == 0
}

// SortCanonical orders records by (ReqID, LinkID, Kind, Shard, ModelID,
// Action) — a total order over the deterministic fields, independent of the
// interleaving the rings happened to drain in. Equal-key records are
// identical once latencies are zeroed, so the canonical byte stream is
// well-defined even with duplicates.
func SortCanonical(recs []Record) {
	sort.Slice(recs, func(i, j int) bool {
		a, b := &recs[i], &recs[j]
		switch {
		case a.ReqID != b.ReqID:
			return a.ReqID < b.ReqID
		case a.LinkID != b.LinkID:
			return a.LinkID < b.LinkID
		case a.Kind != b.Kind:
			return a.Kind < b.Kind
		case a.Shard != b.Shard:
			return a.Shard < b.Shard
		case a.ModelID != b.ModelID:
			return a.ModelID < b.ModelID
		default:
			return a.Action < b.Action
		}
	})
}
