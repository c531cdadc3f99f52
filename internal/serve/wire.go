package serve

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// The decide hot path's binary framing. HTTP/JSON costs more per request
// than the model walk it carries (header parsing, chunked encoding, JSON
// float formatting); the binary protocol replaces it with fixed
// little-endian frames over one persistent TCP connection, pipelined: a
// client may have any number of requests in flight and responses come back
// in submission order. The JSON endpoints remain the control plane
// (/models, /metrics, debugging).
//
// Connection handshake: the client sends the 4-byte magic "LiB1"; the
// server echoes it. Everything after is length-prefixed frames:
//
//	u32  payload length (little-endian, not counting this prefix)
//	u8   type
//	...  type-specific payload
//
// Decide request (type 1), 20 + 4·nfeat bytes:
//
//	off  size  field
//	0    u8    type    = 1
//	1    u8    flags   (bit 0: want per-class probabilities; others 0)
//	2    u16   nfeat
//	4    u64   req_id  (echoed verbatim; client-chosen)
//	12   u64   link_id (consistent-hash routing key)
//	20   f32×nfeat feature vector
//
// Decide response (type 2 ok, type 3 error), 16 + 4·nclasses bytes:
//
//	off  size  field
//	0    u8    type     = 2 | 3
//	1    u8    code     (type 2: action id; type 3: wireErr* code)
//	2    u8    nclasses (0 unless probabilities were requested)
//	3    u8    reserved
//	4    u32   model_id (registry version that answered; 0 on error)
//	8    u64   req_id
//	16   f32×nclasses probability row
//
// This file is the pure codec — deterministic, no I/O, no clocks — and
// stays inside the determinism analyzer's full discipline (wire*.go, like
// replay*.go, is banned from wall-clock reads). The socket loops live in
// binary.go.

// wireMagic opens every binary-protocol connection.
var wireMagic = [4]byte{'L', 'i', 'B', '1'}

const (
	frameDecide   = 1 // client -> server
	frameResult   = 2 // server -> client, success
	frameError    = 3 // server -> client, failure
	frameFeedback = 4 // client -> server, ground truth; fire-and-forget

	// wireFlagProba asks for the per-class probability row. Requests
	// without it take the class-only early-exit kernel.
	wireFlagProba = 1 << 0

	// wireMaxFrame bounds a payload; a decide request is 20+4·nfeat, so
	// this allows feature vectors far beyond the campaign's 7 while still
	// rejecting garbage prefixes before allocating.
	wireMaxFrame = 1 << 16

	reqHeadLen  = 20
	respHeadLen = 16

	// feedbackLen is the fixed frameFeedback payload:
	//
	//	off  size  field
	//	0    u8    type    = 4
	//	1    u8    action  (ground-truth action for the decision)
	//	2    u16   reserved
	//	4    u64   req_id
	//	12   u64   link_id
	//
	// Feedback is fire-and-forget: no response frame, and it never enters
	// the connection's FIFO — the reader hands it straight to the router's
	// ground-truth join and moves on.
	feedbackLen = 20
)

// Error codes carried by frameError responses.
const (
	wireErrOverloaded = 1 // admission queue full; retry later
	wireErrDraining   = 2 // server shutting down
	wireErrNoModel    = 3 // no model loaded yet
	wireErrCanceled   = 4 // deadline or connection context expired
	wireErrBadRequest = 5 // malformed frame
	wireErrInternal   = 6
	wireErrBadFeature = 7 // NaN or ±Inf feature; the connection keeps serving
)

var (
	errFrameTooLarge  = errors.New("serve: frame exceeds wire limit")
	errFrameTruncated = errors.New("serve: truncated frame")
	errFrameMalformed = errors.New("serve: malformed frame")
)

// wireRequest is one decoded decide request.
type wireRequest struct {
	Flags  uint8
	ReqID  uint64
	LinkID uint64
	X      []float32 // reused across decodes; copy before retaining
}

// WireResponse is one decoded decide response.
type WireResponse struct {
	ReqID   uint64
	ModelID uint32
	Action  uint8
	Err     uint8     // 0 = success, else a wireErr* code
	Proba   []float32 // reused across decodes; copy before retaining
}

// appendDecideRequest appends one framed decide request to dst.
//
//lint:noalloc pipelined client encode path; frames append into the caller's buffer
func appendDecideRequest(dst []byte, reqID, linkID uint64, wantProba bool, x []float32) []byte {
	n := reqHeadLen + 4*len(x)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	flags := uint8(0)
	if wantProba {
		flags = wireFlagProba
	}
	dst = append(dst, frameDecide, flags)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(x)))
	dst = binary.LittleEndian.AppendUint64(dst, reqID)
	dst = binary.LittleEndian.AppendUint64(dst, linkID)
	for _, v := range x {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
	}
	return dst
}

// decodeDecideRequest parses a frameDecide payload, reusing req.X.
//
//lint:noalloc per-request decode path; the feature slice is connection-owned
func decodeDecideRequest(payload []byte, req *wireRequest) error {
	if len(payload) < reqHeadLen {
		return errFrameTruncated
	}
	if payload[0] != frameDecide {
		//lint:ignore noalloc malformed-frame error path, not steady state
		return fmt.Errorf("serve: unexpected frame type %d", payload[0])
	}
	if payload[1]&^wireFlagProba != 0 {
		return errFrameMalformed // a flag bit this protocol does not define
	}
	req.Flags = payload[1]
	nfeat := int(binary.LittleEndian.Uint16(payload[2:]))
	if len(payload) != reqHeadLen+4*nfeat {
		return errFrameTruncated
	}
	req.ReqID = binary.LittleEndian.Uint64(payload[4:])
	req.LinkID = binary.LittleEndian.Uint64(payload[12:])
	if cap(req.X) < nfeat {
		req.X = make([]float32, nfeat)
	}
	req.X = req.X[:nfeat]
	for i := range req.X {
		req.X[i] = math.Float32frombits(binary.LittleEndian.Uint32(payload[reqHeadLen+4*i:]))
	}
	return nil
}

// appendFeedback appends one framed ground-truth feedback to dst.
//
//lint:noalloc loadgen replays feedback at decide rates; frames append into the caller's buffer
func appendFeedback(dst []byte, reqID, linkID uint64, action uint8) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, feedbackLen)
	dst = append(dst, frameFeedback, action, 0, 0)
	dst = binary.LittleEndian.AppendUint64(dst, reqID)
	dst = binary.LittleEndian.AppendUint64(dst, linkID)
	return dst
}

// decodeFeedback parses a frameFeedback payload.
//
//lint:noalloc per-frame ingest path alongside decide decodes
func decodeFeedback(payload []byte) (reqID, linkID uint64, action uint8, err error) {
	if len(payload) != feedbackLen || payload[0] != frameFeedback {
		return 0, 0, 0, errFrameTruncated
	}
	action = payload[1]
	reqID = binary.LittleEndian.Uint64(payload[4:])
	linkID = binary.LittleEndian.Uint64(payload[12:])
	return reqID, linkID, action, nil
}

// appendResult appends one framed success response to dst. proba may be nil.
//
//lint:noalloc per-response encode path; frames append into the connection's buffer
func appendResult(dst []byte, reqID uint64, action uint8, modelID uint32, proba []float32) []byte {
	n := respHeadLen + 4*len(proba)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	dst = append(dst, frameResult, action, uint8(len(proba)), 0)
	dst = binary.LittleEndian.AppendUint32(dst, modelID)
	dst = binary.LittleEndian.AppendUint64(dst, reqID)
	for _, v := range proba {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
	}
	return dst
}

// appendWireError appends one framed error response to dst.
//
//lint:noalloc shed path must not allocate — overload is exactly when it runs hottest
func appendWireError(dst []byte, reqID uint64, code uint8) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, respHeadLen)
	dst = append(dst, frameError, code, 0, 0)
	dst = binary.LittleEndian.AppendUint32(dst, 0)
	dst = binary.LittleEndian.AppendUint64(dst, reqID)
	return dst
}

// decodeResponse parses a frameResult or frameError payload, reusing
// resp.Proba.
//
//lint:noalloc pipelined client decode path; the proba slice is client-owned
func decodeResponse(payload []byte, resp *WireResponse) error {
	if len(payload) < respHeadLen {
		return errFrameTruncated
	}
	typ := payload[0]
	if typ != frameResult && typ != frameError {
		//lint:ignore noalloc malformed-frame error path, not steady state
		return fmt.Errorf("serve: unexpected frame type %d", typ)
	}
	nc := int(payload[2])
	if len(payload) != respHeadLen+4*nc {
		return errFrameTruncated
	}
	resp.ModelID = binary.LittleEndian.Uint32(payload[4:])
	resp.ReqID = binary.LittleEndian.Uint64(payload[8:])
	if typ == frameError {
		// Code 0 would read as a success, and no model answered an error.
		if payload[1] == 0 || nc != 0 || resp.ModelID != 0 {
			return errFrameMalformed
		}
		resp.Err = payload[1]
		resp.Action = 0
		resp.Proba = resp.Proba[:0]
		return nil
	}
	resp.Err = 0
	resp.Action = payload[1]
	if cap(resp.Proba) < nc {
		resp.Proba = make([]float32, nc)
	}
	resp.Proba = resp.Proba[:nc]
	for i := range resp.Proba {
		resp.Proba[i] = math.Float32frombits(binary.LittleEndian.Uint32(payload[respHeadLen+4*i:]))
	}
	return nil
}

// wireErrCode maps a coalescer error to its wire code.
func wireErrCode(err error) uint8 {
	switch {
	case errors.Is(err, ErrOverloaded):
		return wireErrOverloaded
	case errors.Is(err, ErrDraining):
		return wireErrDraining
	case errors.Is(err, ErrNoModel):
		return wireErrNoModel
	case errors.Is(err, ErrBadFeatures):
		return wireErrBadFeature
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return wireErrCanceled
	default:
		return wireErrInternal
	}
}
