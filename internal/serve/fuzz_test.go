package serve

import (
	"math"
	"slices"
	"testing"
)

// FuzzWireDecode runs every LiB1 payload decoder on arbitrary bytes. None
// may panic, and every payload a decoder accepts must re-encode through its
// encoder and decode back to the same fields, float bit patterns included.
// The seeds under testdata/fuzz/FuzzWireDecode are one valid payload of
// each frame type (decide, feedback, result, error), a decide payload cut
// short, a payload with an unknown type byte, a decide payload whose nfeat
// overruns its bytes, a decide payload with an unknown flag bit, an error
// frame carrying a model id, and an error frame with code 0.
func FuzzWireDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		var req wireRequest
		if decodeDecideRequest(payload, &req) == nil {
			frame := appendDecideRequest(nil, req.ReqID, req.LinkID, req.Flags&wireFlagProba != 0, req.X)
			var again wireRequest
			if err := decodeDecideRequest(frame[4:], &again); err != nil {
				t.Fatalf("re-encoded request does not decode: %v", err)
			}
			if again.Flags != req.Flags || again.ReqID != req.ReqID || again.LinkID != req.LinkID ||
				!slices.Equal(f32bits(again.X), f32bits(req.X)) {
				t.Fatalf("request %+v re-decoded as %+v", req, again)
			}
		}

		if reqID, linkID, action, err := decodeFeedback(payload); err == nil {
			frame := appendFeedback(nil, reqID, linkID, action)
			r2, l2, a2, err := decodeFeedback(frame[4:])
			if err != nil || r2 != reqID || l2 != linkID || a2 != action {
				t.Fatalf("feedback (%d, %d, %d) re-decoded as (%d, %d, %d), %v", reqID, linkID, action, r2, l2, a2, err)
			}
		}

		var resp WireResponse
		if decodeResponse(payload, &resp) == nil {
			if payload[0] == frameError && resp.Err == 0 {
				t.Fatalf("error frame decoded as a success: %+v", resp)
			}
			var frame []byte
			if resp.Err != 0 {
				frame = appendWireError(nil, resp.ReqID, resp.Err)
			} else {
				frame = appendResult(nil, resp.ReqID, resp.Action, resp.ModelID, resp.Proba)
			}
			var again WireResponse
			if err := decodeResponse(frame[4:], &again); err != nil {
				t.Fatalf("re-encoded response does not decode: %v", err)
			}
			if again.ReqID != resp.ReqID || again.ModelID != resp.ModelID || again.Action != resp.Action ||
				again.Err != resp.Err || !slices.Equal(f32bits(again.Proba), f32bits(resp.Proba)) {
				t.Fatalf("response %+v re-decoded as %+v", resp, again)
			}
		}
	})
}

// f32bits returns the bit patterns of x, so NaNs compare equal to themselves.
func f32bits(x []float32) []uint32 {
	out := make([]uint32, len(x))
	for i, v := range x {
		out[i] = math.Float32bits(v)
	}
	return out
}
