package sim

import (
	"time"

	"github.com/libra-wlan/libra/internal/core"
	"github.com/libra-wlan/libra/internal/dataset"
)

// Rx-initiated LiBRA ablation (§7, design issue 3). The paper chooses a
// Tx-initiated, standard-compliant design: PHY metrics ride back on 802.11
// ACKs, and when the ACK is missing the Tx falls back to the coarse
// missing-ACK rule. The rejected alternative is Rx-initiated adaptation:
// the receiver always has fresh metrics (no missing-ACK blind spot, so the
// classifier runs on every break), but must signal the transmitter with new
// control frames, which costs airtime on every adaptation and breaks
// standard compliance.
//
// This file implements that alternative so the design choice can be
// quantified rather than argued.

// RxSignalOverhead is the control exchange an Rx-initiated design spends to
// tell the Tx which mechanism to start: a trigger frame and its ACK at the
// control PHY, plus a SIFS each way.
const RxSignalOverhead = 120 * time.Microsecond

// runEntryRxInitiated replays one break under Rx-initiated LiBRA, the core
// of Run's VariantRxInitiated: the classifier always runs (the Rx measures
// the broken channel directly), and every adaptation is preceded by the
// Rx->Tx signaling exchange.
func runEntryRxInitiated(e *dataset.Entry, p Params, clf core.Classifier) Outcome {
	var out Outcome
	if action := clf.Classify(e.FeatureSlice()); action == dataset.ActNA {
		// Same fallback as the Tx-initiated design after a lost window.
		out = naFallback(e, p)
	} else {
		out = runPlan(e, p, action == dataset.ActBA)
	}
	out.RecoveryDelay += RxSignalOverhead
	// The signaling exchange occupies the channel before adaptation
	// starts: shift the delivered bytes by the airtime it consumed, which
	// is all of a flow no longer than the exchange.
	if p.FlowDur <= RxSignalOverhead {
		out.Bytes = 0
	} else {
		out.Bytes -= out.Bytes * RxSignalOverhead.Seconds() / p.FlowDur.Seconds()
	}
	return out
}
