package sim

import (
	"context"
	"fmt"

	"github.com/libra-wlan/libra/internal/core"
	"github.com/libra-wlan/libra/internal/dataset"
	"github.com/libra-wlan/libra/internal/phy"
	"github.com/libra-wlan/libra/internal/trace"
)

// This file is the scenario API: Run is the one context-first entry point
// for every single-link policy run — a dataset entry's break under any
// protocol variant, or a multi-segment timeline.

// Variant selects a protocol-design ablation of the standard Tx-initiated
// LiBRA evaluation (§7-§8).
type Variant int

const (
	// VariantStandard is the paper's Tx-initiated design.
	VariantStandard Variant = iota
	// VariantFailover replays a break under the MOCA-style failover-beam
	// policy (requires Options.Failover; only entry scenarios).
	VariantFailover
	// VariantRxInitiated replays a break under Rx-initiated LiBRA, which
	// always runs the classifier but pays a signaling exchange per
	// adaptation (requires Options.Classifier; only entry scenarios).
	VariantRxInitiated
)

// String names the variant.
func (v Variant) String() string {
	switch v {
	case VariantStandard:
		return "standard"
	case VariantFailover:
		return "failover"
	case VariantRxInitiated:
		return "rx-initiated"
	}
	return "unknown"
}

// Scenario is the input of one policy run: exactly one of the fields is set.
type Scenario struct {
	// Entry replays a single link break from a dataset sample (§8.2).
	Entry *dataset.Entry
	// Timeline replays a multi-segment impairment timeline (§8.3).
	Timeline *trace.Timeline
}

// Options carries everything about a run that is not the channel scenario
// itself: protocol parameters, the policy under evaluation, its classifier,
// and the design variant.
type Options struct {
	// Params is the evaluation grid cell (BA overhead, FAT, flow length).
	Params Params
	// Policy is the adaptation policy under evaluation, one of the defined
	// set. Ignored by the failover and Rx-initiated variants, which define
	// their own logic.
	Policy Policy
	// Classifier is consulted by the LiBRA policy and the Rx-initiated
	// variant, and both require one.
	Classifier core.Classifier
	// Variant selects the protocol-design ablation (default standard).
	Variant Variant
	// Failover is the failover beam pair's throughput table, required by
	// VariantFailover (FailoverPair finds the pair on a snapshot).
	Failover *[phy.NumMCS]float64
}

// Result is the output of Run: Outcome for entry scenarios, Timeline for
// timeline scenarios (the other field stays zero).
type Result struct {
	Outcome  Outcome
	Timeline TimelineResult
}

// Validate rejects non-positive protocol durations up front instead of
// letting them clamp silently deep inside the run loop. Entry scenarios
// additionally need a positive flow duration (timeline scenarios take their
// duration from the segments and ignore FlowDur).
func (p Params) Validate() error {
	if p.BAOverhead <= 0 {
		return fmt.Errorf("sim: BAOverhead %v is not positive", p.BAOverhead)
	}
	if p.FAT <= 0 {
		return fmt.Errorf("sim: FAT %v is not positive", p.FAT)
	}
	if p.FlowDur < 0 {
		return fmt.Errorf("sim: FlowDur %v is negative", p.FlowDur)
	}
	return nil
}

// ValidatePolicy refuses a policy outside the defined set, and LiBRA without
// the classifier it consults at a break.
func ValidatePolicy(pol Policy, clf core.Classifier) error {
	if pol < LiBRA || pol > OracleDelay {
		return fmt.Errorf("sim: unknown policy %d", int(pol))
	}
	if pol == LiBRA && clf == nil {
		return fmt.Errorf("sim: the LiBRA policy needs a Classifier")
	}
	return nil
}

// Validate reports whether Run accepts the scenario/options combination,
// without simulating anything. Callers that replay many scenarios under one
// set of options can check once up front.
func Validate(sc Scenario, opt Options) error {
	if (sc.Entry == nil) == (sc.Timeline == nil) {
		return fmt.Errorf("sim: scenario must set exactly one of Entry or Timeline")
	}
	if err := opt.Params.Validate(); err != nil {
		return err
	}
	if sc.Entry != nil && opt.Params.FlowDur <= 0 {
		return fmt.Errorf("sim: entry scenarios need a positive FlowDur (got %v)", opt.Params.FlowDur)
	}
	switch opt.Variant {
	case VariantStandard:
		if err := ValidatePolicy(opt.Policy, opt.Classifier); err != nil {
			return err
		}
	case VariantFailover:
		if sc.Entry == nil {
			return fmt.Errorf("sim: the failover variant replays entry scenarios only")
		}
		if opt.Failover == nil {
			return fmt.Errorf("sim: the failover variant needs Options.Failover")
		}
	case VariantRxInitiated:
		if sc.Entry == nil {
			return fmt.Errorf("sim: the rx-initiated variant replays entry scenarios only")
		}
		if opt.Classifier == nil {
			return fmt.Errorf("sim: the rx-initiated variant needs Options.Classifier")
		}
	default:
		return fmt.Errorf("sim: unknown variant %d", int(opt.Variant))
	}
	return nil
}

// Run executes one scenario under one set of options. Timeline scenarios
// check ctx at every segment boundary; entry scenarios are short and check
// it only on entry. A run that completes is unaffected by ctx — the result
// depends only on the scenario, options and classifier, never on scheduling
// or the wall clock.
func Run(ctx context.Context, sc Scenario, opt Options) (Result, error) {
	if err := Validate(sc, opt); err != nil {
		return Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	var res Result
	if sc.Timeline != nil {
		tl, err := runTimeline(ctx, sc.Timeline, opt.Params, opt.Policy, opt.Classifier)
		if err != nil {
			return Result{}, err
		}
		res.Timeline = tl
		return res, nil
	}
	switch opt.Variant {
	case VariantFailover:
		res.Outcome = runEntryFailover(sc.Entry, opt.Failover, opt.Params)
	case VariantRxInitiated:
		res.Outcome = runEntryRxInitiated(sc.Entry, opt.Params, opt.Classifier)
	default:
		res.Outcome = runEntry(sc.Entry, opt.Params, opt.Policy, opt.Classifier)
	}
	return res, nil
}
