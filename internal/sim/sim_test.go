package sim

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/libra-wlan/libra/internal/ad"
	"github.com/libra-wlan/libra/internal/core"
	"github.com/libra-wlan/libra/internal/dataset"
	"github.com/libra-wlan/libra/internal/phy"
)

// tableOf builds a throughput table from (mcs, bps) pairs; others are 0.
func tableOf(pairs map[phy.MCS]float64) thTable {
	var t thTable
	for m, v := range pairs {
		t[m] = v
	}
	return t
}

func stdParams() Params {
	return Params{
		BAOverhead: 5 * time.Millisecond,
		FAT:        2 * time.Millisecond,
		FlowDur:    time.Second,
	}
}

// entryRun replays one entry through Run, failing the test on an error.
func entryRun(t testing.TB, e *dataset.Entry, opt Options) Outcome {
	t.Helper()
	res, err := Run(context.Background(), Scenario{Entry: e}, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res.Outcome
}

func TestRASearchFindsHighest(t *testing.T) {
	table := tableOf(map[phy.MCS]float64{4: 2e9, 3: 1.5e9, 2: 1.2e9, 1: 0.9e9, 0: 0.3e9})
	out := raSearch(&table, 6, 2*time.Millisecond)
	if !out.found {
		t.Fatal("not found")
	}
	if out.mcs != 4 || out.th != 2e9 {
		t.Errorf("selected %v at %v", out.mcs, out.th)
	}
	// Probes: 6, 5 (dead), 4 (working best), 3 (lower -> stop).
	if out.probes != 4 {
		t.Errorf("probes = %d", out.probes)
	}
	// First working is the third probe.
	if out.firstWorking != 3 {
		t.Errorf("firstWorking = %d", out.firstWorking)
	}
}

func TestRASearchNoneWorking(t *testing.T) {
	table := tableOf(map[phy.MCS]float64{0: 50e6}) // below the 150 Mbps bar
	out := raSearch(&table, phy.MaxMCS, 2*time.Millisecond)
	if out.found {
		t.Fatal("found on a dead table")
	}
	if out.probes != phy.NumMCS {
		t.Errorf("probes = %d, want all %d", out.probes, phy.NumMCS)
	}
}

func TestRASearchBytesAccounting(t *testing.T) {
	fat := 2 * time.Millisecond
	table := tableOf(map[phy.MCS]float64{2: 1e9, 1: 0.8e9})
	out := raSearch(&table, 3, fat)
	// Probes at MCS3 (0), MCS2 (1e9), MCS1 (0.8e9, lower -> stop).
	wantBytes := (0 + 1e9 + 0.8e9) * fat.Seconds() / 8
	if math.Abs(out.searchBytes-wantBytes) > 1 {
		t.Errorf("searchBytes = %v, want %v", out.searchBytes, wantBytes)
	}
}

func TestRASearchStartClamped(t *testing.T) {
	table := tableOf(map[phy.MCS]float64{0: 300e6})
	if out := raSearch(&table, phy.MCS(50), time.Millisecond); !out.found {
		t.Error("clamped start failed")
	}
	if out := raSearch(&table, phy.MCS(-3), time.Millisecond); out.probes != 1 {
		t.Error("negative start should probe MCS0 once")
	}
}

// handEntry builds an entry with a clean, analyzable structure: the initial
// beam supports MCS2 at 1 Gbps; the best beam supports MCS4 at 2 Gbps.
func handEntry() *dataset.Entry {
	e := &dataset.Entry{InitMCS: 4}
	e.InitBeamTh = tableOf(map[phy.MCS]float64{2: 1e9, 1: 0.9e9, 0: 0.3e9})
	e.BestBeamTh = tableOf(map[phy.MCS]float64{4: 2e9, 3: 1.6e9, 2: 1.1e9, 1: 0.9e9, 0: 0.3e9})
	e.Features[5] = 0.2 // CDR nonzero: ACKs still flowing
	return e
}

func TestRunPlanRAFirstAccounting(t *testing.T) {
	e := handEntry()
	p := stdParams()
	out := runPlan(e, p, false)
	// RA path: probes MCS4 (0), MCS3 (0), MCS2 (1e9) <- first working at
	// probe 3, MCS1 (0.9e9 < 1e9) -> stop. Settled at MCS2 on init beam.
	if out.FinalMCS != 2 || out.FinalOnBestBeam {
		t.Errorf("final = %v onBest=%v", out.FinalMCS, out.FinalOnBestBeam)
	}
	if want := 3 * p.FAT; out.RecoveryDelay != want {
		t.Errorf("delay = %v, want %v", out.RecoveryDelay, want)
	}
	// Bytes: 4 probes x 2 ms at (0 + 0 + 1e9 + 0.9e9), then 992 ms at 1e9.
	searchBytes := (1e9 + 0.9e9) * p.FAT.Seconds() / 8
	settleBytes := 1e9 * (p.FlowDur - 4*p.FAT).Seconds() / 8
	want := searchBytes + settleBytes
	if math.Abs(out.Bytes-want) > 1 {
		t.Errorf("bytes = %v, want %v", out.Bytes, want)
	}
	if !out.UsedRA || out.UsedBA {
		t.Error("mechanism flags wrong")
	}
}

func TestRunPlanBAFirstAccounting(t *testing.T) {
	e := handEntry()
	p := stdParams()
	out := runPlan(e, p, true)
	// BA: 5 ms dead air, then RA on best beam finds MCS4 on the first
	// probe, MCS3 lower -> stop. Settled at MCS4 on best beam.
	if out.FinalMCS != 4 || !out.FinalOnBestBeam {
		t.Errorf("final = %v onBest=%v", out.FinalMCS, out.FinalOnBestBeam)
	}
	if want := p.BAOverhead + 1*p.FAT; out.RecoveryDelay != want {
		t.Errorf("delay = %v, want %v", out.RecoveryDelay, want)
	}
	searchBytes := (2e9 + 1.6e9) * p.FAT.Seconds() / 8
	settleBytes := 2e9 * (p.FlowDur - p.BAOverhead - 2*p.FAT).Seconds() / 8
	want := searchBytes + settleBytes
	if math.Abs(out.Bytes-want) > 1 {
		t.Errorf("bytes = %v, want %v", out.Bytes, want)
	}
	if !out.UsedBA || !out.UsedRA {
		t.Error("mechanism flags wrong")
	}
}

func TestRunPlanRAFallsBackToBA(t *testing.T) {
	e := handEntry()
	e.InitBeamTh = thTable{} // initial beam is dead
	p := stdParams()
	out := runPlan(e, p, false)
	if !out.UsedBA {
		t.Error("RA failure did not trigger BA")
	}
	if out.FinalMCS != 4 || !out.FinalOnBestBeam {
		t.Errorf("final = %v", out.FinalMCS)
	}
	// Delay: 5 dead probes (MCS4..0) + BA + 1 probe.
	want := 5*p.FAT + p.BAOverhead + 1*p.FAT
	if out.RecoveryDelay != want {
		t.Errorf("delay = %v, want %v", out.RecoveryDelay, want)
	}
}

func TestRunPlanUnrecoverable(t *testing.T) {
	e := &dataset.Entry{InitMCS: 4}
	p := stdParams()
	out := runPlan(e, p, false)
	if out.Bytes != 0 {
		t.Errorf("dead link delivered %v bytes", out.Bytes)
	}
	if out.RecoveryDelay != core.Dmax(p.Config()) {
		t.Errorf("delay = %v, want Dmax", out.RecoveryDelay)
	}
}

// TestBytesCappedByFlowDuration: with the flow shorter than one beam
// training, bytes stop counting at the flow end while the recovery delay
// still reflects the full recovery, whichever plan recovers.
func TestBytesCappedByFlowDuration(t *testing.T) {
	p := stdParams()
	p.FlowDur = 4 * time.Millisecond // below BAOverhead: the flow ends mid-recovery
	deadInit := handEntry()
	deadInit.InitBeamTh = thTable{}
	cases := []struct {
		name    string
		e       *dataset.Entry
		baFirst bool
		delay   time.Duration
	}{
		// MCS4 and MCS3 are dead on the initial beam; MCS2 works on the
		// third probe.
		{"RA First", handEntry(), false, 3 * p.FAT},
		// One training, then MCS4 works on the best beam's first probe.
		{"BA First", handEntry(), true, p.BAOverhead + p.FAT},
		// Five dead probes (MCS4..0), the training, one probe.
		{"RA to BA fallback", deadInit, false, 5*p.FAT + p.BAOverhead + p.FAT},
	}
	maxBytes := 2e9 * p.FlowDur.Seconds() / 8
	for _, tc := range cases {
		out := runPlan(tc.e, p, tc.baFirst)
		if out.Bytes > maxBytes {
			t.Errorf("%s: bytes %v exceed flow capacity %v", tc.name, out.Bytes, maxBytes)
		}
		if out.RecoveryDelay != tc.delay {
			t.Errorf("%s: delay = %v, want %v", tc.name, out.RecoveryDelay, tc.delay)
		}
	}
}

func TestOracleDataDominates(t *testing.T) {
	e := handEntry()
	p := stdParams()
	oracle := entryRun(t, e, Options{Params: p, Policy: OracleData})
	ba := entryRun(t, e, Options{Params: p, Policy: BAFirst})
	ra := entryRun(t, e, Options{Params: p, Policy: RAFirst})
	if oracle.Bytes < ba.Bytes || oracle.Bytes < ra.Bytes {
		t.Errorf("oracle %v below policies %v/%v", oracle.Bytes, ba.Bytes, ra.Bytes)
	}
}

func TestOracleDelayDominates(t *testing.T) {
	e := handEntry()
	p := stdParams()
	oracle := entryRun(t, e, Options{Params: p, Policy: OracleDelay})
	ba := entryRun(t, e, Options{Params: p, Policy: BAFirst})
	ra := entryRun(t, e, Options{Params: p, Policy: RAFirst})
	if oracle.RecoveryDelay > ba.RecoveryDelay || oracle.RecoveryDelay > ra.RecoveryDelay {
		t.Errorf("oracle delay %v above policies %v/%v", oracle.RecoveryDelay, ba.RecoveryDelay, ra.RecoveryDelay)
	}
}

// fixedClassifier always answers the same action.
type fixedClassifier struct{ a dataset.Action }

func (f fixedClassifier) Classify([]float64) dataset.Action { return f.a }
func (f fixedClassifier) Name() string                      { return "fixed" }

func TestLiBRAFollowsClassifier(t *testing.T) {
	e := handEntry()
	p := stdParams()
	asBA := entryRun(t, e, Options{Params: p, Policy: LiBRA, Classifier: fixedClassifier{dataset.ActBA}})
	wantBA := entryRun(t, e, Options{Params: p, Policy: BAFirst})
	if asBA.Bytes != wantBA.Bytes || asBA.RecoveryDelay != wantBA.RecoveryDelay {
		t.Error("LiBRA(BA) differs from BA First")
	}
	asRA := entryRun(t, e, Options{Params: p, Policy: LiBRA, Classifier: fixedClassifier{dataset.ActRA}})
	wantRA := entryRun(t, e, Options{Params: p, Policy: RAFirst})
	if asRA.Bytes != wantRA.Bytes {
		t.Error("LiBRA(RA) differs from RA First")
	}
}

// TestLiBRANAPenalty: an NA misprediction on a broken link loses one
// observation window before the missing-ACK fallback runs, so it costs both
// delay and bytes against a direct verdict for that fallback, under the Tx-
// and the Rx-initiated design alike.
func TestLiBRANAPenalty(t *testing.T) {
	e := handEntry()
	p := stdParams()
	fallback := core.MissingACKAction(e.InitMCS, p.Config())
	for _, v := range []Variant{VariantStandard, VariantRxInitiated} {
		na := entryRun(t, e, Options{Params: p, Policy: LiBRA, Variant: v, Classifier: fixedClassifier{dataset.ActNA}})
		direct := entryRun(t, e, Options{Params: p, Policy: LiBRA, Variant: v, Classifier: fixedClassifier{fallback}})
		if want := direct.RecoveryDelay + naPenalty(p); na.RecoveryDelay != want {
			t.Errorf("%v: NA delay %v, want %v", v, na.RecoveryDelay, want)
		}
		if na.Bytes >= direct.Bytes {
			t.Errorf("%v: NA delivered %v bytes, a direct %v verdict %v", v, na.Bytes, fallback, direct.Bytes)
		}
	}
}

func TestLiBRAMissingACKPath(t *testing.T) {
	e := handEntry()
	e.Features[5] = 0   // no CDR observed
	e.InitBeamTh[4] = 0 // and the current MCS is dead
	e.InitBeamTh[2] = 1e9
	p := stdParams()
	p.BAOverhead = 500 * time.Microsecond // cheap BA: missing-ACK rule says BA
	got := entryRun(t, e, Options{Params: p, Policy: LiBRA, Classifier: fixedClassifier{dataset.ActRA}})
	want := entryRun(t, e, Options{Params: p, Policy: BAFirst})
	if got.Bytes != want.Bytes {
		t.Error("missing-ACK rule not applied (classifier should be bypassed)")
	}
}

func TestPolicyStrings(t *testing.T) {
	names := map[Policy]string{
		LiBRA: "LiBRA", BAFirst: "BA First", RAFirst: "RA First",
		OracleData: "Oracle-Data", OracleDelay: "Oracle-Delay",
	}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("%d String = %q", p, p.String())
		}
	}
	if Policy(99).String() != "unknown" {
		t.Error("unknown policy string")
	}
}

func TestParamsConfig(t *testing.T) {
	p := Params{BAOverhead: 250 * time.Millisecond, FAT: 10 * time.Millisecond}
	cfg := p.Config()
	if cfg.Alpha != 0.5 {
		t.Errorf("high-overhead alpha = %v", cfg.Alpha)
	}
	if cfg.BAOverhead != p.BAOverhead || cfg.FAT != p.FAT {
		t.Error("params not propagated")
	}
}

func TestGridConstants(t *testing.T) {
	if len(BAOverheads) != 4 || len(FATs) != 2 || len(FlowDurs) != 2 {
		t.Error("evaluation grid changed (§8.1 uses 4 BA overheads, 2 FATs, 2 flows)")
	}
}

func TestGridMatchesStandardOverheadModels(t *testing.T) {
	// §8.1 derives the four BA overheads from standard timing models: the
	// O(N) quasi-omni SLS at 30 and 3 degree beamwidths, and the O(N^2)
	// directional search at 9 and 7 degrees. The grid constants must stay
	// within 50% of the first-principles models in internal/ad.
	models := []time.Duration{
		ad.SLSOverhead(30), ad.SLSOverhead(3),
		ad.ExhaustiveOverhead(9), ad.ExhaustiveOverhead(7),
	}
	for i, want := range models {
		got := BAOverheads[i]
		ratio := float64(got) / float64(want)
		if ratio < 0.5 || ratio > 2 {
			t.Errorf("BAOverheads[%d] = %v, standard model gives %v", i, got, want)
		}
	}
}

func TestRxInitiatedCostsSignaling(t *testing.T) {
	e := handEntry()
	p := stdParams()
	tx := entryRun(t, e, Options{Params: p, Policy: LiBRA, Classifier: fixedClassifier{dataset.ActBA}})
	rx := entryRun(t, e, Options{Params: p, Variant: VariantRxInitiated, Classifier: fixedClassifier{dataset.ActBA}})
	if rx.RecoveryDelay != tx.RecoveryDelay+RxSignalOverhead {
		t.Errorf("rx delay %v, tx delay %v: signaling not charged", rx.RecoveryDelay, tx.RecoveryDelay)
	}
	if rx.Bytes >= tx.Bytes {
		t.Error("signaling airtime should cost bytes")
	}
}

func TestRxInitiatedSkipsMissingACKRule(t *testing.T) {
	// The Rx always has metrics, so the classifier decides even when the
	// Tx-side would have been blind (CDR 0).
	e := handEntry()
	e.Features[5] = 0
	e.InitBeamTh = thTable{}
	e.InitBeamTh[2] = 1e9 // RA can still work on the init beam at MCS2
	p := stdParams()
	p.BAOverhead = 250 * time.Millisecond
	// Tx-initiated with a missing ACK and high MCS + costly BA: RA rule.
	// Rx-initiated obeys the classifier saying BA.
	rx := entryRun(t, e, Options{Params: p, Variant: VariantRxInitiated, Classifier: fixedClassifier{dataset.ActBA}})
	if !rx.UsedBA {
		t.Error("Rx-initiated ignored the classifier")
	}
}

// TestValidateRefusesPolicies: Validate refuses a policy outside the defined
// set, which Run used to replay as LiBRA, and LiBRA without a classifier,
// which panicked at the first break the classifier was to decide.
func TestValidateRefusesPolicies(t *testing.T) {
	sc := Scenario{Entry: handEntry()}
	for _, tc := range []struct {
		name, want string
		opt        Options
	}{
		{"undefined policy", "unknown policy", Options{Params: stdParams(), Policy: OracleDelay + 1, Classifier: fixedClassifier{dataset.ActBA}}},
		{"LiBRA without a classifier", "Classifier", Options{Params: stdParams(), Policy: LiBRA}},
	} {
		if err := Validate(sc, tc.opt); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate error %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}

// TestFlowShorterThanLostTimeDeliversNoNegativeBytes: a flow that ends
// inside the NA misprediction's lost window delivers the degraded rate over
// the flow alone (it used to credit the whole window, and could go
// negative), and one that ends inside the Rx-initiated signaling exchange
// delivers nothing (it used to go negative).
func TestFlowShorterThanLostTimeDeliversNoNegativeBytes(t *testing.T) {
	e := handEntry()
	e.InitBeamTh[e.InitMCS] = 1e8 // broken, but still delivering
	p := stdParams()
	p.FlowDur = naPenalty(p) / 2
	na := entryRun(t, e, Options{Params: p, Policy: LiBRA, Classifier: fixedClassifier{dataset.ActNA}})
	if want := e.InitBeamTh[e.InitMCS] * p.FlowDur.Seconds() / 8; na.Bytes != want {
		t.Errorf("NA verdict on a %v flow delivered %v bytes, want %v", p.FlowDur, na.Bytes, want)
	}
	p.FlowDur = RxSignalOverhead / 2
	rx := entryRun(t, e, Options{Params: p, Variant: VariantRxInitiated, Classifier: fixedClassifier{dataset.ActRA}})
	if rx.Bytes != 0 {
		t.Errorf("Rx-initiated run of a %v flow delivered %v bytes, want 0", p.FlowDur, rx.Bytes)
	}
}
