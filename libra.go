// Package libra is a simulation-backed reproduction of LiBRA, the
// learning-based link adaptation framework for 60 GHz WLANs of Aggarwal et
// al. (CoNEXT 2020). It bundles:
//
//   - a geometric 60 GHz indoor channel simulator (image-method ray tracing,
//     phased-array codebooks with imperfect side lobes, human blockage,
//     co-channel interference) standing in for the paper's X60 testbed;
//   - the X60-style PHY and TDMA MAC (9 single-carrier MCSs, 300 Mbps to
//     4.75 Gbps, per-codeword CRC, Block ACK);
//   - standard-compliant beam adaptation (sector level sweeps) and rate
//     adaptation (frame-based downward probing) algorithms;
//   - a from-scratch ML toolbox (decision trees, random forests, SVM, DNN)
//     with stratified cross-validation;
//   - the measurement-campaign emulation that regenerates the paper's
//     datasets (Tables 1-2) with features and ground truth per §5;
//   - LiBRA itself (Algorithm 1) plus the BA-First/RA-First heuristics and
//     the Oracle-Data/Oracle-Delay baselines;
//   - the full §8 trace-driven evaluation harness (Figs 10-13, Table 4).
//
// The package root re-exports the main entry points; the implementation
// lives in focused packages under internal/.
package libra

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"github.com/libra-wlan/libra/internal/adapt"
	"github.com/libra-wlan/libra/internal/channel"
	"github.com/libra-wlan/libra/internal/core"
	"github.com/libra-wlan/libra/internal/dataset"
	"github.com/libra-wlan/libra/internal/env"
	"github.com/libra-wlan/libra/internal/experiments"
	"github.com/libra-wlan/libra/internal/geom"
	"github.com/libra-wlan/libra/internal/mac"
	"github.com/libra-wlan/libra/internal/phased"
	"github.com/libra-wlan/libra/internal/phy"
	"github.com/libra-wlan/libra/internal/predict"
	"github.com/libra-wlan/libra/internal/sim"
	"github.com/libra-wlan/libra/internal/sim/engine"
	"github.com/libra-wlan/libra/internal/trace"
	"github.com/libra-wlan/libra/internal/vr"
)

// Geometry and environments.
type (
	// Vec is a 2-D point in meters.
	Vec = geom.Vec
	// Environment is an indoor floor plan with reflective walls.
	Environment = env.Environment
)

// V constructs a Vec.
func V(x, y float64) Vec { return geom.V(x, y) }

// Environment constructors (Appendix A.2).
var (
	Lobby          = env.Lobby
	Lab            = env.Lab
	ConferenceRoom = env.ConferenceRoom
	NarrowCorridor = env.NarrowCorridor
	MediumCorridor = env.MediumCorridor
	WideCorridor   = env.WideCorridor
	Building1      = env.Building1
	Building2      = env.Building2
)

// Channel and PHY.
type (
	// Link is a simulated 60 GHz Tx-Rx pair.
	Link = channel.Link
	// Measurement is one PHY-layer observation (SNR, noise, ToF, PDP).
	Measurement = channel.Measurement
	// Blocker is a human blocker on the floor plan.
	Blocker = channel.Blocker
	// Interferer is a co-channel hidden terminal.
	Interferer = channel.Interferer
	// Array is a 25-beam phased antenna array.
	Array = phased.Array
	// MCS is a modulation and coding scheme index (0-8).
	MCS = phy.MCS
	// Station is a MAC-layer transmitter on a link.
	Station = mac.Station
)

// NewArray builds a phased array at pos with the given mechanical
// orientation (degrees) and a deterministic, seed-perturbed codebook.
func NewArray(pos Vec, orientDeg float64, seed int64) *Array {
	return phased.NewArray(pos, orientDeg, seed)
}

// NewLink builds a link between two arrays in an environment.
func NewLink(e *Environment, tx, rx *Array) *Link { return channel.NewLink(e, tx, rx) }

// NewStation builds a MAC transmitter on a link.
func NewStation(l *Link, rng *rand.Rand) *Station { return mac.NewStation(l, rng) }

// Adaptation mechanisms.
type (
	// BeamAdapter trains beams (BA).
	BeamAdapter = adapt.BeamAdapter
	// RateAdapter searches rates (RA).
	RateAdapter = adapt.RateAdapter
	// ExhaustiveSLS is the O(N^2) ground-truth sweep.
	ExhaustiveSLS = adapt.ExhaustiveSLS
	// StandardSLS is the 802.11ad O(N) two-phase sweep.
	StandardSLS = adapt.StandardSLS
	// TxOnlySLS is the COTS Tx-only sweep with quasi-omni reception.
	TxOnlySLS = adapt.TxOnlySLS
	// ProbeDownRA is the paper's frame-based downward rate search.
	ProbeDownRA = adapt.ProbeDownRA
)

// Datasets and labels.
type (
	// Campaign is a generated measurement campaign (dataset + positions).
	Campaign = dataset.Campaign
	// Entry is one labeled dataset sample.
	Entry = dataset.Entry
	// Action is an adaptation decision: BA, RA, or NA.
	Action = dataset.Action
)

// Adaptation actions.
const (
	ActBA = dataset.ActBA
	ActRA = dataset.ActRA
	ActNA = dataset.ActNA
)

// GenerateMainDataset reproduces the main/training campaign (Table 1:
// 668 labeled cases plus NA augmentation).
func GenerateMainDataset(seed int64) *Campaign { return dataset.GenerateMain(seed) }

// GenerateTestDataset reproduces the two-building testing campaign
// (Table 2: 228 labeled cases plus NA augmentation).
func GenerateTestDataset(seed int64) *Campaign { return dataset.GenerateTest(seed) }

// GenerateMainDatasetContext is GenerateMainDataset with cooperative
// cancellation at campaign-shard boundaries: a canceled ctx stops the
// parallel spec fan-out and returns ctx's error. A completed campaign is
// byte-identical to GenerateMainDataset's for the same seed.
func GenerateMainDatasetContext(ctx context.Context, seed int64) (*Campaign, error) {
	return dataset.GenerateMainContext(ctx, seed)
}

// GenerateTestDatasetContext is GenerateTestDataset with cooperative
// cancellation at campaign-shard boundaries; see GenerateMainDatasetContext.
func GenerateTestDatasetContext(ctx context.Context, seed int64) (*Campaign, error) {
	return dataset.GenerateTestContext(ctx, seed)
}

// LiBRA core.
type (
	// Config holds LiBRA's protocol parameters (§8.1).
	Config = core.Config
	// Classifier maps PHY features to an adaptation action.
	Classifier = core.Classifier
	// Controller is the online Algorithm 1 state machine.
	Controller = core.Controller
)

// DefaultConfig returns the paper's default parameterization.
func DefaultConfig() Config { return core.DefaultConfig() }

// TrainClassifier trains the production 3-class random forest on a campaign.
func TrainClassifier(c *Campaign, seed int64) (Classifier, error) {
	return core.TrainDefaultClassifier(c, seed)
}

// NewController assembles the online LiBRA controller on a station.
func NewController(st *Station, clf Classifier, cfg Config) *Controller {
	return core.NewController(st, clf, cfg)
}

// Trace-driven evaluation (§8).
type (
	// Policy identifies an adaptation policy under evaluation.
	Policy = sim.Policy
	// Params is one evaluation grid cell (BA overhead, FAT, flow length).
	Params = sim.Params
	// Outcome is a single-break policy result.
	Outcome = sim.Outcome
	// TimelineResult is a multi-impairment run result.
	TimelineResult = sim.TimelineResult
	// Timeline is a multi-segment channel scenario.
	Timeline = trace.Timeline
	// ScenarioPools pre-generates timeline channel states.
	ScenarioPools = trace.Pools
	// Scenario is the input of one unified policy run: exactly one of an
	// entry (single break) or a timeline (multi-impairment) is set.
	Scenario = sim.Scenario
	// RunOptions carries the parameters, policy, classifier and protocol
	// variant of a unified policy run.
	RunOptions = sim.Options
	// RunResult is the output of Run: Outcome for entry scenarios,
	// Timeline for timeline scenarios.
	RunResult = sim.Result
	// Variant selects a protocol-design ablation (standard Tx-initiated,
	// failover-beam, or Rx-initiated).
	Variant = sim.Variant
)

// Protocol-design variants for RunOptions.Variant.
const (
	VariantStandard    = sim.VariantStandard
	VariantFailover    = sim.VariantFailover
	VariantRxInitiated = sim.VariantRxInitiated
)

// Run executes one scenario under one set of options: the single entry point
// for every policy run, whether a dataset entry's link break under any
// protocol variant or a multi-impairment timeline. Timeline runs check ctx at
// every segment boundary; a canceled ctx returns its error and a zero
// result, while a completed run never depends on ctx.
func Run(ctx context.Context, sc Scenario, opt RunOptions) (RunResult, error) {
	return sim.Run(ctx, sc, opt)
}

// Evaluation policies.
const (
	PolicyLiBRA       = sim.LiBRA
	PolicyBAFirst     = sim.BAFirst
	PolicyRAFirst     = sim.RAFirst
	PolicyOracleData  = sim.OracleData
	PolicyOracleDelay = sim.OracleDelay
)

// NewScenarioPools builds the §8.3 timeline state pools.
func NewScenarioPools(seed int64) *ScenarioPools { return trace.NewPools(seed) }

// VR case study (§8.4).
type (
	// FrameTrace is a constant-FPS encoded video trace.
	FrameTrace = vr.FrameTrace
	// PlaybackResult holds VR stall statistics.
	PlaybackResult = vr.PlaybackResult
)

// VikingVillage synthesizes the §8.4 8K 60 FPS scene trace.
var VikingVillage = vr.VikingVillage

// PlayVR streams a frame trace over a delivered-rate profile.
var PlayVR = vr.Play

// Experiments.
type (
	// Suite shares generated campaigns and trained models across
	// experiment runs.
	Suite = experiments.Suite
)

// NewSuite creates an experiment suite with the given seed.
func NewSuite(seed int64) *Suite { return experiments.NewSuite(seed) }

// Model persistence: the §7 deployment story is offline training by the
// vendor, then shipping the fitted model. The on-disk format is versioned
// and serialization-stable — a one-line "libra-model v2 random-forest"
// header followed by the model body; saving a loaded model reproduces the
// input bytes, and the legacy headerless v1 format still loads. libra-train
// -o writes this format and libra-serve -model consumes it.

// SaveClassifier writes a trained classifier (random forest) to w in the
// versioned libra-model format.
func SaveClassifier(c Classifier, w io.Writer) error {
	mc, ok := c.(*core.MLClassifier)
	if !ok {
		return fmt.Errorf("libra: only trained ML classifiers serialize (got %s)", c.Name())
	}
	return core.SaveClassifier(mc, w)
}

// LoadClassifier reads a classifier written by SaveClassifier (either the
// current headered format or the legacy bare-JSON v1 format).
func LoadClassifier(r io.Reader) (Classifier, error) {
	return core.LoadClassifier(r)
}

// MarkovPredictor learns per-break action patterns (§7 future work), an
// extension beyond the paper's evaluation.
type MarkovPredictor = predict.MarkovPredictor

// NewMarkovPredictor creates an order-k link-pattern predictor.
func NewMarkovPredictor(order int) *MarkovPredictor { return predict.NewMarkovPredictor(order) }

// Multi-AP discrete-event engine.
type (
	// EngineSpec declares a multi-AP scenario: deployment size, topology,
	// adaptation parameters, contention/interference/impairment knobs.
	EngineSpec = engine.Spec
	// EngineScenario is the immutable precomputed form of an EngineSpec
	// (ray-traced snapshots, interference penalties); build once, run many.
	EngineScenario = engine.Scenario
	// Engine runs an EngineScenario deterministically: event traces and
	// the scenario digest are byte-identical for any worker count.
	Engine = engine.Engine
	// EngineResult is a completed engine run (per-station results,
	// aggregate counters, the scenario digest).
	EngineResult = engine.Result
	// StationResult is one station's engine-run summary.
	StationResult = engine.StationResult
)

// BuildScenario validates and precomputes a multi-AP scenario — the
// expensive ray-tracing step, run once per spec.
func BuildScenario(spec EngineSpec) (*EngineScenario, error) { return engine.Build(spec) }

// NewEngine creates a deterministic multi-AP engine over a built scenario
// with the given worker count (<=0 picks GOMAXPROCS). Workers change wall
// time only, never results.
func NewEngine(sc *EngineScenario, workers int) *Engine { return engine.New(sc, workers) }
