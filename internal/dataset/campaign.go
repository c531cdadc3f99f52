package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"github.com/libra-wlan/libra/internal/channel"
	"github.com/libra-wlan/libra/internal/env"
	"github.com/libra-wlan/libra/internal/geom"
	"github.com/libra-wlan/libra/internal/obs"
	"github.com/libra-wlan/libra/internal/phased"
	"github.com/libra-wlan/libra/internal/phy"
)

// Site records one measured (environment, position) pair so that the
// position counts of Tables 1 and 2 can be reproduced.
type Site struct {
	Env        string
	Impairment Impairment
	PosID      int
}

// Campaign is a dataset plus its site registry.
type Campaign struct {
	Dataset
	Sites []Site
}

// SiteCount returns the number of distinct measurement positions for an
// impairment type, optionally restricted to an environment name prefix.
// Pass im < 0 for all impairment types.
func (c *Campaign) SiteCount(im Impairment, envPrefix string) int {
	seen := map[Site]bool{}
	for _, s := range c.Sites {
		if im >= 0 && s.Impairment != im {
			continue
		}
		if envPrefix != "" && !strings.HasPrefix(s.Env, envPrefix) {
			continue
		}
		seen[s] = true
	}
	return len(seen)
}

// Check validates structural invariants of a (possibly deserialized)
// campaign: every entry present, its MCS, label and impairment in range,
// every feature and every replayed SNR and throughput finite, the CDR in
// [0,1], and every site impairment in range.
func (c *Campaign) Check() error {
	for i, e := range c.Entries {
		if e == nil {
			return fmt.Errorf("dataset: entry %d is nil", i)
		}
		if !e.InitMCS.Valid() {
			return fmt.Errorf("dataset: entry %d has invalid MCS %d", i, e.InitMCS)
		}
		if e.Label < ActBA || e.Label > ActNA {
			return fmt.Errorf("dataset: entry %d has invalid label %d", i, e.Label)
		}
		for f, v := range e.Features {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("dataset: entry %d has non-finite %s feature %v", i, FeatureNames[f], v)
			}
		}
		if cdr := e.Features[5]; !(cdr >= 0 && cdr <= 1) {
			return fmt.Errorf("dataset: entry %d has CDR %v outside [0,1]", i, cdr)
		}
		if err := checkReplay(i, e); err != nil {
			return err
		}
		if e.Impairment < Displacement || e.Impairment > NoImpairment {
			return fmt.Errorf("dataset: entry %d has invalid impairment %d", i, e.Impairment)
		}
	}
	for i, s := range c.Sites {
		if s.Impairment < Displacement || s.Impairment > NoImpairment {
			return fmt.Errorf("dataset: site %d has invalid impairment %d", i, s.Impairment)
		}
	}
	return nil
}

// checkReplay refuses a NaN or ±Inf in the SNR and throughput fields the
// policy simulator replays from entry i, naming the field.
func checkReplay(i int, e *Entry) error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"InitSNRdB", e.InitSNRdB},
		{"NewSNRInitPair", e.NewSNRInitPair},
		{"NewSNRBestPair", e.NewSNRBestPair},
		{"InitThBps", e.InitThBps},
		{"ThRABps", e.ThRABps},
		{"ThBABps", e.ThBABps},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("dataset: entry %d has non-finite %s %v", i, f.name, f.v)
		}
	}
	for m := range e.InitBeamTh {
		if v := e.InitBeamTh[m]; math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("dataset: entry %d has non-finite InitBeamTh[%d] %v", i, m, v)
		}
		if v := e.BestBeamTh[m]; math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("dataset: entry %d has non-finite BestBeamTh[%d] %v", i, m, v)
		}
	}
	return nil
}

// pose is an Rx position and mechanical orientation.
type pose struct {
	pos    geom.Vec
	orient float64
}

// rotationAngles are the sweep offsets of §4.2: 0 to -90 and 0 to +90 in
// steps of 15 degrees.
var rotationAngles = []float64{15, -15, 30, -30, 45, -45, 60, -60, 75, -75, 90, -90}

// displacementSpec describes a displacement scenario in one environment.
type displacementSpec struct {
	envFn    func() *env.Environment
	txPos    geom.Vec
	txOrient float64
	initial  pose
	moves    []pose
	// rotIdx indexes into moves: positions where a rotation sweep was
	// performed.
	rotIdx []int
	// extraAngles adds angles beyond the standard sweep at given move
	// indices (a denser sweep at one position).
	extraAngles map[int][]float64
	// dropLast discards the last N rotation entries (unmeasurable states
	// dropped from the campaign, keeping Table 1 totals exact).
	dropLast int
	// blockIdx indexes into moves: positions reused for blockage and
	// interference scenarios. trials[i] gives the number of blockage
	// trials at blockIdx[i].
	blockIdx []int
	trials   []int
}

// generator accumulates one spec's sub-campaign. Each spec gets its own
// generator (and RNG stream), so specs can run on any worker in any order
// and still produce identical output (see campaignDef.generate in
// parallel.go).
type generator struct {
	rng      *rand.Rand
	building string
	// entries and sites accumulate the spec's samples and measured
	// positions; the merge copies them in spec order into the campaign.
	entries []Entry
	sites   []Site
	posSeq  map[string]int
	// trace is the spec's simulation-time stream (nil-safe when tracing is
	// off); frame is the per-generator observation index used as its stamp.
	trace *obs.Stream
	frame int64
	// Scratch measurements recycled across entries: the re-measurement on
	// the initial pair, the two drift-perturbed observation windows, and the
	// NA twin's ground truth. Their PDP backing arrays are reused by
	// MeasureInto/perturbInto, so steady-state collection allocates nothing
	// per sample.
	mNew, mPertA, mPertB, mNA channel.Measurement
}

func newGenerator(seed int64, building string) *generator {
	return &generator{
		rng:      rand.New(rand.NewSource(seed)),
		building: building,
		posSeq:   map[string]int{},
	}
}

// nextPos allocates a position ID within an environment.
func (g *generator) nextPos(envName string) int {
	id := g.posSeq[envName]
	g.posSeq[envName] = id + 1
	return id
}

// site registers a measured position.
func (g *generator) site(envName string, im Impairment, posID int) {
	g.sites = append(g.sites, Site{Env: envName, Impairment: im, PosID: posID})
}

// initState is the reference state against which new states are compared.
type initState struct {
	txBeam, rxBeam int
	meas           channel.Measurement
	snrDB          float64
	mcs            phy.MCS
	thBps          float64
	posID          int
}

// measureInit performs the ground-truth SLS and per-pair trace collection at
// the current link state.
func measureInit(l *channel.Link, posID int) *initState {
	t, r, snr := l.BestPair()
	m := l.Measure(t, r)
	mcs, th := phy.BestMCS(snr)
	return &initState{txBeam: t, rxBeam: r, meas: m, snrDB: snr, mcs: mcs, thBps: th, posID: posID}
}

// collect builds one labeled entry for the link's *current* (impaired) state
// against the given initial state, and its NA augmentation twin, and appends
// both to the generator's entries. The measurements run through the
// generator's scratch Measurements. The RNG draw order (perturb init window,
// perturb new window, CDR sample) is the contract the campaign digests pin.
func (g *generator) collect(l *channel.Link, init *initState, envName string, im Impairment, posID int) {
	l.MeasureInto(&g.mNew, init.txBeam, init.rxBeam)
	_, _, bestSNR := l.BestPair()

	e := Entry{
		Env:            envName,
		Building:       g.building,
		Impairment:     im,
		PosID:          posID,
		InitMCS:        init.mcs,
		InitSNRdB:      init.snrDB,
		NewSNRInitPair: g.mNew.SNRdB,
		NewSNRBestPair: bestSNR,
		InitThBps:      init.thBps,
	}
	perturbInto(&g.mPertA, &init.meas, defaultDrift, g.rng)
	perturbInto(&g.mPertB, &g.mNew, defaultDrift, g.rng)
	e.Features = Featurize(g.mPertA, g.mPertB, init.mcs, g.rng)
	groundTruth(&e)
	g.entries = append(g.entries, e)
	obsCampEntries.Add(2) // the entry plus its NA twin below
	if g.trace.Enabled() {
		t := obs.SimTime{Frame: g.frame}
		g.trace.Event(t, "label",
			obs.F("label", e.Label.String()),
			obs.Fint("imp", int64(im)), obs.Fint("pos", int64(posID)))
		if e.Label == ActBA {
			g.trace.Event(t, "rebeam", obs.Ffloat("snr_best_db", bestSNR))
		}
	}
	g.frame++

	// NA augmentation (§7): the best beam pair and MCS at the new state,
	// observed over two consecutive windows with only environmental drift.
	// BestPair is a cache hit (collect just computed it at this state), so
	// the twin costs one measurement into scratch.
	naT, naR, naSNR := l.BestPair()
	l.MeasureInto(&g.mNA, naT, naR)
	naMCS, naTh := phy.BestMCS(naSNR)
	na := Entry{
		Env:            envName,
		Building:       g.building,
		Impairment:     NoImpairment,
		PosID:          posID,
		InitMCS:        naMCS,
		InitSNRdB:      naSNR,
		NewSNRInitPair: naSNR,
		NewSNRBestPair: naSNR,
		InitThBps:      naTh,
		Label:          ActNA,
	}
	perturbInto(&g.mPertA, &g.mNA, defaultDrift, g.rng)
	perturbInto(&g.mPertB, &g.mNA, defaultDrift, g.rng)
	na.Features = Featurize(g.mPertA, g.mPertB, naMCS, g.rng)
	for m := phy.MinMCS; m <= phy.MaxMCS; m++ {
		na.InitBeamTh[m] = phy.ExpectedThroughput(m, naSNR)
		na.BestBeamTh[m] = na.InitBeamTh[m]
	}
	na.ThRABps = naTh
	na.ThBABps = naTh
	g.entries = append(g.entries, na)
}

// newLink builds the link for a spec with deterministic array codebooks.
func (g *generator) newLink(spec *displacementSpec, e *env.Environment, txSeed int64) *channel.Link {
	tx := phased.NewArray(spec.txPos, spec.txOrient, txSeed)
	rx := phased.NewArray(spec.initial.pos, spec.initial.orient, txSeed+101)
	return channel.NewLink(e, tx, rx)
}

// runDisplacement generates the displacement entries of one spec.
func (g *generator) runDisplacement(spec *displacementSpec, txSeed int64) {
	e := spec.envFn()
	l := g.newLink(spec, e, txSeed)

	initPos := g.nextPos(e.Name)
	g.site(e.Name, Displacement, initPos)
	init := measureInit(l, initPos)

	moveIDs := make([]int, len(spec.moves))
	for i, mv := range spec.moves {
		l.MoveRx(mv.pos)
		l.RotateRx(mv.orient)
		id := g.nextPos(e.Name)
		moveIDs[i] = id
		g.site(e.Name, Displacement, id)
		g.collect(l, init, e.Name, Displacement, id)
	}

	// Rotation sweeps: the 0-degree pose at the position is the initial
	// state (§5.1).
	type rotEntry struct {
		base  int
		angle float64
	}
	var sweeps []rotEntry
	for _, bi := range spec.rotIdx {
		for _, a := range rotationAngles {
			sweeps = append(sweeps, rotEntry{base: bi, angle: a})
		}
		for _, a := range spec.extraAngles[bi] {
			sweeps = append(sweeps, rotEntry{base: bi, angle: a})
		}
	}
	if spec.dropLast > 0 && spec.dropLast < len(sweeps) {
		sweeps = sweeps[:len(sweeps)-spec.dropLast]
	}
	rotInit := map[int]*initState{}
	for _, s := range sweeps {
		base := spec.moves[s.base]
		ri, ok := rotInit[s.base]
		if !ok {
			l.MoveRx(base.pos)
			l.RotateRx(base.orient)
			ri = measureInit(l, moveIDs[s.base])
			rotInit[s.base] = ri
		}
		l.MoveRx(base.pos)
		l.RotateRx(base.orient + s.angle)
		g.collect(l, ri, e.Name, Displacement, moveIDs[s.base])
	}
}

// blockageVariants are blocker placements along the LOS: (fraction along the
// Tx->Rx line, lateral offset in meters). Offsets produce partial blockage.
var blockageVariants = [][2]float64{
	{0.5, 0}, {0.15, 0}, {0.85, 0},
	{0.5, 0.10}, {0.5, -0.10}, {0.15, 0.12}, {0.85, -0.20},
}

// runBlockage generates blockage entries at the spec's block positions.
func (g *generator) runBlockage(spec *displacementSpec, txSeed int64) {
	e := spec.envFn()
	l := g.newLink(spec, e, txSeed)
	for k, bi := range spec.blockIdx {
		mv := spec.moves[bi]
		l.SetBlockers(nil)
		l.MoveRx(mv.pos)
		l.RotateRx(mv.orient)
		posID := g.nextPos(e.Name)
		g.site(e.Name, Blockage, posID)
		init := measureInit(l, posID)

		trials := 7
		if k < len(spec.trials) {
			trials = spec.trials[k]
		}
		txp := l.Tx.Pos
		for v := 0; v < trials && v < len(blockageVariants); v++ {
			frac, off := blockageVariants[v][0], blockageVariants[v][1]
			los := mv.pos.Sub(txp)
			at := txp.Add(los.Scale(frac))
			lat := geom.Vec{X: -los.Y, Y: los.X}.Norm().Scale(off)
			l.SetBlockers([]channel.Blocker{channel.DefaultBlocker(at.Add(lat))})
			g.collect(l, init, e.Name, Blockage, posID)
		}
		l.SetBlockers(nil)
	}
}

// Interference level targets: high/medium/low throughput drops (§4.2).
var interferenceDrops = []float64{0.8, 0.5, 0.2}

// runInterference generates interference entries at the spec's block
// positions (the paper reuses the blockage locations).
func (g *generator) runInterference(spec *displacementSpec, txSeed int64) {
	e := spec.envFn()
	l := g.newLink(spec, e, txSeed)
	for _, bi := range spec.blockIdx {
		mv := spec.moves[bi]
		l.SetInterferers(nil)
		l.MoveRx(mv.pos)
		l.RotateRx(mv.orient)
		posID := g.nextPos(e.Name)
		g.site(e.Name, Interference, posID)
		init := measureInit(l, posID)

		for _, place := range interfererPlacements(e, mv.pos, l.Tx.Pos) {
			for _, drop := range interferenceDrops {
				eirp := calibrateInterferer(l, init, place, drop)
				l.SetInterferers([]channel.Interferer{{Pos: place, EIRPdBm: eirp, DutyCycle: 0.9}})
				g.collect(l, init, e.Name, Interference, posID)
			}
		}
		l.SetInterferers(nil)
	}
}

// interfererPlacements returns three hidden-terminal positions: two near the
// victim's own Tx bearing (a hidden AP deployed near the victim AP — its
// direct ray and wall reflections nearly coincide with the signal's, so no
// beam escapes it) and one off to the side (escapable by re-beaming).
func interfererPlacements(e *env.Environment, rxPos, txPos geom.Vec) []geom.Vec {
	d := txPos.Dist(rxPos)
	toTx := txPos.Sub(rxPos).Norm()
	side := geom.Vec{X: -toTx.Y, Y: toTx.X}
	cands := []geom.Vec{
		rxPos.Add(toTx.Scale(0.78 * d)).Add(side.Scale(0.3)),
		rxPos.Add(toTx.Scale(0.55 * d)).Add(side.Scale(-0.35)),
		rxPos.Add(side.Scale(2.2)).Add(toTx.Scale(0.8)),
	}
	out := make([]geom.Vec, 0, len(cands))
	for _, c := range cands {
		out = append(out, clampInto(e, c))
	}
	return out
}

// clampInto pulls a point inside the environment bounds with a margin.
func clampInto(e *env.Environment, p geom.Vec) geom.Vec {
	const m = 0.4
	if p.X < m {
		p.X = m
	}
	if p.X > e.Width-m {
		p.X = e.Width - m
	}
	if p.Y < m {
		p.Y = m
	}
	if p.Y > e.Height-m {
		p.Y = e.Height - m
	}
	return p
}

// calibrateInterferer binary-searches the interferer EIRP so that the best
// achievable throughput on the victim's current beam pair drops by
// approximately the target fraction — emulating how the paper tuned
// positions and sectors of the hidden terminal to create high, medium, and
// low interference levels. When the exact level is unreachable the closest
// achievable power is returned (the campaign always yields an entry).
func calibrateInterferer(l *channel.Link, init *initState, place geom.Vec, drop float64) (eirpDBm float64) {
	defer l.SetInterferers(nil)
	baseline := init.thBps
	if baseline <= 0 {
		return 0
	}
	target := baseline * (1 - drop)
	thAt := func(eirp float64) float64 {
		l.SetInterferers([]channel.Interferer{{Pos: place, EIRPdBm: eirp, DutyCycle: 0.9}})
		snr := l.SNRdB(init.txBeam, init.rxBeam)
		_, th := phy.BestMCS(snr)
		return th
	}
	lo, hi := -40.0, 70.0
	if thAt(hi) > target {
		return hi // closest achievable: even max power is too weak
	}
	if thAt(lo) < target {
		return lo
	}
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		if thAt(mid) > target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// run executes all three scenario types of one spec.
func (g *generator) run(spec *displacementSpec, txSeed int64) {
	g.runDisplacement(spec, txSeed)
	if len(spec.blockIdx) > 0 {
		g.runBlockage(spec, txSeed)
		g.runInterference(spec, txSeed)
	}
}
