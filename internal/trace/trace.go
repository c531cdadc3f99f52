// Package trace generates the multi-impairment scenario timelines of §8.3:
// sequences of 10 channel-state segments of random duration (300 ms - 3 s)
// drawn from four scenario types — Mobility, Blockage, Interference, and
// Mixed. Each segment is a frozen channel Snapshot, the in-memory equivalent
// of the 300-second PHY and throughput traces the paper collected per
// segment.
package trace

import (
	"math/rand"
	"time"

	"github.com/libra-wlan/libra/internal/channel"
	"github.com/libra-wlan/libra/internal/env"
	"github.com/libra-wlan/libra/internal/geom"
	"github.com/libra-wlan/libra/internal/phased"
)

// ScenarioKind is the timeline type of §8.3.
type ScenarioKind int

// Scenario kinds (Figs 12-13 groups).
const (
	Motion ScenarioKind = iota
	Blockage
	Interference
	Mixed
)

// Kinds lists all scenario kinds in display order.
var Kinds = []ScenarioKind{Motion, Blockage, Interference, Mixed}

// String returns the scenario name as the figures label it.
func (k ScenarioKind) String() string {
	switch k {
	case Motion:
		return "Motion"
	case Blockage:
		return "Blockage"
	case Interference:
		return "Interference"
	default:
		return "Mixed"
	}
}

// Segment is one channel state held for a duration.
type Segment struct {
	// Snap is the frozen channel state.
	Snap *channel.Snapshot
	// Dur is how long the state persists.
	Dur time.Duration
}

// Timeline is a sequence of segments of one scenario kind.
type Timeline struct {
	Kind     ScenarioKind
	Segments []Segment
}

// Duration returns the total timeline duration.
func (t *Timeline) Duration() time.Duration {
	var d time.Duration
	for _, s := range t.Segments {
		d += s.Dur
	}
	return d
}

// Pools holds pre-generated channel states per scenario kind, mirroring the
// paper's per-segment trace collection.
type Pools struct {
	motion       []*channel.Snapshot
	clear        []*channel.Snapshot
	blocked      []*channel.Snapshot
	interfered   []*channel.Snapshot
	clearPoses   []geom.Vec
	segmentCount int
}

// SegmentsPerTimeline is the number of segments per timeline (§8.3).
const SegmentsPerTimeline = 10

// NewPools builds the state pools in the lobby environment with a fixed Tx.
// The seed determines array codebooks and state geometry.
func NewPools(seed int64) *Pools {
	rng := rand.New(rand.NewSource(seed))
	e := env.Lobby()
	tx := phased.NewArray(geom.V(2, 4), 0, seed)
	rx := phased.NewArray(geom.V(5, 4), 180, seed+33)
	l := channel.NewLink(e, tx, rx)

	p := &Pools{segmentCount: SegmentsPerTimeline}

	// Mobility walk: a path away from and around the Tx with angular
	// displacement, like the walking client of §3 and §8.3.
	walk := []struct {
		pos    geom.Vec
		orient float64
	}{
		{geom.V(5, 4), 180}, {geom.V(6.8, 4), 180}, {geom.V(8.6, 4.6), 195},
		{geom.V(10.2, 5.4), 210}, {geom.V(11.6, 5.4), 180}, {geom.V(13.0, 4.6), 165},
		{geom.V(14.4, 4), 180}, {geom.V(15.6, 3.2), 150}, {geom.V(16.6, 2.6), 195},
		{geom.V(17.4, 2.2), 180}, {geom.V(16.2, 3.4), 210}, {geom.V(14.6, 4.2), 180},
	}
	for _, w := range walk {
		l.MoveRx(w.pos)
		l.RotateRx(w.orient)
		p.motion = append(p.motion, l.Snapshot())
	}

	// Clear / blocked / interfered states at a few anchor positions.
	anchors := []geom.Vec{geom.V(7, 4), geom.V(10, 4.5), geom.V(12.5, 3.5)}
	for _, a := range anchors {
		l.SetBlockers(nil)
		l.SetInterferers(nil)
		l.MoveRx(a)
		l.RotateRx(geom.Deg(tx.Pos.Sub(a).Angle()))
		p.clear = append(p.clear, l.Snapshot())
		p.clearPoses = append(p.clearPoses, a)

		for i := 0; i < 3; i++ {
			frac := 0.25 + 0.25*float64(i) + 0.1*rng.Float64()
			at := tx.Pos.Add(a.Sub(tx.Pos).Scale(frac))
			off := (rng.Float64() - 0.5) * 0.25
			lat := a.Sub(tx.Pos).Norm()
			latv := geom.Vec{X: -lat.Y, Y: lat.X}.Scale(off)
			l.SetBlockers([]channel.Blocker{channel.DefaultBlocker(at.Add(latv))})
			p.blocked = append(p.blocked, l.Snapshot())
		}
		l.SetBlockers(nil)

		for _, eirp := range []float64{-6, 2, 10} {
			toTx := tx.Pos.Sub(a).Norm()
			place := a.Add(toTx.Scale(0.7 * tx.Pos.Dist(a))).Add(geom.Vec{X: -toTx.Y, Y: toTx.X}.Scale(0.3))
			l.SetInterferers([]channel.Interferer{{Pos: place, EIRPdBm: eirp, DutyCycle: 0.9}})
			p.interfered = append(p.interfered, l.Snapshot())
		}
		l.SetInterferers(nil)
	}
	return p
}

// segmentDur draws a random segment duration in [300 ms, 3 s] (§8.3).
func segmentDur(rng *rand.Rand) time.Duration {
	return time.Duration(300+rng.Intn(2701)) * time.Millisecond
}

// RandomTimeline draws one timeline of the given kind: 10 segments with
// random durations, alternating impairment and recovery for blockage and
// interference kinds, walking for motion, and a blend for mixed.
func (p *Pools) RandomTimeline(kind ScenarioKind, rng *rand.Rand) *Timeline {
	tl := &Timeline{Kind: kind}
	pick := func(pool []*channel.Snapshot) *channel.Snapshot {
		return pool[rng.Intn(len(pool))]
	}
	for i := 0; i < p.segmentCount; i++ {
		var snap *channel.Snapshot
		switch kind {
		case Motion:
			snap = p.motion[(i*2+rng.Intn(2))%len(p.motion)]
		case Blockage:
			if i%2 == 0 {
				snap = pick(p.clear)
			} else {
				snap = pick(p.blocked)
			}
		case Interference:
			if i%2 == 0 {
				snap = pick(p.clear)
			} else {
				snap = pick(p.interfered)
			}
		default: // Mixed
			switch rng.Intn(4) {
			case 0:
				snap = pick(p.motion)
			case 1:
				snap = pick(p.blocked)
			case 2:
				snap = pick(p.interfered)
			default:
				snap = pick(p.clear)
			}
		}
		tl.Segments = append(tl.Segments, Segment{Snap: snap, Dur: segmentDur(rng)})
	}
	return tl
}

// RandomTimelineDur draws a timeline of the given kind whose total duration
// is at least minDur, appending segments beyond the standard count if
// needed (used by the VR study, which streams a 30 s scene).
func (p *Pools) RandomTimelineDur(kind ScenarioKind, rng *rand.Rand, minDur time.Duration) *Timeline {
	tl := p.RandomTimeline(kind, rng)
	for tl.Duration() < minDur {
		ext := p.RandomTimeline(kind, rng)
		tl.Segments = append(tl.Segments, ext.Segments...)
	}
	return tl
}

// RandomTimelines draws n timelines of a kind (50 per kind in §8.3).
func (p *Pools) RandomTimelines(kind ScenarioKind, n int, rng *rand.Rand) []*Timeline {
	out := make([]*Timeline, n)
	for i := range out {
		out[i] = p.RandomTimeline(kind, rng)
	}
	return out
}
