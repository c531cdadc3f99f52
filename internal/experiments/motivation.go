package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"github.com/libra-wlan/libra/internal/channel"
	"github.com/libra-wlan/libra/internal/cots"
	"github.com/libra-wlan/libra/internal/env"
	"github.com/libra-wlan/libra/internal/geom"
	"github.com/libra-wlan/libra/internal/ml"
	"github.com/libra-wlan/libra/internal/phased"
)

// MotivationResult captures one §3 COTS experiment: the sector-selection
// timelines of the two device profiles and the throughput comparison with
// beam adaptation enabled vs locked on the best static sector.
type MotivationResult struct {
	Title string
	// Phone and AP are the sector timelines (panels a and b).
	Phone, AP cots.RunResult
	// WithBA and Locked are the AP-link throughputs (panel c), averaged
	// over Trials runs.
	WithBA, Locked float64
	// Trials is the number of averaged runs.
	Trials int
}

// String renders the result, including a downsampled sector-selection
// timeline per device — the textual equivalent of the paper's panels (a)
// and (b), where each character position is one time slice and the symbol
// encodes the selected sector ('*' marks a failed lock, sector 255).
func (m *MotivationResult) String() string {
	gain := (m.Locked/m.WithBA - 1) * 100
	return fmt.Sprintf(
		"== %s ==\n"+
			"phone: %d BA triggers, %d distinct sectors\n"+
			"  sectors over time: %s\n"+
			"ap:    %d BA triggers, %d distinct sectors\n"+
			"  sectors over time: %s\n"+
			"throughput with BA: %.0f Mbps, locked best sector: %.0f Mbps (disabling BA: %+.1f%%)\n",
		m.Title, m.Phone.BATriggers, len(m.Phone.SectorsUsed),
		sectorSparkline(m.Phone.SectorTimeline, 72),
		m.AP.BATriggers, len(m.AP.SectorsUsed),
		sectorSparkline(m.AP.SectorTimeline, 72),
		m.WithBA/1e6, m.Locked/1e6, gain)
}

// sectorSparkline compresses a sector timeline into width characters:
// digits/letters index sectors (0-9 then a-o for 10-24), '*' marks a failed
// lock (sector 255).
func sectorSparkline(tl []cots.SectorSample, width int) string {
	if len(tl) == 0 {
		return "(empty)"
	}
	if width > len(tl) {
		width = len(tl)
	}
	out := make([]byte, width)
	for i := 0; i < width; i++ {
		s := tl[i*len(tl)/width].Sector
		switch {
		case s == cots.NoSector:
			out[i] = '*'
		case s < 10:
			out[i] = byte('0' + s)
		case s < 25:
			out[i] = byte('a' + s - 10)
		default:
			out[i] = '?'
		}
	}
	return string(out)
}

// motivationLink builds the corridor/lobby COTS link of §3.
func motivationLink(seed int64, e *env.Environment, txPos, rxPos geom.Vec) *channel.Link {
	tx := phased.NewArray(txPos, geom.Deg(rxPos.Sub(txPos).Angle()), seed)
	rx := phased.NewArray(rxPos, geom.Deg(txPos.Sub(rxPos).Angle()), seed+7)
	return channel.NewLink(e, tx, rx)
}

// runMotivation executes one scenario for both device profiles and the
// BA-vs-locked comparison. Its twelve device runs (phone, AP, then a with-BA
// and a locked run per trial) each build their own link, so they run on one
// pool and combine in that order.
func runMotivation(s *Suite, title string, envFn func() *env.Environment, txPos, rxPos geom.Vec, setup func(*channel.Link), move func(*channel.Link) func(time.Duration), dur time.Duration) *MotivationResult {
	const trials = 5
	res := &MotivationResult{Title: title, Trials: trials}

	// run builds a fresh link from linkSeed and runs one device on it, with
	// BA enabled or locked on the link's best static sector.
	run := func(linkSeed, rngSeed int64, profile cots.Profile, ba bool) cots.RunResult {
		l := motivationLink(linkSeed, envFn(), txPos, rxPos)
		if setup != nil {
			setup(l)
		}
		locked := 0
		if !ba {
			locked = cots.BestLockedSector(l)
		}
		d := cots.NewDevice(l, profile, rand.New(rand.NewSource(rngSeed)))
		var mv func(time.Duration)
		if move != nil {
			mv = move(l)
		}
		return d.Run(dur, mv, ba, locked)
	}
	// tput[2*tr] is trial tr's throughput with BA, tput[2*tr+1] locked.
	tput := make([]float64, 2*trials)
	ml.FanOut(context.Background(), 0, 2+len(tput), func(i int) {
		switch i {
		case 0: // Panel (a): phone uplink sector timeline.
			res.Phone = run(s.Seed+31, s.Seed+32, cots.PhoneProfile(), true)
		case 1: // Panel (b): AP downlink sector timeline.
			res.AP = run(s.Seed+33, s.Seed+34, cots.APProfile(), true)
		default: // Panel (c): throughput with BA vs locked.
			j := i - 2
			seed := s.Seed + 40 + int64(j/2)*2
			tput[j] = run(seed, seed+1, cots.APProfile(), j%2 == 0).ThroughputBps
		}
	})
	for tr := 0; tr < trials; tr++ {
		res.WithBA += tput[2*tr] / trials
		res.Locked += tput[2*tr+1] / trials
	}
	return res
}

// Figure1 reproduces the static COTS scenario (paper: the phone triggers BA
// >100 times in 60 s over 6 sectors; disabling BA improves throughput by
// ~26%).
func Figure1(s *Suite) *MotivationResult {
	return runMotivation(s, "Figure 1: static COTS scenario",
		env.MediumCorridor, geom.V(0.5, 1.6), geom.V(9.5, 1.6), nil, nil, 60*time.Second)
}

// Figure2 reproduces the blockage COTS scenario (paper: 4-5 sectors and
// lock failures; BA costs ~16% vs the best static sector).
func Figure2(s *Suite) *MotivationResult {
	return runMotivation(s, "Figure 2: blockage COTS scenario",
		env.Lobby, geom.V(2, 4), geom.V(5, 4), func(l *channel.Link) {
			mid := l.Tx.Pos.Add(l.Rx.Pos.Sub(l.Tx.Pos).Scale(0.5))
			mid.Y += 0.12 // the person stands just off the exact center line
			l.SetBlockers([]channel.Blocker{cotsBlocker(mid)})
		}, nil, 55*time.Second)
}

// cotsBlocker returns the §3 human blocker standing on the LOS.
func cotsBlocker(p geom.Vec) channel.Blocker { return channel.DefaultBlocker(p) }

// Figure3 reproduces the mobility COTS scenario (paper: sector flapping, but
// BA *gains* ~15% over the best static sector, because the best path changes
// as the client walks).
func Figure3(s *Suite) *MotivationResult {
	// The client walks diagonally across the lobby: distance and bearing
	// from the AP both change, so the initially best sector drifts stale.
	return runMotivation(s, "Figure 3: mobile COTS scenario",
		env.Lobby, geom.V(2, 4), geom.V(5, 4), nil, func(l *channel.Link) func(time.Duration) {
			return cots.WalkDir(l, l.Rx.Pos, geom.V(0.8, 0.6), 0.2)
		}, 40*time.Second)
}
