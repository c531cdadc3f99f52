package engine

import (
	"github.com/libra-wlan/libra/internal/dataset"
	"github.com/libra-wlan/libra/internal/phy"
	"github.com/libra-wlan/libra/internal/sim"
)

// StationResult is one station's run summary.
type StationResult struct {
	// Station is the entity ID.
	Station int
	// AP is the serving AP at the end of the run.
	AP int
	// Handoffs counts AP changes.
	Handoffs int
	// FinalMCS and FinalOnBestBeam describe the closing link state.
	FinalMCS        phy.MCS
	FinalOnBestBeam bool
	// Timeline is the full per-station accounting (bytes, breaks, rate
	// profile, recovery delays) in the same shape as sim.Run's timeline
	// result.
	Timeline sim.TimelineResult
}

// Result is a completed engine run.
type Result struct {
	// Spec is the resolved spec the run executed.
	Spec Spec
	// Stations holds one entry per station, indexed by entity ID.
	Stations []StationResult
	// APMembers is the closing membership count per AP.
	APMembers []int
	// Handoffs and Events aggregate across all stations.
	Handoffs int
	Events   int
	// Digest is the hex SHA-256 over the canonical event trace plus the
	// final accounting — byte-identical for any worker count, so two runs
	// agree iff their digests agree.
	Digest string
}

// Bytes returns the total bytes delivered across all stations.
func (r *Result) Bytes() float64 {
	var b float64
	for i := range r.Stations {
		b += r.Stations[i].Timeline.Bytes
	}
	return b
}

// Breaks returns the total link breaks across all stations.
func (r *Result) Breaks() int {
	n := 0
	for i := range r.Stations {
		n += r.Stations[i].Timeline.Breaks
	}
	return n
}

// Outcomes flattens the run into per-link sim.Outcomes — the currency of the
// dataset and experiments layers, so multi-AP runs drop into the same
// aggregation and reporting paths as the single-link studies.
func (r *Result) Outcomes() []sim.Outcome {
	outs := make([]sim.Outcome, len(r.Stations))
	for i := range r.Stations {
		st := &r.Stations[i]
		o := sim.Outcome{
			Bytes:           st.Timeline.Bytes,
			RecoveryDelay:   st.Timeline.TotalRecoveryDelay,
			FinalMCS:        st.FinalMCS,
			FinalOnBestBeam: st.FinalOnBestBeam,
		}
		for _, act := range st.Timeline.Actions {
			switch act {
			case dataset.ActBA:
				o.UsedBA = true
			case dataset.ActRA:
				o.UsedRA = true
			}
		}
		outs[i] = o
	}
	return outs
}
