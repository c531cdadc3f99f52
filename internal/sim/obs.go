package sim

import (
	"time"

	"github.com/libra-wlan/libra/internal/obs"
	"github.com/libra-wlan/libra/internal/phy"
)

// Airtime quanta for converting a policy run's elapsed simulated time into
// the (frame, slot, codeword) stamps of the trace layer. These derive from
// the X60 frame structure, so a trace stamp is a pure function of elapsed
// simulation time — never of the wall clock.
var (
	frameDur = time.Duration(phy.FrameDuration * float64(time.Second))
	slotDur  = time.Duration(phy.SlotDuration * float64(time.Second))
	cwDur    = slotDur / phy.CodewordsPerSlot
)

// Stamp converts elapsed simulated time to a deterministic trace stamp. The
// multi-AP engine stamps its events with it too, so every sim-time stream
// lands on the same frame/slot/codeword grid.
func Stamp(elapsed time.Duration) obs.SimTime {
	if elapsed < 0 {
		elapsed = 0
	}
	frame := int64(elapsed / frameDur)
	rem := elapsed % frameDur
	slot := int64(rem / slotDur)
	rem -= time.Duration(slot) * slotDur
	return obs.SimTime{Frame: frame, Slot: slot, Codeword: int64(rem / cwDur)}
}

// actionName renders a dataset action for trace attributes.
var actionNames = [...]string{"ba", "ra", "na"}

// Engine metrics: how many entry runs each policy executed and how the
// adaptations resolved.
var (
	obsPolicyRuns = map[Policy]*obs.Counter{
		LiBRA:       obs.NewCounter(`libra_sim_entry_runs_total{policy="libra"}`, "policy runs per entry"),
		BAFirst:     obs.NewCounter(`libra_sim_entry_runs_total{policy="ba-first"}`, "policy runs per entry"),
		RAFirst:     obs.NewCounter(`libra_sim_entry_runs_total{policy="ra-first"}`, "policy runs per entry"),
		OracleData:  obs.NewCounter(`libra_sim_entry_runs_total{policy="oracle-data"}`, "policy runs per entry"),
		OracleDelay: obs.NewCounter(`libra_sim_entry_runs_total{policy="oracle-delay"}`, "policy runs per entry"),
	}
	obsTimelineBreaks = obs.NewCounter("libra_sim_timeline_breaks_total",
		"link breaks encountered across timeline runs")
	obsRecoveryFailures = obs.NewCounter("libra_sim_recovery_failures_total",
		"adaptations that never restored a working MCS (delay capped at Dmax)")
)
