package engine

import "github.com/libra-wlan/libra/internal/obs"

// Engine metrics (wall-clock registry; never part of the deterministic
// trace). Counts, not timings: how much multi-AP work this process ran.
var (
	obsEngineRuns = obs.NewCounter("libra_sim_engine_runs_total",
		"multi-AP engine runs started")
	obsEngineEvents = obs.NewCounter("libra_sim_engine_events_total",
		"events dispatched across engine runs")
	obsSlotGrants = obs.NewCounter("libra_sim_slot_grants_total",
		"TDMA slot schedule grants issued by APs")
	obsHandoffs = obs.NewCounter("libra_sim_handoffs_total",
		"station AP handoffs executed")
	obsVerdicts = obs.NewCounter("libra_sim_interference_verdicts_total",
		"inter-AP interference penalty changes applied to a station")
	obsImpairments = obs.NewCounter("libra_sim_impairments_total",
		"impairment (blockage) onsets applied to a station")
)
