// Command libra-sim runs a single custom link-adaptation scenario: place a
// link in one of the paper's environments, apply an impairment, and compare
// what every policy (LiBRA, BA First, RA First, and the two oracles) would
// do — throughput tables, chosen actions, bytes delivered, and recovery
// delay.
//
// Usage:
//
//	libra-sim [-env lobby] [-dist 8] [-impair rotate] [-amount 60]
//	          [-ba 5ms] [-fat 2ms] [-flow 1s] [-seed N] [-workers N]
//	          [-metrics-out FILE] [-trace-out FILE]
//	          [-cpuprofile FILE] [-memprofile FILE] [-pprof ADDR]
//
// With -aps N (N > 0) the command instead runs the deterministic multi-AP
// discrete-event engine: N access points and -stations stations contend for
// TDMA slots, interfere across cells and hand off between APs for -duration
// of simulated time on the -topology floor plan. The run prints per-AP and
// aggregate station summaries plus the scenario digest — a SHA-256 over the
// canonical event trace that is byte-identical for any -workers value:
//
//	libra-sim -aps 4 -stations 64 -duration 500ms -seed 1 [-workers N]
//	          [-topology grid] [-policy ba-first] [-trace-out FILE]
//
// The observability flags are shared by every libra command: -metrics-out
// snapshots the engine metrics on exit, -trace-out records the deterministic
// simulation-time event trace (byte-identical for any -workers value), and
// the profile flags feed go tool pprof.
//
// Impairments: backward (amount = extra meters), rotate (amount = degrees),
// block (amount = lateral offset in meters), interfere (amount = EIRP dBm),
// none.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"github.com/libra-wlan/libra/internal/channel"
	"github.com/libra-wlan/libra/internal/core"
	"github.com/libra-wlan/libra/internal/dataset"
	"github.com/libra-wlan/libra/internal/env"
	"github.com/libra-wlan/libra/internal/geom"
	"github.com/libra-wlan/libra/internal/obs"
	"github.com/libra-wlan/libra/internal/phased"
	"github.com/libra-wlan/libra/internal/phy"
	"github.com/libra-wlan/libra/internal/sim"
	"github.com/libra-wlan/libra/internal/sim/engine"
)

// policies maps -policy values to sim policies.
var policies = map[string]sim.Policy{
	"libra":        sim.LiBRA,
	"ba-first":     sim.BAFirst,
	"ra-first":     sim.RAFirst,
	"oracle-data":  sim.OracleData,
	"oracle-delay": sim.OracleDelay,
}

// environments maps -env values to constructors and a default Tx placement.
var environments = map[string]struct {
	build func() *env.Environment
	tx    geom.Vec
}{
	"lobby":      {env.Lobby, geom.V(2, 4)},
	"lab":        {env.Lab, geom.V(5.9, 8.8)},
	"conference": {env.ConferenceRoom, geom.V(0.7, 3.4)},
	"corridor":   {env.MediumCorridor, geom.V(0.5, 1.6)},
	"building1":  {env.Building1, geom.V(0.5, 1.25)},
	"building2":  {env.Building2, geom.V(3, 9)},
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("libra-sim: ")
	envName := flag.String("env", "lobby", "environment: lobby, lab, conference, corridor, building1, building2")
	dist := flag.Float64("dist", 8, "initial Tx-Rx distance in meters")
	impair := flag.String("impair", "rotate", "impairment: none, backward, rotate, block, interfere")
	amount := flag.Float64("amount", 60, "impairment magnitude (m, deg, m offset, or dBm)")
	baOverhead := flag.Duration("ba", 5*time.Millisecond, "beam adaptation overhead")
	fat := flag.Duration("fat", 2*time.Millisecond, "frame aggregation time per RA probe")
	flow := flag.Duration("flow", time.Second, "data flow duration")
	seed := flag.Int64("seed", 42, "random seed (codebooks + classifier training)")
	workers := flag.Int("workers", 0, "campaign worker count (0 = all cores; output is identical for any value)")
	aps := flag.Int("aps", 0, "multi-AP engine mode: number of access points (0 = single-link mode)")
	stations := flag.Int("stations", 8, "engine mode: number of stations")
	duration := flag.Duration("duration", 500*time.Millisecond, "engine mode: simulated time span")
	topology := flag.String("topology", "grid", "engine mode: AP layout (grid or line)")
	policy := flag.String("policy", "ba-first", "engine mode: adaptation policy (libra, ba-first, ra-first, oracle-data, oracle-delay)")
	oc := obs.RegisterCLI(flag.CommandLine)
	flag.Parse()
	if err := oc.Start(); err != nil {
		log.Fatal(err)
	}

	if *aps > 0 {
		if err := runEngine(*aps, *stations, *duration, *topology, *policy, *baOverhead, *fat, *seed, *workers); err != nil {
			log.Fatal(err)
		}
		if err := oc.Stop(); err != nil {
			log.Fatal(err)
		}
		return
	}

	spec, ok := environments[*envName]
	if !ok {
		log.Fatalf("unknown environment %q", *envName)
	}
	e := spec.build()

	// Place the Rx dist meters from the Tx toward the environment center.
	center := geom.V(e.Width/2, e.Height/2)
	dir := center.Sub(spec.tx).Norm()
	rxPos := spec.tx.Add(dir.Scale(*dist))
	if !e.Contains(rxPos) {
		log.Fatalf("distance %.1f m leaves the %s bounds (%.1fx%.1f m)", *dist, e.Name, e.Width, e.Height)
	}
	tx := phased.NewArray(spec.tx, geom.Deg(dir.Angle()), *seed)
	rx := phased.NewArray(rxPos, geom.Deg(spec.tx.Sub(rxPos).Angle()), *seed+1)
	link := channel.NewLink(e, tx, rx)

	// Initial state.
	pt, pr, initSNR := link.BestPair()
	initMCS, initTh := phy.BestMCS(initSNR)
	initMeas := link.Measure(pt, pr)
	fmt.Printf("environment %s, Rx at %.1f m: beams (%d,%d), SNR %.1f dB, %v, %.0f Mbps\n",
		e.Name, *dist, pt, pr, initSNR, initMCS, initTh/1e6)

	// Impair.
	switch *impair {
	case "none":
	case "backward":
		p := rxPos.Add(rxPos.Sub(spec.tx).Norm().Scale(*amount))
		if !e.Contains(p) {
			log.Fatalf("backward move leaves the environment")
		}
		link.MoveRx(p)
	case "rotate":
		link.RotateRx(rx.OrientDeg + *amount)
	case "block":
		mid := spec.tx.Add(rxPos.Sub(spec.tx).Scale(0.5))
		lat := rxPos.Sub(spec.tx).Norm()
		mid = mid.Add(geom.V(-lat.Y, lat.X).Scale(*amount))
		link.SetBlockers([]channel.Blocker{channel.DefaultBlocker(mid)})
	case "interfere":
		toTx := spec.tx.Sub(rxPos).Norm()
		place := rxPos.Add(toTx.Scale(0.7 * rxPos.Dist(spec.tx)))
		link.SetInterferers([]channel.Interferer{{Pos: place, EIRPdBm: *amount, DutyCycle: 0.9}})
	default:
		log.Fatalf("unknown impairment %q", *impair)
	}

	// New state.
	after := link.Snapshot()
	snrInit := after.SNRdB(pt, pr)
	bt, br, snrBest := after.BestPair()
	fmt.Printf("after %s(%g): initial pair %.1f dB; best pair (%d,%d) %.1f dB\n\n",
		*impair, *amount, snrInit, bt, br, snrBest)

	entry := &dataset.Entry{InitMCS: initMCS, InitSNRdB: initSNR, InitThBps: initTh,
		NewSNRInitPair: snrInit, NewSNRBestPair: snrBest}
	for m := phy.MinMCS; m <= phy.MaxMCS; m++ {
		entry.InitBeamTh[m] = phy.ExpectedThroughput(m, snrInit)
		entry.BestBeamTh[m] = phy.ExpectedThroughput(m, snrBest)
	}
	entry.Features = dataset.FeaturizeObserved(initMeas, after.Measure(pt, pr), phy.CDR(initMCS, snrInit), initMCS)
	sc := sim.Scenario{Entry: entry}
	opt := sim.Options{Params: sim.Params{BAOverhead: *baOverhead, FAT: *fat, FlowDur: *flow}, Policy: sim.BAFirst}
	if err := sim.Validate(sc, opt); err != nil {
		log.Fatal(err) // before the classifier spends time training
	}
	fmt.Printf("features: SNRdiff %.1f dB, ToFdiff %.1f ns, noisediff %.1f dB, PDPsim %.2f, CSIsim %.2f, CDR %.3f, initMCS %v\n\n",
		entry.Features[0], entry.Features[1], entry.Features[2], entry.Features[3],
		entry.Features[4], entry.Features[5], initMCS)

	fmt.Println("training LiBRA's classifier...")
	clf, err := core.TrainDefaultClassifier(dataset.GenerateMainWorkers(*seed, *workers), *seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("LiBRA's decision: %v\n\n", clf.Classify(entry.FeatureSlice()))

	opt.Classifier = clf
	fmt.Printf("%-13s %-12s %-14s %-10s %s\n", "policy", "bytes (MB)", "recovery", "final MCS", "mechanisms")
	for pi, pol := range []sim.Policy{sim.BAFirst, sim.RAFirst, sim.LiBRA, sim.OracleData, sim.OracleDelay} {
		// One trace stream per policy, keyed by the display-order index so
		// -trace-out bytes never depend on scheduling.
		opt.Policy = pol
		opt.Params.Trace = oc.Tracer().Stream("sim/"+pol.String(), uint64(pi))
		res, err := sim.Run(context.Background(), sc, opt)
		if err != nil {
			log.Fatal(err)
		}
		out := res.Outcome
		mech := ""
		if out.UsedBA {
			mech += "BA "
		}
		if out.UsedRA {
			mech += "RA"
		}
		fmt.Printf("%-13s %-12.1f %-14v %-10v %s\n",
			pol, out.Bytes/1e6, out.RecoveryDelay.Round(10*time.Microsecond), out.FinalMCS, mech)
	}
	if err := oc.Stop(); err != nil {
		log.Fatal(err)
	}
}

// runEngine drives the multi-AP discrete-event engine and prints per-AP and
// aggregate summaries plus the scenario digest. Everything printed except
// wall time is a pure function of the flags — the worker count changes
// nothing.
func runEngine(aps, stations int, duration time.Duration, topology, policy string, ba, fat time.Duration, seed int64, workers int) error {
	pol, ok := policies[policy]
	if !ok {
		return fmt.Errorf("unknown policy %q", policy)
	}
	spec := engine.Spec{
		APs: aps, Stations: stations,
		Duration: duration,
		Seed:     uint64(seed),
		Topology: topology,
		Params:   sim.Params{BAOverhead: ba, FAT: fat},
		Policy:   pol,
	}
	if pol == sim.LiBRA {
		fmt.Println("training LiBRA's classifier...")
		clf, err := core.TrainDefaultClassifier(dataset.GenerateMainWorkers(seed, workers), seed)
		if err != nil {
			return err
		}
		spec.Classifier = clf
	}

	fmt.Printf("multi-AP engine: %d APs, %d stations, topology %s, %v simulated, seed %d\n",
		aps, stations, topology, duration, seed)
	sc, err := engine.Build(spec)
	if err != nil {
		return err
	}
	res, err := engine.New(sc, workers).Run(context.Background())
	if err != nil {
		return err
	}

	perAP := make([]struct {
		bytes    float64
		breaks   int
		handoffs int
	}, aps)
	for i := range res.Stations {
		st := &res.Stations[i]
		perAP[st.AP].bytes += st.Timeline.Bytes
		perAP[st.AP].breaks += st.Timeline.Breaks
		perAP[st.AP].handoffs += st.Handoffs
	}
	fmt.Printf("\n%-6s %-9s %-12s %-8s %s\n", "AP", "members", "bytes (MB)", "breaks", "handoffs-in")
	for a := 0; a < aps; a++ {
		fmt.Printf("%-6d %-9d %-12.1f %-8d %d\n",
			a, res.APMembers[a], perAP[a].bytes/1e6, perAP[a].breaks, perAP[a].handoffs)
	}
	if stations <= 16 {
		fmt.Printf("\n%-8s %-4s %-12s %-8s %-10s %s\n", "station", "AP", "bytes (MB)", "breaks", "handoffs", "final MCS")
		for i := range res.Stations {
			st := &res.Stations[i]
			fmt.Printf("%-8d %-4d %-12.1f %-8d %-10d %v\n",
				st.Station, st.AP, st.Timeline.Bytes/1e6, st.Timeline.Breaks, st.Handoffs, st.FinalMCS)
		}
	}
	fmt.Printf("\ntotals: %.1f MB delivered, %d breaks, %d handoffs, %d events\n",
		res.Bytes()/1e6, res.Breaks(), res.Handoffs, res.Events)
	fmt.Printf("scenario digest: %s\n", res.Digest)
	return nil
}
