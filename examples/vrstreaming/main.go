// VR streaming: the §8.4 case study as a runnable program — stream a 30 s
// 8K 60 FPS scene over a 60 GHz link while the player walks around, under
// each adaptation policy, and compare stall behaviour.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"github.com/libra-wlan/libra/internal/core"
	"github.com/libra-wlan/libra/internal/dataset"
	"github.com/libra-wlan/libra/internal/sim"
	"github.com/libra-wlan/libra/internal/trace"
	"github.com/libra-wlan/libra/internal/vr"
)

func main() {
	log.SetFlags(0)
	fmt.Println("training LiBRA's classifier and building mobility traces...")
	camp := dataset.GenerateMain(42)
	clf, err := core.TrainDefaultClassifier(camp, 1)
	if err != nil {
		log.Fatal(err)
	}
	pools := trace.NewPools(77)
	rng := rand.New(rand.NewSource(78))
	scene := vr.VikingVillage(30*time.Second, 79)
	fmt.Printf("scene: %d frames, %.2f GB total, %.0f Mbps average demand\n\n",
		len(scene.Sizes), scene.TotalBytes()/1e9, scene.TotalBytes()*8/30/1e6)

	const runs = 12
	timelines := make([]*trace.Timeline, runs)
	for i := range timelines {
		timelines[i] = pools.RandomTimelineDur(trace.Motion, rng, scene.Duration()+time.Second)
	}

	for _, ba := range []time.Duration{500 * time.Microsecond, 250 * time.Millisecond} {
		p := sim.Params{BAOverhead: ba, FAT: 2 * time.Millisecond}
		fmt.Printf("BA overhead %v, FAT 2ms:\n", ba)
		for _, pol := range []sim.Policy{sim.BAFirst, sim.RAFirst, sim.LiBRA, sim.OracleData, sim.OracleDelay} {
			var stalls, stallMs float64
			for _, tl := range timelines {
				out, err := sim.Run(context.Background(), sim.Scenario{Timeline: tl},
					sim.Options{Params: p, Policy: pol, Classifier: clf})
				if err != nil {
					log.Fatal(err)
				}
				res := vr.Play(scene, vr.Scale(out.Timeline.Rate, vr.COTSScale), 100*time.Millisecond)
				stalls += float64(res.Stalls) / runs
				stallMs += float64(res.AvgStall()) / float64(time.Millisecond) / runs
			}
			fmt.Printf("  %-13s avg stall %6.1f ms, avg stalls %6.1f\n", pol, stallMs, stalls)
		}
		fmt.Println()
	}
}
