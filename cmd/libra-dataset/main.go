// Command libra-dataset generates the measurement campaigns of §4-§5 and
// prints their summaries (Tables 1 and 2). With -json it writes the full
// entry list to stdout for external analysis, mirroring the public dataset
// release that accompanies the paper. With -o it writes the campaign as a
// streaming libra-ds v1 (.lds) container — the binary column format
// libra-train -data loads back without re-running the channel model.
//
// Usage:
//
//	libra-dataset [-seed N] [-which main|test|both] [-workers N]
//	              [-json] [-digest] [-o FILE] [-metrics-out FILE]
//	              [-trace-out FILE] [-cpuprofile FILE] [-memprofile FILE]
//	              [-pprof ADDR]
//
// -workers sets the campaign generation worker count; the output bytes are
// identical for every value (the determinism contract pinned by the digest
// and container golden tests). -digest
// prints each campaign's content digest, the same hex string embedded in
// the .lds footer and verified on load.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"

	"github.com/libra-wlan/libra/internal/dataset"
	"github.com/libra-wlan/libra/internal/experiments"
	"github.com/libra-wlan/libra/internal/obs"
)

// jsonEntry is the export schema of one dataset entry.
type jsonEntry struct {
	Env        string     `json:"env"`
	Building   string     `json:"building"`
	Impairment string     `json:"impairment"`
	PosID      int        `json:"pos_id"`
	Features   [7]float64 `json:"features"`
	InitMCS    int        `json:"init_mcs"`
	Label      string     `json:"label"`
	ThRAMbps   float64    `json:"th_ra_mbps"`
	ThBAMbps   float64    `json:"th_ba_mbps"`
}

// export writes -json's output: one JSON line per entry with its features,
// label and §5.2 ground-truth throughputs. The paper's dataset is publicly
// released; this is the equivalent for the emulated campaigns, for
// analysis outside the repo. The .lds container (-o) is the one that loads
// back, with the per-MCS throughput tables the simulator replays and the
// site registry behind the position counts of Tables 1-2.
func export(c *dataset.Campaign) error {
	enc := json.NewEncoder(os.Stdout)
	for _, e := range c.Entries {
		je := jsonEntry{
			Env:        e.Env,
			Building:   e.Building,
			Impairment: e.Impairment.String(),
			PosID:      e.PosID,
			Features:   e.Features,
			InitMCS:    int(e.InitMCS),
			Label:      e.Label.String(),
			ThRAMbps:   e.ThRABps / 1e6,
			ThBAMbps:   e.ThBABps / 1e6,
		}
		if err := enc.Encode(je); err != nil {
			return err
		}
	}
	return nil
}

// writeLDS streams the campaign into path as a libra-ds v1 container.
func writeLDS(c *dataset.Campaign, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := c.WriteLDS(f, dataset.DefaultChunkRows); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d entries, %d bytes (digest %s)\n",
		path, len(c.Entries), st.Size(), c.Digest())
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("libra-dataset: ")
	seed := flag.Int64("seed", 42, "campaign random seed")
	which := flag.String("which", "both", "main, test, or both")
	workers := flag.Int("workers", 0, "generation worker count (0 = all cores); output is worker-count independent")
	asJSON := flag.Bool("json", false, "dump entries as JSON lines instead of summaries")
	digest := flag.Bool("digest", false, "print each campaign's content digest instead of summaries")
	out := flag.String("o", "", "write the campaign as a libra-ds v1 (.lds) file (requires -which main or -which test)")
	oc := obs.RegisterCLI(flag.CommandLine)
	flag.Parse()
	if err := oc.Start(); err != nil {
		log.Fatal(err)
	}
	if *workers <= 0 {
		*workers = runtime.GOMAXPROCS(0)
	}
	wantMain := *which == "main" || *which == "both"
	wantTest := *which == "test" || *which == "both"
	if !wantMain && !wantTest {
		log.Fatalf("-which %q: must be main, test, or both", *which)
	}
	if *out != "" && wantMain == wantTest {
		log.Fatal("-o writes one campaign: use -which main or -which test")
	}

	// Generate with the requested worker count and hand the campaigns to the
	// suite, so the table summaries reuse them instead of regenerating.
	s := experiments.NewSuite(*seed)
	if wantMain {
		s.UseMain(dataset.GenerateMainWorkers(*seed, *workers))
	}
	if wantTest {
		s.UseTest(dataset.GenerateTestWorkers(*seed+1, *workers))
	}

	show := func(c *dataset.Campaign, table func(*experiments.Suite) *experiments.Table) {
		switch {
		case *out != "":
			if err := writeLDS(c, *out); err != nil {
				log.Fatal(err)
			}
		case *digest:
			fmt.Printf("%s %s\n", c.Name, c.Digest())
		case *asJSON:
			if err := export(c); err != nil {
				log.Fatal(err)
			}
		default:
			fmt.Println(table(s))
		}
	}
	if wantMain {
		show(s.Main(), experiments.Table1)
	}
	if wantTest {
		show(s.Test(), experiments.Table2)
	}
	if err := oc.Stop(); err != nil {
		log.Fatal(err)
	}
}
