// Command libra-figures regenerates every table and figure of the paper's
// evaluation in one run. Use -quick for a reduced-cost pass (fewer
// cross-validation repetitions and timelines); the output shape is
// identical. -only picks a subset: -only fig10,fig11,fig12,fig13,table4 is
// the §8 trace-driven evaluation. The command is a shell around
// experiments.Suite.RunContext, so Ctrl-C stops cleanly at the next
// experiment boundary.
//
// Usage:
//
//	libra-figures [-seed N] [-quick] [-csv] [-out DIR] [-only fig10,table1,...]
//	              [-metrics-out FILE] [-trace-out FILE]
//	              [-cpuprofile FILE] [-memprofile FILE] [-pprof ADDR]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"github.com/libra-wlan/libra/internal/experiments"
	"github.com/libra-wlan/libra/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("libra-figures: ")
	seed := flag.Int64("seed", 42, "random seed for the whole suite")
	quick := flag.Bool("quick", false, "reduced repetitions/timelines")
	asCSV := flag.Bool("csv", false, "emit CSV instead of aligned text")
	outDir := flag.String("out", "", "also write each artifact to <dir>/<key>.txt (or .csv)")
	only := flag.String("only", "",
		"comma-separated subset ("+strings.Join(experiments.StepKeys(), ",")+")")
	oc := obs.RegisterCLI(flag.CommandLine)
	flag.Parse()
	if err := oc.Start(); err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	s := experiments.NewSuite(*seed)
	opt := experiments.RunOptions{Reps: 20}
	if *quick {
		opt.Reps, opt.Timelines = 2, 10
	}
	if *only != "" {
		for _, k := range strings.Split(*only, ",") {
			opt.Only = append(opt.Only, strings.TrimSpace(strings.ToLower(k)))
		}
	}

	t0 := time.Now()
	opt.Emit = func(key string, res experiments.Result) error {
		body, ext := res.String(), ".txt"
		if *asCSV {
			body, ext = res.CSV(), ".csv"
			fmt.Printf("# %s\n%s\n", key, body)
		} else {
			fmt.Println(body)
			fmt.Printf("(%s completed at %v)\n\n", key, time.Since(t0).Round(time.Millisecond))
		}
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				return err
			}
			path := filepath.Join(*outDir, key+ext)
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				return err
			}
		}
		return nil
	}
	if _, err := s.RunContext(ctx, opt); err != nil {
		log.Fatal(err)
	}
	if err := oc.Stop(); err != nil {
		log.Fatal(err)
	}
}
