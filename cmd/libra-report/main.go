// Command libra-report runs the reproduction's shape checks: every
// qualitative claim of the paper, encoded as an executable assertion against
// this simulator. It exits non-zero if any claim fails, making it suitable
// as a repository-level regression gate.
//
// Usage:
//
//	libra-report [-seed N]
//	libra-report [-trace FILE] [-metrics FILE]
//	libra-report -decisions FILE [-profile FILE] [-window N] [-drift-out FILE]
//
// With -trace and/or -metrics, the command instead validates and summarizes
// observability output produced by the other commands' -trace-out and
// -metrics-out flags, exiting non-zero on malformed input — the CI smoke
// check for the obs layer.
//
// With -decisions, it validates an LDL1 audit log (libra-serve -audit-out)
// — every chunk checksum, the footer record count, the fail-closed read
// path — and summarizes the stream: record counts, the
// worker-count-invariant canonical digest, and per-stage latency
// percentiles. Adding -profile (a libra-train -profile-out
// reference) replays the log through the windowed drift monitor and prints
// per-window PSI/KS/action-shift and joined accuracy. -drift-out writes the
// drift report to a file containing only replay-deterministic bytes (no
// wall-clock latencies), so two runs that served the same sampled decisions
// — at any worker or shard count — produce identical files (the CI cmp
// gate, DESIGN.md §8).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"github.com/libra-wlan/libra/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("libra-report: ")
	seed := flag.Int64("seed", 42, "suite random seed")
	tracePath := flag.String("trace", "", "validate and summarize a -trace-out file instead of running shape checks")
	metricsPath := flag.String("metrics", "", "validate and summarize a -metrics-out file instead of running shape checks")
	decisionsPath := flag.String("decisions", "", "validate and summarize an LDL1 audit log instead of running shape checks")
	profilePath := flag.String("profile", "", "drift reference profile (libra-train -profile-out) to replay the audit log against")
	window := flag.Int("window", 1024, "decision records per drift window")
	driftOut := flag.String("drift-out", "", "write the deterministic drift report (requires -profile) to this file")
	flag.Parse()

	if *decisionsPath != "" {
		if err := summarizeDecisions(os.Stdout, *decisionsPath, *profilePath, *window, *driftOut); err != nil {
			log.Fatalf("decisions %s: %v", *decisionsPath, err)
		}
		return
	}
	if *driftOut != "" || *profilePath != "" {
		log.Fatal("-profile/-drift-out need -decisions FILE")
	}

	if *tracePath != "" || *metricsPath != "" {
		if *tracePath != "" {
			if err := summarizeTrace(os.Stdout, *tracePath); err != nil {
				log.Fatalf("trace %s: %v", *tracePath, err)
			}
		}
		if *metricsPath != "" {
			if err := summarizeMetrics(os.Stdout, *metricsPath); err != nil {
				log.Fatalf("metrics %s: %v", *metricsPath, err)
			}
		}
		return
	}

	t0 := time.Now()
	s := experiments.NewSuite(*seed)
	table, failures, err := experiments.RunShapeChecks(s)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(table)
	fmt.Printf("%d checks, %d failures (%v)\n", len(table.Rows), failures, time.Since(t0).Round(time.Millisecond))
	if failures > 0 {
		os.Exit(1)
	}
}
