// Command libra-lint is the repo's merge-gate multichecker: it runs the
// internal/analysis suite — determinism, noalloc, clocksep, dbunits,
// configmut, floatreduce, deadexport — over the packages matched by its
// arguments (default ./...) and exits non-zero if any invariant is
// violated. deadexport judges only a whole-module run (./... from the
// module root): a narrower run cannot see every referrer.
//
// Usage:
//
//	libra-lint [-list] [-json | -sarif file] [-baseline file]
//	           [-write-baseline file] [-workers n] [packages]
//
// Packages are analyzed concurrently (-workers, default GOMAXPROCS); output
// is merge-sorted into a total order, so stdout, -json, and -sarif bytes are
// identical for every worker count.
//
// Suppress a single finding with a justified comment on (or immediately
// above) the offending line:
//
//	t0 := time.Now() //lint:ignore determinism wall-clock benchmark label only
//
// or a whole file with //lint:file-ignore <analyzer> <reason>. The reason is
// mandatory; an unexplained suppression is ignored and the finding stands.
// Function-level contracts use doc-comment annotations instead:
// //lint:wallclock <reason> sanctions wall-clock reads (verified — stale
// annotations are reported) and //lint:noalloc puts the function under the
// allocation-free hot-path contract.
//
// A reviewed baseline (-baseline lint.baseline) drops known findings by
// (file, analyzer, message); -write-baseline snapshots the current findings
// for review.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/libra-wlan/libra/internal/analysis"
	"github.com/libra-wlan/libra/internal/analysis/clocksep"
	"github.com/libra-wlan/libra/internal/analysis/configmut"
	"github.com/libra-wlan/libra/internal/analysis/dbunits"
	"github.com/libra-wlan/libra/internal/analysis/deadexport"
	"github.com/libra-wlan/libra/internal/analysis/determinism"
	"github.com/libra-wlan/libra/internal/analysis/floatreduce"
	"github.com/libra-wlan/libra/internal/analysis/noalloc"
)

// Analyzers is the full libra-lint suite, in the order findings are
// attributed.
var Analyzers = []*analysis.Analyzer{
	determinism.Analyzer,
	noalloc.Analyzer,
	clocksep.Analyzer,
	dbunits.Analyzer,
	configmut.Analyzer,
	floatreduce.Analyzer,
	deadexport.Analyzer,
}

func main() {
	list := flag.Bool("list", false, "print the analyzers and their invariants, then exit")
	jsonOut := flag.Bool("json", false, "write findings to stdout as JSON instead of text")
	sarifOut := flag.String("sarif", "", "also write findings to `file` as SARIF 2.1.0")
	baseline := flag.String("baseline", "", "drop findings recorded in the baseline `file` (missing file = empty baseline)")
	writeBaseline := flag.String("write-baseline", "", "snapshot current findings to the baseline `file` and exit 0")
	workers := flag.Int("workers", 0, "packages analyzed concurrently (0 = GOMAXPROCS); output is identical for any value")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: libra-lint [flags] [packages]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Runs the LiBRA static-analysis suite (default packages: ./...).\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range Analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	findings, runErr := analysis.RunN(".", patterns, Analyzers, *workers)
	// runErr may coexist with findings (a contained analyzer panic keeps the
	// other analyzers' results); report everything, then exit 2 on the error.
	base, err := os.Getwd()
	if err != nil {
		base = ""
	}

	if *writeBaseline != "" {
		f, err := os.Create(*writeBaseline)
		if err == nil {
			err = analysis.WriteBaseline(f, base, findings)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "libra-lint:", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "libra-lint: wrote %s\n", *writeBaseline)
		if runErr != nil {
			fmt.Fprintln(os.Stderr, "libra-lint:", runErr)
			os.Exit(2)
		}
		return
	}

	if *baseline != "" {
		b, err := analysis.LoadBaseline(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "libra-lint:", err)
			os.Exit(2)
		}
		findings = b.Filter(base, findings)
	}

	if *sarifOut != "" {
		f, err := os.Create(*sarifOut)
		if err == nil {
			err = analysis.WriteSARIF(f, base, findings, Analyzers)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "libra-lint:", err)
			os.Exit(2)
		}
	}

	if *jsonOut {
		if err := analysis.WriteJSON(os.Stdout, base, findings); err != nil {
			fmt.Fprintln(os.Stderr, "libra-lint:", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Printf("%s\n", f)
		}
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "libra-lint:", runErr)
		os.Exit(2)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "libra-lint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}
