// Command yubench regenerates the paper's evaluation tables and figures
// (§7) on synthetic stand-in networks.
//
// Usage:
//
//	yubench -exp table1|table3|table4|fig11|fig12|fig13|fig15|fig17|all
//	        [-scale quick|full] [-baseline-budget 30s]
//
// Quick scale finishes in minutes; full scale uses the paper's Table 3
// router/link counts and can run for hours single-threaded. Baseline
// engines (QARC-style search, Jingubang-style enumeration) are bounded by
// -baseline-budget and report "> budget (timeout)" when exceeded, just as
// the paper reports "> 3600" cells.
//
// This repo's own performance record is BENCHMARK.json + ./benchmark,
// not yubench.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"github.com/yu-verify/yu/internal/bench"
	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/paperex"
	"github.com/yu-verify/yu/internal/topo"
)

// order is every experiment -exp accepts, in the order "all" runs them.
var order = []string{"table1", "table3", "fig11", "fig12", "fig13", "fig15", "fig17", "table4"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("yubench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment: "+strings.Join(order, ", ")+", or all")
	scaleFlag := fs.String("scale", "quick", "quick or full")
	budget := fs.Duration("baseline-budget", 60*time.Second, "per-cell time budget for baseline engines")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "yubench:", err)
		return 1
	}

	var scale bench.Scale
	switch *scaleFlag {
	case "quick":
		scale = bench.Quick
	case "full":
		scale = bench.Full
	default:
		return fail(fmt.Errorf("unknown scale %q", *scaleFlag))
	}

	runners := map[string]func() error{
		"table1": func() error {
			spec, err := paperex.MotivatingSpec()
			if err != nil {
				return err
			}
			bench.Table1(stdout, map[string]*config.Spec{
				"motivating (SR+iBGP)": spec,
			})
			return nil
		},
		"table3": func() error { return bench.Table3(stdout, scale) },
		"table4": func() error { return bench.Table4(stdout, scale, *budget) },
		"fig11":  func() error { return bench.Fig11(stdout, scale, topo.FailLinks, *budget) },
		"fig12":  func() error { return bench.Fig12(stdout, scale) },
		"fig13":  func() error { return bench.Fig13and14(stdout, scale) },
		"fig15":  func() error { return bench.Fig15and16(stdout, scale, *budget) },
		"fig17":  func() error { return bench.Fig11(stdout, scale, topo.FailRouters, *budget) },
	}

	names := []string{*exp}
	if *exp == "all" {
		names = order
	}
	for _, name := range names {
		runExp, ok := runners[name]
		if !ok {
			return fail(fmt.Errorf("unknown experiment %q", name))
		}
		if *exp == "all" {
			fmt.Fprintf(stdout, "==== %s ====\n", name)
		}
		if err := runExp(); err != nil {
			return fail(err)
		}
		if *exp == "all" {
			fmt.Fprintln(stdout)
		}
	}
	return 0
}
