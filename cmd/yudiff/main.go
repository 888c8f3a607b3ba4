// Command yudiff drives the differential-testing battery over seeded
// random networks. Each case is generated by internal/difftest and pushed
// through every oracle (symbolic-vs-concrete loads, violation-set
// equality, global-equivalence sharing, monotonicity in k, KREDUCE
// soundness, witness re-validation, spec round-trip). On the
// first disagreement, the case is shrunk to a 1-minimal reproducer and
// printed as a config-DSL spec.
//
// Usage:
//
//	yudiff [-n N] [-start SEED] [-budget DURATION] [-v]
//	yudiff -seed SEED            # reproduce (and shrink) one case
//
// Exit status is 0 when every case agrees with every oracle, 1 on a
// disagreement, 2 on usage errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/yu-verify/yu/internal/difftest"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command with its arguments and output streams, returning the
// exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("yudiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		n       = fs.Int("n", 100, "number of seeded cases to run")
		start   = fs.Int64("start", 1, "first seed")
		seed    = fs.Int64("seed", 0, "run exactly this seed (overrides -n/-start)")
		budget  = fs.Duration("budget", 0, "stop starting new cases after this long, the first case always runs (0 = no budget)")
		noShrnk = fs.Bool("no-shrink", false, "print the failing case unshrunk")
		verbose = fs.Bool("v", false, "log every case")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fs.Usage()
		return 2
	}

	first, count := *start, *n
	// -seed 0 is a seed like any other: the flag counts when it was given.
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			first, count = *seed, 1
		}
	})
	t0 := time.Now()
	ran := 0
	for i := int64(0); i < int64(count); i++ {
		if *budget > 0 && i > 0 && time.Since(t0) > *budget {
			fmt.Fprintf(stdout, "budget %v exhausted after %d cases\n", *budget, ran)
			break
		}
		s := first + i
		c, err := difftest.New(s, difftest.Options{})
		if err != nil {
			fmt.Fprintf(stderr, "seed %d: generation failed: %v\n", s, err)
			return 1
		}
		caseErr := difftest.RunAll(c)
		ran++
		if *verbose && caseErr == nil {
			fmt.Fprintf(stdout, "seed %d: ok (%d routers, %d links, %d flows, k=%d %v)\n",
				s, c.Spec.Net.NumRouters(), c.Spec.Net.NumLinks(), len(c.Spec.Flows), c.K, c.Mode)
		}
		if caseErr == nil {
			continue
		}
		fmt.Fprintf(stdout, "seed %d FAILS: %v\n", s, caseErr)
		if !*noShrnk {
			fmt.Fprintln(stdout, "shrinking...")
			c = difftest.Shrink(c, difftest.RunAll)
			fmt.Fprintf(stdout, "minimized failure: %v\n", difftest.RunAll(c))
		}
		txt, ferr := difftest.FormatSpec(c.Spec)
		if ferr != nil {
			fmt.Fprintf(stderr, "cannot format reproducer: %v\n", ferr)
			return 1
		}
		fmt.Fprintf(stdout, "reproducer (seed %d, k=%d, mode %v, overload %g):\n%s",
			c.Seed, c.K, c.Mode, c.OverloadFactor, txt)
		return 1
	}
	fmt.Fprintf(stdout, "%d cases, %d oracles each, zero disagreements (%.1fs)\n",
		ran, len(difftest.Battery()), time.Since(t0).Seconds())
	return 0
}
