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
	"os"
	"time"

	"github.com/yu-verify/yu/internal/difftest"
)

func main() {
	var (
		n       = flag.Int("n", 100, "number of seeded cases to run")
		start   = flag.Int64("start", 1, "first seed")
		seed    = flag.Int64("seed", 0, "run exactly this seed (overrides -n/-start)")
		budget  = flag.Duration("budget", 0, "stop starting new cases after this long (0 = no budget)")
		noShrnk = flag.Bool("no-shrink", false, "print the failing case unshrunk")
		verbose = flag.Bool("v", false, "log every case")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		flag.Usage()
		os.Exit(2)
	}

	first, count := *start, *n
	if *seed != 0 {
		first, count = *seed, 1
	}
	t0 := time.Now()
	ran := 0
	for i := int64(0); i < int64(count); i++ {
		if *budget > 0 && time.Since(t0) > *budget {
			fmt.Printf("budget %v exhausted after %d cases\n", *budget, ran)
			break
		}
		s := first + i
		c, err := difftest.New(s, difftest.Options{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "seed %d: generation failed: %v\n", s, err)
			os.Exit(1)
		}
		caseErr := difftest.RunAll(c)
		ran++
		if *verbose && caseErr == nil {
			fmt.Printf("seed %d: ok (%d routers, %d links, %d flows, k=%d %v)\n",
				s, c.Spec.Net.NumRouters(), c.Spec.Net.NumLinks(), len(c.Spec.Flows), c.K, c.Mode)
		}
		if caseErr == nil {
			continue
		}
		fmt.Printf("seed %d FAILS: %v\n", s, caseErr)
		if !*noShrnk {
			fmt.Println("shrinking...")
			c = difftest.Shrink(c, difftest.RunAll)
			fmt.Printf("minimized failure: %v\n", difftest.RunAll(c))
		}
		txt, ferr := difftest.FormatSpec(c.Spec)
		if ferr != nil {
			fmt.Fprintf(os.Stderr, "cannot format reproducer: %v\n", ferr)
			os.Exit(1)
		}
		fmt.Printf("reproducer (seed %d, k=%d, mode %v, overload %g):\n%s",
			c.Seed, c.K, c.Mode, c.OverloadFactor, txt)
		os.Exit(1)
	}
	fmt.Printf("%d cases, %d oracles each, zero disagreements (%.1fs)\n",
		ran, len(difftest.Battery()), time.Since(t0).Seconds())
}
