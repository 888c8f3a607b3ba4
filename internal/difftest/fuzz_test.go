package difftest

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/yu-verify/yu"
	"github.com/yu-verify/yu/internal/canon"
	"github.com/yu-verify/yu/internal/config"
)

// FuzzBattery is the generator-seed harness: the fuzzer explores the
// space of generator seeds and every generated case must satisfy the full
// oracle battery. The corpus under testdata/fuzz/FuzzBattery pins seeds
// worth keeping forever (including the shapes that historically exposed
// engine-divergence classes: export-deny, via-statics, router mode).
func FuzzBattery(f *testing.F) {
	for _, seed := range []int64{1, 7, 15, 42, 56, 222} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		c, err := New(seed, Options{})
		if err != nil {
			t.Fatalf("seed %d: generate: %v", seed, err)
		}
		if err := RunAll(c); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	})
}

// FuzzDeltas is the incremental-vs-cold harness: the fuzzer explores
// (case seed, delta-sequence seed, length) triples and every sequence of
// generated deltas applied through the daemon must leave its report
// byte-identical to a cold full verification of the final specification
// (see CheckDeltas). The corpus under testdata/fuzz/FuzzDeltas pins
// shapes that exercise each delta kind.
func FuzzDeltas(f *testing.F) {
	f.Add(int64(1), int64(1), int64(2))
	f.Add(int64(7), int64(3), int64(3))
	f.Add(int64(42), int64(5), int64(4))
	f.Add(int64(99), int64(2), int64(3))
	f.Fuzz(func(t *testing.T, caseSeed, deltaSeed, n int64) {
		if n < 1 {
			n = 1
		}
		if n > 5 {
			n = n%5 + 1
		}
		c, err := New(caseSeed, Options{})
		if err != nil {
			t.Fatalf("seed %d: generate: %v", caseSeed, err)
		}
		rng := rand.New(rand.NewSource(deltaSeed))
		if err := CheckDeltas(c, rng, int(n)); err != nil {
			t.Fatalf("case seed %d, delta seed %d, n %d: %v", caseSeed, deltaSeed, n, err)
		}
	})
}

// FuzzTLPPortfolio is the portfolio-robustness harness: arbitrary
// portfolio text against a generated network must either parse-error or
// compile and evaluate cleanly — malformed portfolios are errors, never
// panics, and evaluation of whatever parses must return one verdict per
// property with in-budget witnesses. The corpus under
// testdata/fuzz/FuzzTLPPortfolio pins both shapes: portfolios that
// resolve against the generated r0…rN link names and ones that must be
// rejected (unknown links, inverted bounds, junk keywords, misplaced
// direction arrows).
func FuzzTLPPortfolio(f *testing.F) {
	f.Add(int64(1), "tlp util 0.9")
	f.Add(int64(1), "tlp link r0-r1 max 50\ntlp delivered 100.0.0.0/24 min 1\ntlp ratio 100.0.0.0/16 min 0.5")
	f.Add(int64(1), "tlp link r0-r1 max 10 if-failed r2-r3\ntlp dirlink r0->r1 max 10")
	f.Add(int64(2), "tlp util 0.8 link r4-r5\n# comment\n\nlink r0-r5 min 0 max 20")
	f.Add(int64(1), "tlp link rX-rY max 1")
	f.Add(int64(1), "tlp link r0-r1 min 5 max 1")
	f.Add(int64(1), "tlp frobnicate 1")
	f.Add(int64(1), "tlp util -1\ntlp ratio notaprefix min 0.5")
	f.Add(int64(1), "tlp link r0->r1 max 1\ntlp dirlink r0-r1 max 1")
	f.Fuzz(func(t *testing.T, seed int64, text string) {
		c, err := New(seed, Options{})
		if err != nil {
			t.Fatalf("seed %d: generate: %v", seed, err)
		}
		props, err := config.ParsePortfolioString(text, c.Spec.Net)
		if err != nil {
			return // rejection is the contract for malformed text; panics are not
		}
		res, err := yu.FromSpec(c.Spec).VerifyPortfolio(props, yu.VerifyOptions{
			K: c.K, Mode: c.Mode, ModeSet: true,
		})
		if err != nil {
			t.Fatalf("seed %d: portfolio %q: %v", seed, text, err)
		}
		if len(res.Verdicts) != len(props) {
			t.Fatalf("seed %d: %d verdicts for %d properties", seed, len(res.Verdicts), len(props))
		}
		for i, vd := range res.Verdicts {
			if n := len(vd.FailedLinks) + len(vd.FailedRouters); n > c.K {
				t.Fatalf("seed %d: property %d witness has %d failures, budget %d", seed, i, n, c.K)
			}
		}
		for _, g := range res.Groups {
			for _, pi := range g.Props {
				if pi < 0 || pi >= len(props) {
					t.Fatalf("seed %d: group references property %d of %d", seed, pi, len(props))
				}
			}
		}
		if canon.FormatPortfolio(c.Spec.Net, res) == "" {
			t.Fatalf("seed %d: empty canonical report", seed)
		}
	})
}

// FuzzSpecRoundTrip is the parser/formatter differential: any DSL text the
// parser accepts must format to a fixpoint — Format(Parse(Format(Parse(x))))
// equals Format(Parse(x)) — so cmd/yudiff reproducer specs never drift.
// Unrepresentable-but-parseable specs (FormatSpec returns an error) are
// skipped; parse rejections are fine; panics are not.
func FuzzSpecRoundTrip(f *testing.F) {
	f.Add("router a as 1\nrouter b as 1\nlink a b\nflow f ingress a dst 10.0.0.2 gbps 1\n")
	f.Add("router a as 1\nrouter b as 2\nlink a b cost 5 capacity 10\nauto-bgp-mesh\nconfig a\n  network 100.0.0.0/24\nfailures k 2 mode links\n")
	f.Add("router a as 1 nofail\nrouter b as 1\nlink a b\nproperty link a-b max 7\nproperty delivered 100.0.0.0/24 min 1\n")
	f.Fuzz(func(t *testing.T, text string) {
		n, err := yu.LoadString(text)
		if err != nil {
			return
		}
		txt1, err := FormatSpec(n.Spec())
		if err != nil {
			return // parseable but not representable: fine
		}
		n2, err := yu.LoadString(txt1)
		if err != nil {
			t.Fatalf("formatted spec does not re-parse: %v\n%s", err, txt1)
		}
		txt2, err := FormatSpec(n2.Spec())
		if err != nil {
			t.Fatalf("re-parsed spec does not re-format: %v\n%s", err, txt1)
		}
		if txt1 != txt2 {
			t.Fatalf("format not a fixpoint for input %q:\n--- first ---\n%s--- second ---\n%s",
				strings.TrimSpace(text), txt1, txt2)
		}
	})
}
