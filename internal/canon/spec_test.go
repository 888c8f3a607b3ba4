package canon

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/flowgen"
	"github.com/yu-verify/yu/internal/gen"
)

// daemonWAN is the daemon benchmark's input shape: a 60-router, 120-link
// WAN with 36 prefixes, SR policies on a tenth of the routers, and 3 000
// random flows, at k = 1 — a 344 KB spec.
func daemonWAN(t testing.TB) *config.Spec {
	t.Helper()
	spec, err := gen.WAN(gen.WANSpec{Routers: 60, Links: 120, Prefixes: 36, SRPolicyFraction: 0.1, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	spec.Flows, err = flowgen.Random(spec, flowgen.RandomSpec{Count: 3000, DSCP5Fraction: 0.3, DistinctDstPerPrefix: 4, Seed: 110})
	if err != nil {
		t.Fatal(err)
	}
	spec.K = 1
	return spec
}

// TestFormatSpecPinned pins the renderer's bytes. Every journaled delta
// batch is bound to a checksum of the canonical text it produced, so a
// renderer that moves one byte would make a restarted daemon refuse — and
// truncate — every journal written before it; the round-trip fixpoint
// tests cannot see such a move. A digest here changes only with the DSL.
func TestFormatSpecPinned(t *testing.T) {
	pins := map[string]string{
		"misconfig.yu":                 "6bbba23d0986f1930a6cb18e2c666e03a42022a32e94d3eb64512209941594f7",
		"motivating.yu":                "c361b238e65f3cf984f216dc9fd3603908ada56e58c70ba31a2d776dfca7d294",
		"sranycast.yu":                 "e0ac82557e87d45aede690fae569e43f87c4d12be4260096ef91f6114378716e",
		"wan-1.yu":                     "a3edbcd97c52ae946fa681c887b96067f7c45944229fe983422815dc0a201c82",
		"notconverged/disagree.yu":     "3ece18528654f8119609fa73b97f34c5bb3cbb522c25c6313eab72a127b2acca",
		"subprefix/split-failures.yu":  "9d3a31eb705e998d14edc34d03b84560df0e4eb56b5161d74560c4c5c7bdafba",
		"subprefix/split-missed.yu":    "3ffc99a50ad90c92f94d3c6f6d4d8ddec71dd8d6663ccd65abdb2951482de767",
		"subprefix/split-overcount.yu": "778f09fd1d2ffdd94280657308deb924cb53b911a8f1c342ad8341890e1d7ae4",
		"daemon WAN":                   "15c84b6aedfed1bd2d230ea03174af150ea7268fa25320ffba50968c4d98ff83",
	}
	root := filepath.Join("..", "..", "testdata")
	files, err := filepath.Glob(filepath.Join(root, "*.yu"))
	if err != nil {
		t.Fatal(err)
	}
	more, err := filepath.Glob(filepath.Join(root, "*", "*.yu"))
	if err != nil {
		t.Fatal(err)
	}
	specs := map[string]*config.Spec{"daemon WAN": daemonWAN(t)}
	for _, path := range append(files, more...) {
		name, _ := filepath.Rel(root, path)
		name = filepath.ToSlash(name)
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if specs[name], err = config.ParseSpecString(string(text)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	for name, spec := range specs {
		want, ok := pins[name]
		if !ok {
			t.Errorf("%s has no pinned digest", name)
			continue
		}
		text, err := FormatSpec(spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := sha256.Sum256([]byte(text))
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s: FormatSpec digest %s, pinned %s", name, got, want)
		}
	}
	for name := range pins {
		if specs[name] == nil {
			t.Errorf("pinned %s is gone from testdata", name)
		}
	}
}

// BenchmarkSpecRoundTrip times the two halves of what a daemon delta pays
// on the canonical text twice: parsing the daemon-sized WAN's text and
// rendering its spec, reported apart as parse-ms and render-ms.
func BenchmarkSpecRoundTrip(b *testing.B) {
	text, err := FormatSpec(daemonWAN(b))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	var parse, render time.Duration
	for i := 0; i < b.N; i++ {
		start := time.Now()
		spec, err := config.ParseSpecString(text)
		if err != nil {
			b.Fatal(err)
		}
		mid := time.Now()
		out, err := FormatSpec(spec)
		if err != nil {
			b.Fatal(err)
		}
		parse += mid.Sub(start)
		render += time.Since(mid)
		if out != text {
			b.Fatal("the canonical text is not its own fixpoint")
		}
	}
	b.ReportMetric(float64(parse.Microseconds())/1e3/float64(b.N), "parse-ms")
	b.ReportMetric(float64(render.Microseconds())/1e3/float64(b.N), "render-ms")
}
