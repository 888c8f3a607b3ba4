package routesim

import (
	"net/netip"
	"testing"

	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/mtbdd"
	"github.com/yu-verify/yu/internal/topo"
)

// coverSpec is a RIB entry whose top rank group covers one link failure: R
// hears 9.0.0.0/24 from A1 and A2 at local-pref 200 over two links, and
// from B at the default 100 over a third. Every router but R originates the
// prefix, so its own seed, present in every scenario, outranks what R
// advertises back to it.
const coverSpec = `
router R as 100 loopback 10.0.0.1
router A1 as 1 loopback 10.0.0.2
router A2 as 2 loopback 10.0.0.3
router B as 3 loopback 10.0.0.4
link R A1 addr-a 1.0.0.1 addr-b 1.0.0.2
link R A2 addr-a 2.0.0.1 addr-b 2.0.0.2
link R B addr-a 3.0.0.1 addr-b 3.0.0.2
auto-bgp-mesh
config A1
  network 9.0.0.0/24
config A2
  network 9.0.0.0/24
config B
  network 9.0.0.0/24
config R
  neighbor 1.0.0.2 remote-as 1 local-pref 200
  neighbor 2.0.0.2 remote-as 2 local-pref 200
`

// TestBGPCutAtCover: an offer ranked below a group that covers every
// scenario of the budget is never built, and the RIBs are the reference
// oracle's, which builds and tests every offer. The offers are counted
// exactly. Seeds: 3 (none cut). Round 1 evaluates R: A1, A2 and B offer,
// and at k = 1 the local-pref-200 group (link R-A1 or R-A2 up) covers, so
// B's offer — its guard, link R-B up, is not Zero — is cut. Round 2
// evaluates A1, A2 and B: R's advertisement of A1's path is rejected at A1
// (loop) and offered to A2 and B, where the own seed covers and cuts it.
// Nothing moves in round 2. At k = 2 both top links may fail, so B's offer
// is built and kept at R, whose template then holds a second group, B's
// path: in round 2 A1 is offered it, A2 both groups and B A1's path, and
// the seeds cut all four.
func TestBGPCutAtCover(t *testing.T) {
	spec := mustSpec(t, func() (*config.Spec, error) { return config.ParseSpecString(coverSpec) })
	pfx := netip.MustParsePrefix("9.0.0.0/24")
	for _, tc := range []struct {
		k          int
		offers     int
		cut        int
		candidates int // in R's RIB entry
	}{
		{k: 1, offers: 3 + 3 + 1 + 2 + 2, cut: 1 + 1 + 1, candidates: 2},
		{k: 2, offers: 3 + 3 + 2 + 3 + 2, cut: 1 + 2 + 1, candidates: 3},
	} {
		if err := CheckAgainstReference(NewFailVars(mtbdd.New(), spec.Net, topo.FailLinks, tc.k), spec.Configs, nil); err != nil {
			t.Fatalf("k=%d: %v", tc.k, err)
		}
		fv := NewFailVars(mtbdd.New(), spec.Net, topo.FailLinks, tc.k)
		b := ComputeBGP(fv, spec.Configs, ComputeIGP(fv))
		if !b.Converged || b.Rounds != 2 {
			t.Fatalf("k=%d: converged %v in %d rounds, want 2", tc.k, b.Converged, b.Rounds)
		}
		if b.stats.BGPOffers != tc.offers || b.stats.BGPOffersCut != tc.cut {
			t.Errorf("k=%d: %d offers, %d cut; want %d, %d", tc.k, b.stats.BGPOffers, b.stats.BGPOffersCut, tc.offers, tc.cut)
		}
		r := mustRouter(t, spec.Net, "R")
		if got := len(b.RIBs[r.ID][pfx]); got != tc.candidates {
			t.Errorf("k=%d: R holds %d candidates, want %d", tc.k, got, tc.candidates)
		}
	}
}
