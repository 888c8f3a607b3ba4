package routesim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// endGroup marks the end of a rank group in a walk's event list; every
// other event is the index of a built offer.
const endGroup = -1

// refWalk is the walk walkGroups replaces: sort the offers stably by rank,
// so arrival order is kept among ties, and walk the groups in that order,
// stopping after group cover (counted from 0). It returns the walk's events
// and how many offers it walked.
func refWalk(offers []offer, cover int) (events []int32, walked int) {
	sorted := slices.Clone(offers)
	slices.SortStableFunc(sorted, func(a, b offer) int { return a.rank.compare(b.rank) })
	for g := 0; walked < len(sorted); g++ {
		rank := sorted[walked].rank
		for ; walked < len(sorted) && sorted[walked].rank == rank; walked++ {
			events = append(events, sorted[walked].i)
		}
		if events = append(events, endGroup); g == cover {
			break
		}
	}
	return events, walked
}

// scanWalk runs walkGroups, stopping after group cover, and returns its
// events and how many offers it walked.
func scanWalk(offers []offer, cover int) (events []int32, walked int) {
	g := 0
	walked = walkGroups(offers,
		func(o offer) { events = append(events, o.i) },
		func() bool {
			events = append(events, endGroup)
			g++
			return g > cover
		})
	return events, walked
}

// randomOffers draws n offers whose rank keys come from a pool of a few
// keys, so ranks tie and interleave in arrival order. Offer i has index i.
func randomOffers(rng *rand.Rand, n int) []offer {
	pool := make([]rankKey, 1+rng.Intn(6))
	for k := range pool {
		pool[k] = rankKey{
			localPref: uint32(100 + 100*rng.Intn(2)),
			local:     rng.Intn(4) == 0,
			pathLen:   int32(rng.Intn(3)),
			ebgp:      rng.Intn(2) == 0,
			igpCost:   int64(5 * rng.Intn(3)),
		}
	}
	offers := make([]offer, n)
	for i := range offers {
		offers[i] = offer{rank: pool[rng.Intn(len(pool))], i: int32(i)}
	}
	return offers
}

// TestWalkGroupsOrder: the scan walk builds exactly the offers the sorted
// walk built, in the same order, group by group, and stops at the same
// group, over random offers with ties, interleaved ranks, covers at every
// group and groups past the cover. Arrival order among ties is what the
// ECMP insertion order and every ReduceOr chain of a merge follow.
func TestWalkGroupsOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 2000; trial++ {
		offers := randomOffers(rng, rng.Intn(41))
		groups := 0
		for i, o := range offers {
			if !slices.ContainsFunc(offers[:i], func(p offer) bool { return p.rank == o.rank }) {
				groups++
			}
		}
		// cover == groups: no group covers, the walk runs out of offers.
		cover := rng.Intn(groups + 1)
		want, wantWalked := refWalk(offers, cover)
		got, gotWalked := scanWalk(offers, cover)
		if !slices.Equal(got, want) || gotWalked != wantWalked {
			t.Fatalf("trial %d, %d offers in %d groups, cover after group %d:\nscan   %v (%d walked)\nsorted %v (%d walked)\noffers %s",
				trial, len(offers), groups, cover, got, gotWalked, want, wantWalked, formatOffers(offers))
		}
	}
}

func formatOffers(offers []offer) string {
	var s string
	for _, o := range offers {
		s += fmt.Sprintf("\n  %d: %+v", o.i, o.rank)
	}
	return s
}
