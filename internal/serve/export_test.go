package serve

import (
	"testing"

	"github.com/yu-verify/yu/internal/canon"
	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/flowgen"
	"github.com/yu-verify/yu/internal/gen"
)

// StoreLen is the warm store's entry count, for the external tests that
// hold it to CacheLimit.
func (s *Server) StoreLen() int { return s.store.len() }

// StoreLayout is what the warm store holds: the snapshot entries of every
// list an entry names, and the entries the snapshots sealing each entry's STF
// alone would hold.
func (s *Server) StoreLayout() (lists, perClass int) { return layout(&s.store.store) }

// LoadStoreLayout is StoreLayout of the server's store of loads, with its
// entry count and bound.
func (s *Server) LoadStoreLayout() (lists, perLoad, n, limit int) {
	lists, perLoad = layout(&s.loads)
	return lists, perLoad, s.loads.len(), loadLimit
}

func layout[L sealedList[L]](st *store[L]) (lists, perEntry int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	seen := make(map[L]bool)
	for _, gen := range []map[cacheKey]entry[L]{st.cur, st.prev} {
		for _, e := range gen {
			perEntry += e.l.Sub([]int{e.i}).Len()
			if !seen[e.l] {
				seen[e.l] = true
				lists += e.l.Len()
			}
		}
	}
	return lists, perEntry
}

// WANText renders a generated WAN with random flows (k = 1) as canonical
// spec text — the generated input of the white-box and the external tests.
func WANText(t testing.TB, routers, links, prefixes, flows int, seed int64) (*config.Spec, string) {
	t.Helper()
	spec, err := gen.WAN(gen.WANSpec{Routers: routers, Links: links, Prefixes: prefixes, SRPolicyFraction: 0.1, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	spec.Flows, err = flowgen.Random(spec, flowgen.RandomSpec{Count: flows, DSCP5Fraction: 0.3, DistinctDstPerPrefix: 4, Seed: seed + 100})
	if err != nil {
		t.Fatal(err)
	}
	spec.K = 1
	text, err := canon.FormatSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return spec, text
}
