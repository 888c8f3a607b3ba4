package concrete

import (
	"net/netip"
	"sort"

	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/topo"
)

// route is one concrete BGP route.
type route struct {
	prefix    netip.Prefix
	nextHop   netip.Addr
	direct    bool
	outEdge   topo.DirLinkID
	nhRouter  topo.RouterID
	deliver   bool
	discard   bool
	advOnly   bool
	asPath    []uint32
	localPref uint32
	fromEBGP  bool
	igpCost   int64
}

func (r *route) better(o *route) bool {
	if r.localPref != o.localPref {
		return r.localPref > o.localPref
	}
	rl, ol := r.deliver || r.discard || r.advOnly, o.deliver || o.discard || o.advOnly
	if rl != ol {
		return rl
	}
	if len(r.asPath) != len(o.asPath) {
		return len(r.asPath) < len(o.asPath)
	}
	if r.fromEBGP != o.fromEBGP {
		return r.fromEBGP
	}
	if r.igpCost != o.igpCost {
		return r.igpCost < o.igpCost
	}
	return false
}

func (r *route) key() string {
	k := r.nextHop.String()
	if r.direct {
		k += "|d"
	}
	if r.deliver {
		k += "|D"
	}
	if r.discard {
		k += "|X"
	}
	if r.advOnly {
		k += "|A"
	}
	if r.fromEBGP {
		k += "|e"
	}
	for _, as := range r.asPath {
		k += "|" + itoa(as)
	}
	k += "|" + itoa(r.localPref)
	k += "|" + itoa(uint32(r.igpCost>>20)) + itoa(uint32(r.igpCost)&0xfffff)
	return k
}

func itoa(v uint32) string {
	if v == 0 {
		return "0"
	}
	var b [10]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// bgpState holds each router's concrete RIB: per prefix, the full
// candidate list sorted most-preferred first.
type bgpState struct {
	ribs []map[netip.Prefix][]*route
}

// bestGroup returns the ECMP set: the most-preferred candidates.
func bestGroup(cands []*route) []*route {
	if len(cands) == 0 {
		return nil
	}
	best := cands[:1]
	for _, c := range cands[1:] {
		if !best[0].better(c) && !c.better(best[0]) {
			best = append(best, c)
		}
	}
	return best
}

// computeBGP runs concrete BGP propagation to a fixed point under one
// scenario, mirroring the symbolic simulator's semantics: multipath
// selection, iBGP next-hop-self, AS-path loop rejection, no iBGP
// re-advertisement, export-deny policies.
func (s *Sim) computeBGP(sc *Scenario, igp *igpState) *bgpState {
	n := s.net.NumRouters()
	st := &bgpState{ribs: make([]map[netip.Prefix][]*route, n)}

	seeds := make([]map[netip.Prefix][]*route, n)
	for i := 0; i < n; i++ {
		seeds[i] = make(map[netip.Prefix][]*route)
		if sc.RouterDown[i] {
			continue
		}
		r := s.net.Router(topo.RouterID(i))
		for _, pfx := range s.networks[i] {
			seeds[i][pfx] = append(seeds[i][pfx], &route{
				prefix: pfx, nextHop: r.Loopback, nhRouter: r.ID,
				deliver: true, localPref: config.DefaultLocalPref,
			})
		}
		if s.redistrib[i] {
			for _, stc := range s.statics[i] {
				if !stc.Discard {
					if d, ok := s.net.DirLinkToAddr(stc.NextHop); ok {
						if !sc.EdgeUp(s.net.Edge(d)) {
							continue
						}
					}
				}
				seeds[i][stc.Prefix] = append(seeds[i][stc.Prefix], &route{
					prefix: stc.Prefix, nextHop: r.Loopback, nhRouter: r.ID,
					discard: stc.Discard, advOnly: true, localPref: config.DefaultLocalPref,
				})
			}
		}
	}

	type sess struct {
		from, to   topo.RouterID
		ebgp       bool
		edge       topo.DirEdge
		importPref uint32
		deny       []netip.Prefix
	}
	var sessions []sess
	for i := 0; i < n; i++ {
		recv := topo.RouterID(i)
		r := s.net.Router(recv)
		for _, nb := range s.neighbors[i] {
			if nb.RemoteAS == r.AS {
				peer, ok := s.net.RouterByLoopback(nb.Addr)
				if !ok {
					continue
				}
				sessions = append(sessions, sess{from: peer.ID, to: recv})
			} else if d, ok := s.net.DirLinkToAddr(nb.Addr); ok {
				e := s.net.Edge(d)
				pref := nb.LocalPref
				if pref == 0 {
					pref = config.DefaultLocalPref
				}
				sessions = append(sessions, sess{from: e.To, to: recv, ebgp: true, edge: e, importPref: pref})
			}
		}
	}
	// Attach exporter-side deny lists.
	for i := 0; i < n; i++ {
		r := s.net.Router(topo.RouterID(i))
		for _, nb := range s.neighbors[i] {
			if len(nb.ExportDeny) == 0 {
				continue
			}
			var peer topo.RouterID = -1
			if nb.RemoteAS == r.AS {
				if p, ok := s.net.RouterByLoopback(nb.Addr); ok {
					peer = p.ID
				}
			} else if d, ok := s.net.DirLinkToAddr(nb.Addr); ok {
				peer = s.net.Edge(d).To
			}
			for j := range sessions {
				if sessions[j].from == r.ID && sessions[j].to == peer {
					sessions[j].deny = nb.ExportDeny
				}
			}
		}
	}

	ribs := seeds
	maxRounds := s.net.RoundBound()
	for round := 0; round < maxRounds; round++ {
		next := make([]map[netip.Prefix][]*route, n)
		for i := 0; i < n; i++ {
			next[i] = make(map[netip.Prefix][]*route)
			for pfx, cands := range seeds[i] {
				next[i][pfx] = append([]*route(nil), cands...)
			}
		}
		for _, ss := range sessions {
			if sc.RouterDown[ss.from] || sc.RouterDown[ss.to] {
				continue
			}
			if ss.ebgp {
				if !sc.EdgeUp(ss.edge) {
					continue
				}
			} else if !igp.reach(ss.from, ss.to) {
				continue
			}
			fromR := s.net.Router(ss.from)
			toR := s.net.Router(ss.to)
			for pfx, cands := range ribs[ss.from] {
				if deniedPfx(ss.deny, pfx) {
					continue
				}
				// One advertisement per session: the representative of
				// the best present group with the least AS path
				// (mirrors the symbolic simulator's rank-group rule).
				group := bestGroup(cands)
				if len(group) == 0 {
					continue
				}
				c := group[0]
				for _, g := range group[1:] {
					if lessASPathConc(g.asPath, c.asPath) {
						c = g
					}
				}
				{
					if !ss.ebgp && !c.fromEBGP && !(c.deliver || c.discard || c.advOnly) {
						continue
					}
					adv := &route{prefix: pfx}
					if ss.ebgp {
						if hasASConc(c.asPath, toR.AS) {
							continue
						}
						adv.asPath = append([]uint32{fromR.AS}, c.asPath...)
						adv.nextHop = ss.edge.RemoteAddr
						adv.direct = true
						adv.outEdge = ss.edge.DirLink
						adv.localPref = ss.importPref
						adv.fromEBGP = true
					} else {
						adv.asPath = c.asPath
						adv.nextHop = fromR.Loopback
						adv.nhRouter = ss.from
						adv.localPref = c.localPref
						// Static hot-potato tiebreak, mirroring the
						// symbolic simulator.
						if d := s.baseDist(ss.to, ss.from); d >= 0 {
							adv.igpCost = d
						} else {
							adv.igpCost = 1 << 50
						}
					}
					next[ss.to][pfx] = append(next[ss.to][pfx], adv)
				}
			}
		}
		// Normalize: dedupe and sort.
		stable := true
		for i := 0; i < n; i++ {
			for pfx, cands := range next[i] {
				seen := make(map[string]bool, len(cands))
				out := cands[:0]
				for _, c := range cands {
					k := c.key()
					if !seen[k] {
						seen[k] = true
						out = append(out, c)
					}
				}
				sort.SliceStable(out, func(a, b int) bool { return out[a].better(out[b]) })
				next[i][pfx] = out
			}
			if stable && !sameConcRIB(ribs[i], next[i]) {
				stable = false
			}
		}
		ribs = next
		if stable {
			break
		}
	}
	st.ribs = ribs
	return st
}

func sameConcRIB(a, b map[netip.Prefix][]*route) bool {
	if len(a) != len(b) {
		return false
	}
	for pfx, ac := range a {
		bc, ok := b[pfx]
		if !ok || len(ac) != len(bc) {
			return false
		}
		for i := range ac {
			if ac[i].key() != bc[i].key() {
				return false
			}
		}
	}
	return true
}

func lessASPathConc(a, b []uint32) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

func hasASConc(path []uint32, as uint32) bool {
	for _, a := range path {
		if a == as {
			return true
		}
	}
	return false
}

func deniedPfx(deny []netip.Prefix, pfx netip.Prefix) bool {
	for _, d := range deny {
		if d == pfx {
			return true
		}
	}
	return false
}
