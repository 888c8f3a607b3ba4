// Package config models router configurations — BGP (eBGP/iBGP), static
// routes, and segment-routing policies — and parses the textual network
// specification format used by the CLI tools and examples.
//
// IS-IS needs no per-router configuration here: the IGP domain is the
// router's AS, link metrics live on the topology, and every router
// advertises its loopback into the IGP, matching the paper's setting.
package config

import (
	"fmt"
	"net/netip"

	"github.com/yu-verify/yu/internal/topo"
)

// DefaultLocalPref is the BGP local preference applied when a neighbor
// does not override it.
const DefaultLocalPref = 100

// AnyDSCP makes an SR policy match any DSCP value.
const AnyDSCP = -1

// BGPNeighbor describes one BGP session. For eBGP the peer address is the
// neighbor's interface address on the shared link and the session is alive
// iff that link (and both routers) are alive. For iBGP the peer address is
// the neighbor's loopback and the session is alive iff the IGP can reach
// the loopback.
type BGPNeighbor struct {
	// Addr is the peer address (interface address for eBGP, loopback for
	// iBGP).
	Addr netip.Addr
	// RemoteAS is the peer's AS number; equal to the local AS for iBGP.
	RemoteAS uint32
	// LocalPref is assigned to routes learned from this neighbor.
	// Zero means DefaultLocalPref.
	LocalPref uint32
	// NextHopSelf makes the router rewrite the next hop to its own
	// loopback when advertising to this (iBGP) neighbor. Border routers
	// conventionally set this. (The symbolic simulator always applies
	// next-hop-self on iBGP exports; the flag documents intent.)
	NextHopSelf bool
	// ExportDeny suppresses advertising the listed prefixes to this
	// neighbor (exact match) — the export-policy pattern behind the
	// paper's Figure 10 misconfiguration.
	ExportDeny []netip.Prefix
}

// StaticRoute is a locally configured route. A Discard route drops
// matching traffic (null0), as in the paper's Figure 10 use case.
type StaticRoute struct {
	Prefix  netip.Prefix
	NextHop netip.Addr // used when !Discard; an interface address
	Discard bool
}

// SRPath is one weighted path of an SR policy: an explicit segment list of
// router loopbacks. Traffic on the path is tunneled segment by segment,
// with each segment resolved over the IGP.
type SRPath struct {
	Segments []netip.Addr
	Weight   int64
}

// SRPolicy steers traffic whose resolved BGP next hop matches Endpoint
// (and whose DSCP matches MatchDSCP) onto a weighted set of explicit
// paths, mirroring the motivating example's
// "route 10.0.0.6/32, match dscp 5" policy.
type SRPolicy struct {
	Endpoint  netip.Prefix
	MatchDSCP int // AnyDSCP matches all
	Paths     []SRPath
}

// Matches reports whether the policy applies to the given next hop and
// DSCP value.
func (p *SRPolicy) Matches(nip netip.Addr, dscp uint8) bool {
	if !p.Endpoint.Contains(nip) {
		return false
	}
	return p.MatchDSCP == AnyDSCP || p.MatchDSCP == int(dscp)
}

// TotalWeight returns the sum of path weights.
func (p *SRPolicy) TotalWeight() int64 {
	var w int64
	for _, path := range p.Paths {
		w += path.Weight
	}
	return w
}

// Router is the full configuration of one device.
type Router struct {
	Name string
	// Networks are prefixes the router originates into BGP.
	Networks []netip.Prefix
	// Neighbors are the router's BGP sessions.
	Neighbors []BGPNeighbor
	// Statics are locally configured static routes.
	Statics []StaticRoute
	// RedistributeStatic injects static routes into BGP (Figure 10's
	// misconfiguration pattern).
	RedistributeStatic bool
	// SRPolicies are the router's segment-routing policies.
	SRPolicies []SRPolicy
}

// Configs maps router names to configurations. Routers without an entry
// run IS-IS only.
type Configs map[string]*Router

// Get returns the configuration for name, creating an empty one if absent.
func (c Configs) Get(name string) *Router {
	r, ok := c[name]
	if !ok {
		r = &Router{Name: name}
		c[name] = r
	}
	return r
}

// LongestSRPath returns the segment count of the longest configured SR
// path — the input of topo.Network.HopBound.
func (c Configs) LongestSRPath() int {
	longest := 0
	for _, rc := range c {
		for _, p := range rc.SRPolicies {
			for _, path := range p.Paths {
				if len(path.Segments) > longest {
					longest = len(path.Segments)
				}
			}
		}
	}
	return longest
}

// Validate cross-checks configurations against the topology: neighbor
// addresses must resolve to a link interface or loopback, static next hops
// must resolve, and SR segment lists must name router loopbacks.
func (c Configs) Validate(n *topo.Network) error {
	for name, rc := range c {
		r, ok := n.RouterByName(name)
		if !ok {
			return fmt.Errorf("config for unknown router %q", name)
		}
		for _, nb := range rc.Neighbors {
			if nb.RemoteAS == r.AS {
				// iBGP: peer must be a loopback in the same AS.
				peer, ok := n.RouterByLoopback(nb.Addr)
				if !ok {
					return fmt.Errorf("%s: iBGP neighbor %s is not a loopback", name, nb.Addr)
				}
				if peer.AS != r.AS {
					return fmt.Errorf("%s: iBGP neighbor %s is in AS %d, not %d", name, nb.Addr, peer.AS, r.AS)
				}
			} else {
				// eBGP: peer must be the far end of one of our links.
				d, ok := n.DirLinkToAddr(nb.Addr)
				if !ok {
					return fmt.Errorf("%s: eBGP neighbor %s is not an interface address", name, nb.Addr)
				}
				e := n.Edge(d)
				if e.From != r.ID {
					return fmt.Errorf("%s: eBGP neighbor %s is not directly connected", name, nb.Addr)
				}
				if got := n.Router(e.To).AS; got != nb.RemoteAS {
					return fmt.Errorf("%s: eBGP neighbor %s has AS %d, config says %d", name, nb.Addr, got, nb.RemoteAS)
				}
			}
		}
		for _, s := range rc.Statics {
			if s.Discard {
				continue
			}
			// An interface next hop must be the far end of one of our links,
			// as for eBGP neighbors; otherwise it names a loopback.
			if d, ok := n.DirLinkToAddr(s.NextHop); ok {
				if n.Edge(d).From != r.ID {
					return fmt.Errorf("%s: static route %s next hop %s is not directly connected", name, s.Prefix, s.NextHop)
				}
			} else if _, ok := n.RouterByLoopback(s.NextHop); !ok {
				return fmt.Errorf("%s: static route %s next hop %s unresolvable", name, s.Prefix, s.NextHop)
			}
		}
		for _, p := range rc.SRPolicies {
			if len(p.Paths) == 0 {
				return fmt.Errorf("%s: SR policy %s has no paths", name, p.Endpoint)
			}
			for _, path := range p.Paths {
				if len(path.Segments) == 0 {
					return fmt.Errorf("%s: SR policy %s has an empty segment list", name, p.Endpoint)
				}
				if path.Weight <= 0 {
					return fmt.Errorf("%s: SR policy %s has non-positive weight", name, p.Endpoint)
				}
				for _, seg := range path.Segments {
					if _, ok := n.RouterByLoopback(seg); !ok {
						return fmt.Errorf("%s: SR segment %s is not a router loopback", name, seg)
					}
				}
			}
		}
	}
	return nil
}

// EBGPSessionsFullMesh adds eBGP sessions between every pair of directly
// connected routers in different ASes, and iBGP full mesh (with
// next-hop-self on AS border routers) inside every AS — the conventional
// WAN arrangement of the paper's examples. Existing sessions are kept.
func EBGPSessionsFullMesh(n *topo.Network, c Configs) {
	// eBGP on every inter-AS link.
	isBorder := make(map[topo.RouterID]bool)
	for li := range n.Links {
		l := n.Link(topo.LinkID(li))
		ra, rb := n.Router(l.A), n.Router(l.B)
		if ra.AS == rb.AS {
			continue
		}
		isBorder[ra.ID] = true
		isBorder[rb.ID] = true
		addNeighbor(c.Get(ra.Name), BGPNeighbor{Addr: l.AddrB, RemoteAS: rb.AS})
		addNeighbor(c.Get(rb.Name), BGPNeighbor{Addr: l.AddrA, RemoteAS: ra.AS})
	}
	// iBGP full mesh per AS.
	for _, as := range n.ASes() {
		members := n.RoutersInAS(as)
		for _, a := range members {
			for _, b := range members {
				if a == b {
					continue
				}
				ra, rb := n.Router(a), n.Router(b)
				addNeighbor(c.Get(ra.Name), BGPNeighbor{
					Addr:        rb.Loopback,
					RemoteAS:    as,
					NextHopSelf: isBorder[a],
				})
			}
		}
	}
}

func addNeighbor(rc *Router, nb BGPNeighbor) {
	for _, existing := range rc.Neighbors {
		if existing.Addr == nb.Addr {
			return
		}
	}
	rc.Neighbors = append(rc.Neighbors, nb)
}
