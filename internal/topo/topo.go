// Package topo models the network topology YU verifies: routers,
// bidirectional links with per-direction IGP costs and capacities, and the
// directed-link view used by symbolic traffic execution (§4: "we model a
// network link with directions").
package topo

import (
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"sync"
)

// RouterID identifies a router; IDs are dense indices into Network.Routers.
type RouterID int32

// LinkID identifies an undirected link; IDs are dense indices into
// Network.Links. A single failure variable is associated with each LinkID:
// when a link fails, both directions fail.
type LinkID int32

// Direction selects one of the two directions of an undirected link.
type Direction int8

const (
	// AtoB is the direction from Link.A to Link.B.
	AtoB Direction = 0
	// BtoA is the direction from Link.B to Link.A.
	BtoA Direction = 1
)

// DirLinkID identifies a directed link: 2*LinkID + Direction.
type DirLinkID int32

// MakeDirLinkID composes a directed link ID.
func MakeDirLinkID(l LinkID, d Direction) DirLinkID {
	return DirLinkID(int32(l)*2 + int32(d))
}

// Link returns the undirected link of the directed link.
func (d DirLinkID) Link() LinkID { return LinkID(d / 2) }

// Dir returns the direction component.
func (d DirLinkID) Dir() Direction { return Direction(d % 2) }

// Router is a network device.
type Router struct {
	ID   RouterID
	Name string
	// AS is the autonomous system number the router belongs to.
	AS uint32
	// Loopback is the router's loopback address (used as the BGP router
	// ID, the iBGP session endpoint, and the SR segment identifier).
	Loopback netip.Addr
	// NoFail excludes the router from the failure model (e.g. a stub
	// node standing in for an attached data-center fabric).
	NoFail bool
}

// Link is an undirected link between routers A and B.
type Link struct {
	ID   LinkID
	A, B RouterID
	// CostAB and CostBA are the IGP metrics of the two directions.
	CostAB, CostBA int64
	// Capacity is the link bandwidth in Gbps (same both directions).
	Capacity float64
	// AddrA and AddrB are the interface addresses at the two ends.
	AddrA, AddrB netip.Addr
	// NoFail excludes the link from the failure model (e.g. the
	// attachment link of a destination stub).
	NoFail bool
}

// Endpoint returns the router at the source of the given direction.
func (l *Link) Endpoint(d Direction) RouterID {
	if d == AtoB {
		return l.A
	}
	return l.B
}

// Other returns the router at the destination of the given direction.
func (l *Link) Other(d Direction) RouterID {
	if d == AtoB {
		return l.B
	}
	return l.A
}

// Cost returns the IGP metric of the given direction.
func (l *Link) Cost(d Direction) int64 {
	if d == AtoB {
		return l.CostAB
	}
	return l.CostBA
}

// DirEdge is the adjacency-list view of one direction of a link.
type DirEdge struct {
	DirLink    DirLinkID
	From, To   RouterID
	Cost       int64
	Capacity   float64
	LocalAddr  netip.Addr // interface address on From
	RemoteAddr netip.Addr // interface address on To
}

// Network is an immutable topology built by a Builder.
type Network struct {
	Routers []Router
	Links   []Link

	byName map[string]RouterID
	byLoop map[netip.Addr]RouterID
	byIfIP map[netip.Addr]DirLinkID // interface address -> directed link arriving at it
	out    [][]DirEdge              // outgoing edges per router
	in     [][]DirEdge              // incoming edges per router

	// diameter is found on first use, once: WithOwnLinks copies share it
	// with the adjacency it is the diameter of.
	diameter *diameter
}

type diameter struct {
	once sync.Once
	hops int
}

// NumRouters returns the number of routers.
func (n *Network) NumRouters() int { return len(n.Routers) }

// NumLinks returns the number of undirected links.
func (n *Network) NumLinks() int { return len(n.Links) }

// Router returns the router with the given ID.
func (n *Network) Router(id RouterID) *Router { return &n.Routers[id] }

// Link returns the undirected link with the given ID.
func (n *Network) Link(id LinkID) *Link { return &n.Links[id] }

// WithOwnLinks returns a copy of n that owns its Links slice and shares
// everything else with n: a link attribute written on the copy leaves n as
// it was, but the copy's adjacency lists (Out, In, Edge) still carry n's
// costs and capacities.
func (n *Network) WithOwnLinks() *Network {
	c := *n
	c.Links = slices.Clone(n.Links)
	return &c
}

// RouterByName returns the router named name.
func (n *Network) RouterByName(name string) (*Router, bool) {
	id, ok := n.byName[name]
	if !ok {
		return nil, false
	}
	return &n.Routers[id], true
}

// RouterByLoopback resolves a loopback address to its router.
func (n *Network) RouterByLoopback(a netip.Addr) (*Router, bool) {
	id, ok := n.byLoop[a]
	if !ok {
		return nil, false
	}
	return &n.Routers[id], true
}

// DirLinkToAddr resolves an interface address to the directed link whose
// remote end carries that address (i.e. the directed link a packet takes to
// reach a next hop with that interface address).
func (n *Network) DirLinkToAddr(a netip.Addr) (DirLinkID, bool) {
	d, ok := n.byIfIP[a]
	return d, ok
}

// Out returns the outgoing directed edges of router r.
func (n *Network) Out(r RouterID) []DirEdge { return n.out[r] }

// In returns the incoming directed edges of router r.
func (n *Network) In(r RouterID) []DirEdge { return n.in[r] }

// Edge returns the DirEdge view of a directed link.
func (n *Network) Edge(d DirLinkID) DirEdge {
	l := n.Link(d.Link())
	from := l.Endpoint(d.Dir())
	for _, e := range n.out[from] {
		if e.DirLink == d {
			return e
		}
	}
	panic(fmt.Sprintf("topo: directed link %d not in adjacency of %s", d, n.Routers[from].Name))
}

// FindLink returns the undirected link between two named routers.
func (n *Network) FindLink(a, b string) (*Link, bool) {
	ra, ok1 := n.byName[a]
	rb, ok2 := n.byName[b]
	if !ok1 || !ok2 {
		return nil, false
	}
	for _, e := range n.out[ra] {
		if e.To == rb {
			return &n.Links[e.DirLink.Link()], true
		}
	}
	return nil, false
}

// FindDirLink returns the directed link from router a to router b.
func (n *Network) FindDirLink(a, b string) (DirLinkID, bool) {
	ra, ok1 := n.byName[a]
	rb, ok2 := n.byName[b]
	if !ok1 || !ok2 {
		return 0, false
	}
	for _, e := range n.out[ra] {
		if e.To == rb {
			return e.DirLink, true
		}
	}
	return 0, false
}

// DirLinkName renders a directed link as "A->B" for diagnostics.
func (n *Network) DirLinkName(d DirLinkID) string {
	l := n.Link(d.Link())
	return n.Routers[l.Endpoint(d.Dir())].Name + "->" + n.Routers[l.Other(d.Dir())].Name
}

// LinkName renders an undirected link as "A-B".
func (n *Network) LinkName(id LinkID) string {
	l := n.Link(id)
	return n.Routers[l.A].Name + "-" + n.Routers[l.B].Name
}

// RoutersInAS returns the IDs of all routers in the given AS, sorted.
func (n *Network) RoutersInAS(as uint32) []RouterID {
	var out []RouterID
	for _, r := range n.Routers {
		if r.AS == as {
			out = append(out, r.ID)
		}
	}
	return out
}

// ASes returns the sorted set of AS numbers present in the network.
func (n *Network) ASes() []uint32 {
	set := make(map[uint32]struct{})
	for _, r := range n.Routers {
		set[r.AS] = struct{}{}
	}
	out := make([]uint32, 0, len(set))
	for as := range set {
		out = append(out, as)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// HopBound is the forwarding iteration cap (Algorithm 1's I, the TTL
// analogue) for a network whose longest SR segment list has longestSR
// entries: every segment may cost a full traversal, plus one for the plain
// IP tail and one of slack. The symbolic engine and the concrete simulator
// both stop here, so on a forwarding loop they truncate the same series at
// the same depth and a symbolic witness value replays exactly.
func (n *Network) HopBound(longestSR int) int {
	if b := (longestSR + 2) * (n.Diameter() + 2); b > 16 {
		return b
	}
	return 16
}

// RoundBound is the synchronous-round budget of BGP propagation, shared by
// every driver of the symbolic Stepper and by the concrete simulator. A
// loop-free path-vector derivation visits no router twice, so a route is
// at most NumRouters advertisements from its origin (the no-KREDUCE
// ablation, whose guards keep every simple path, needs them: 17 rounds on
// FT-4); twice the diameter plus slack covers small networks' re-selection
// ripple. A system still moving at the bound is not converging.
func (n *Network) RoundBound() int {
	return max(2*n.Diameter()+8, n.NumRouters()+2)
}

// Diameter returns the hop-count diameter of the network (ignoring costs),
// used to bound symbolic execution iterations. Disconnected pairs are
// ignored. An empty or single-router network has diameter 0. The adjacency
// is fixed once built, so the search runs once a network, on first use.
func (n *Network) Diameter() int {
	d := n.diameter
	d.once.Do(func() { d.hops = n.bfsDiameter() })
	return d.hops
}

// bfsDiameter finds the diameter by a breadth-first search from every
// router.
func (n *Network) bfsDiameter() int {
	max := 0
	dist := make([]int, len(n.Routers))
	queue := make([]RouterID, 0, len(n.Routers))
	for s := range n.Routers {
		for i := range dist {
			dist[i] = -1
		}
		dist[s] = 0
		queue = queue[:0]
		queue = append(queue, RouterID(s))
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, e := range n.out[u] {
				if dist[e.To] < 0 {
					dist[e.To] = dist[u] + 1
					if dist[e.To] > max {
						max = dist[e.To]
					}
					queue = append(queue, e.To)
				}
			}
		}
	}
	return max
}
