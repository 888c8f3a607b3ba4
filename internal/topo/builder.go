package topo

import (
	"fmt"
	"net/netip"
)

// Builder accumulates routers and links and produces an immutable Network.
// The zero value is ready to use.
type Builder struct {
	routers []Router
	links   []Link
	byName  map[string]RouterID
	err     error

	nextLoopback uint32 // auto-assigned loopbacks 10.0.<hi>.<lo>
	nextLinkNet  uint32 // auto-assigned /31s from 172.16.0.0/12
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{byName: make(map[string]RouterID)}
}

// RouterOpt customizes a router added via AddRouter.
type RouterOpt func(*Router)

// WithLoopback sets an explicit loopback address.
func WithLoopback(a netip.Addr) RouterOpt {
	return func(r *Router) { r.Loopback = a }
}

// RouterNoFail excludes the router from the failure model.
func RouterNoFail() RouterOpt {
	return func(r *Router) { r.NoFail = true }
}

// AddRouter adds a router with the given name and AS number and returns its
// ID. Duplicate names record an error surfaced by Build.
func (b *Builder) AddRouter(name string, as uint32, opts ...RouterOpt) RouterID {
	if _, dup := b.byName[name]; dup {
		b.fail(fmt.Errorf("duplicate router name %q", name))
		return -1
	}
	id := RouterID(len(b.routers))
	r := Router{ID: id, Name: name, AS: as}
	for _, o := range opts {
		o(&r)
	}
	if !r.Loopback.IsValid() {
		b.nextLoopback++
		r.Loopback = netip.AddrFrom4([4]byte{10, 0, byte(b.nextLoopback >> 8), byte(b.nextLoopback)})
	}
	b.routers = append(b.routers, r)
	b.byName[name] = id
	return id
}

// LinkOpt customizes a link added via AddLink.
type LinkOpt func(*Link)

// WithCost sets the IGP metric for both directions.
func WithCost(c int64) LinkOpt {
	return func(l *Link) { l.CostAB, l.CostBA = c, c }
}

// WithAsymCost sets per-direction IGP metrics.
func WithAsymCost(ab, ba int64) LinkOpt {
	return func(l *Link) { l.CostAB, l.CostBA = ab, ba }
}

// WithCapacity sets the link capacity in Gbps.
func WithCapacity(gbps float64) LinkOpt {
	return func(l *Link) { l.Capacity = gbps }
}

// WithAddrs sets explicit interface addresses for the A and B ends.
func WithAddrs(a, bAddr netip.Addr) LinkOpt {
	return func(l *Link) { l.AddrA, l.AddrB = a, bAddr }
}

// LinkNoFail excludes the link from the failure model.
func LinkNoFail() LinkOpt {
	return func(l *Link) { l.NoFail = true }
}

// DefaultLinkCost is the IGP metric assigned when WithCost is not given,
// mirroring the motivating example's uniform 10000 metric.
const DefaultLinkCost = 10000

// DefaultCapacity is the capacity in Gbps assigned when WithCapacity is
// not given (the motivating example's 100 Gbps links).
const DefaultCapacity = 100

// AddLink adds an undirected link between the named routers and returns
// its ID. Unknown router names record an error surfaced by Build.
func (b *Builder) AddLink(a, bName string, opts ...LinkOpt) LinkID {
	ra, ok1 := b.byName[a]
	rb, ok2 := b.byName[bName]
	if !ok1 || !ok2 {
		b.fail(fmt.Errorf("link %s-%s references unknown router", a, bName))
		return -1
	}
	if ra == rb {
		b.fail(fmt.Errorf("self-link on router %s", a))
		return -1
	}
	id := LinkID(len(b.links))
	l := Link{ID: id, A: ra, B: rb, CostAB: DefaultLinkCost, CostBA: DefaultLinkCost, Capacity: DefaultCapacity}
	for _, o := range opts {
		o(&l)
	}
	if !l.AddrA.IsValid() || !l.AddrB.IsValid() {
		// Auto-assign a /31 from 172.16.0.0/12: each link consumes two
		// consecutive addresses.
		base := uint32(172)<<24 | uint32(16)<<16 | b.nextLinkNet*2
		b.nextLinkNet++
		l.AddrA = netip.AddrFrom4([4]byte{byte(base >> 24), byte(base >> 16), byte(base >> 8), byte(base)})
		base++
		l.AddrB = netip.AddrFrom4([4]byte{byte(base >> 24), byte(base >> 16), byte(base >> 8), byte(base)})
	}
	b.links = append(b.links, l)
	return id
}

func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// Build validates the accumulated topology and returns the immutable
// Network.
func (b *Builder) Build() (*Network, error) {
	if b.err != nil {
		return nil, b.err
	}
	n := &Network{
		Routers:  b.routers,
		Links:    b.links,
		byName:   b.byName,
		byLoop:   make(map[netip.Addr]RouterID, len(b.routers)),
		byIfIP:   make(map[netip.Addr]DirLinkID, 2*len(b.links)),
		out:      make([][]DirEdge, len(b.routers)),
		in:       make([][]DirEdge, len(b.routers)),
		diameter: new(diameter),
	}
	for _, r := range b.routers {
		if prev, dup := n.byLoop[r.Loopback]; dup {
			return nil, fmt.Errorf("routers %s and %s share loopback %s",
				n.Routers[prev].Name, r.Name, r.Loopback)
		}
		n.byLoop[r.Loopback] = r.ID
	}
	for i := range b.links {
		l := &b.links[i]
		if l.Capacity <= 0 {
			return nil, fmt.Errorf("link %s has non-positive capacity", n.LinkName(l.ID))
		}
		// IS-IS metrics are positive, and both shortest-path computations
		// (the symbolic cost-ordered sweep, the concrete Dijkstra) settle a
		// cost level from strictly cheaper ones only.
		if l.CostAB < 1 || l.CostBA < 1 {
			return nil, fmt.Errorf("link %s has a non-positive IGP cost (%d/%d)", n.LinkName(l.ID), l.CostAB, l.CostBA)
		}
		for _, d := range []Direction{AtoB, BtoA} {
			from, to := l.Endpoint(d), l.Other(d)
			local, remote := l.AddrA, l.AddrB
			if d == BtoA {
				local, remote = l.AddrB, l.AddrA
			}
			e := DirEdge{
				DirLink:    MakeDirLinkID(l.ID, d),
				From:       from,
				To:         to,
				Cost:       l.Cost(d),
				Capacity:   l.Capacity,
				LocalAddr:  local,
				RemoteAddr: remote,
			}
			n.out[from] = append(n.out[from], e)
			n.in[to] = append(n.in[to], e)
			if prev, dup := n.byIfIP[remote]; dup {
				return nil, fmt.Errorf("interface address %s used by both %s and %s",
					remote, n.DirLinkName(prev), n.DirLinkName(e.DirLink))
			}
			n.byIfIP[remote] = e.DirLink
		}
	}
	return n, nil
}
