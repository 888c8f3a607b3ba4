package config

import (
	"fmt"
	"io"
	"math"
	"net/netip"
	"strconv"
	"strings"
	"unicode/utf8"

	"github.com/yu-verify/yu/internal/topo"
)

// Spec is a fully parsed network specification: topology, device
// configurations, input flows, traffic load properties, and the failure
// budget — everything one verification run needs.
type Spec struct {
	Net       *topo.Network
	Configs   Configs
	Flows     []topo.Flow
	Props     []topo.LoadBound
	Delivered []topo.DeliveredBound
	// Portfolio holds the spec's `tlp` portfolio properties, evaluated by
	// the batch TLP engine (internal/tlp) rather than the legacy
	// per-property checks.
	Portfolio []topo.TLProp
	// Domains is the operator's compositional partition (`domain` lines):
	// domain name → member router names. Empty when the spec declares
	// none; validated against the topology (every router in exactly one
	// domain, domains AS-closed) only when a verification run actually
	// uses it (topo.NewPartition).
	Domains map[string][]string
	// LinkSets holds named link sets (`linkset` lines), the subjects of
	// aggregate `tlp sumload` / `tlp maxload` properties.
	LinkSets map[string][]topo.LinkID
	K        int
	Mode     topo.FailureMode
}

// ParseSpec reads the textual network specification format:
//
//	# topology
//	router A as 100 [loopback 10.0.0.1]
//	link A B [cost N] [capacity G] [addr-a IP addr-b IP]
//
//	# per-router configuration (until the next top-level keyword)
//	config A
//	  network 100.0.0.0/24
//	  neighbor 1.3.0.2 remote-as 300 [local-pref N] [next-hop-self]
//	  static 10.0.0.0/8 (discard | via IP)
//	  redistribute static
//	  sr-policy 10.0.0.6/32 [dscp N]
//	    path IP [IP...] weight N
//
//	# convenience: eBGP on inter-AS links + iBGP full mesh per AS
//	auto-bgp-mesh
//
//	# workload and properties
//	flow f1 ingress A src 11.0.0.1 dst 100.0.0.1 [dscp N] gbps 20
//	property link A-B [min G] [max G]
//	property dirlink A->B [min G] [max G]
//	failures k 2 mode (links|routers|both)
//
// '#' starts a comment; blank lines are ignored; indentation is free-form.
func ParseSpec(r io.Reader) (*Spec, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return ParseSpecString(string(data))
}

// ParseSpecString is ParseSpec on a string. The parsed spec's names are
// substrings of s.
func ParseSpecString(s string) (*Spec, error) {
	p := &specParser{
		b:       topo.NewBuilder(),
		configs: make(Configs),
		k:       1,
		flows:   make([]pendingFlow, 0, strings.Count(s, "\nflow ")+1),
	}
	// One field buffer serves every line: the fields are substrings of s,
	// and no handler keeps the slice itself.
	var fields []string
	for lineno := 1; s != ""; lineno++ {
		line := s
		if i := strings.IndexByte(s, '\n'); i >= 0 {
			line, s = s[:i], s[i+1:]
		} else {
			s = ""
		}
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields = appendFields(fields[:0], line)
		if len(fields) == 0 {
			continue
		}
		if err := p.line(fields); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineno, err)
		}
	}
	return p.finish()
}

// asciiSpace is strings.Fields' set of ASCII separators.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// appendFields appends strings.Fields(line) to dst, without allocating
// when line is ASCII.
func appendFields(dst []string, line string) []string {
	n, start := len(dst), -1
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case c >= utf8.RuneSelf:
			return append(dst[:n], strings.Fields(line)...)
		case asciiSpace[c]:
			if start >= 0 {
				dst = append(dst, line[start:i])
				start = -1
			}
		case start < 0:
			start = i
		}
	}
	if start >= 0 {
		dst = append(dst, line[start:])
	}
	return dst
}

type specParser struct {
	b       *topo.Builder
	configs Configs

	// deferred items resolved after the topology is built
	flows    []pendingFlow
	props    []pendingTLP // `property` lines: link, dirlink or delivered
	tlps     []pendingTLP
	domains  []pendingDomain
	linksets []pendingLinkset
	autoMesh bool

	cur      *Router   // active "config X" block
	curSR    *SRPolicy // active "sr-policy" block
	k        int
	mode     topo.FailureMode
	sawRname map[string]bool
}

type pendingFlow struct {
	flow    topo.Flow
	ingress string
}

type pendingDomain struct {
	name    string
	routers []string
}

type pendingLinkset struct {
	name  string
	links []string // "A-B" link names, resolved at finish
}

func (p *specParser) line(f []string) error {
	switch f[0] {
	case "router":
		return p.router(f[1:])
	case "link":
		return p.link(f[1:])
	case "config":
		if len(f) != 2 {
			return fmt.Errorf("config wants a router name")
		}
		p.cur = p.configs.Get(f[1])
		p.curSR = nil
		return nil
	case "auto-bgp-mesh":
		p.autoMesh = true
		return nil
	case "flow":
		return p.flow(f[1:])
	case "property":
		pt, err := parseTLPLine("property", f[1:])
		if err != nil {
			return err
		}
		p.props = append(p.props, pt)
		return nil
	case "tlp":
		pt, err := parseTLPLine("tlp", f[1:])
		if err != nil {
			return err
		}
		p.tlps = append(p.tlps, pt)
		return nil
	case "domain":
		if len(f) < 3 {
			return fmt.Errorf("usage: domain NAME ROUTER [ROUTER...]")
		}
		for _, d := range p.domains {
			if d.name == f[1] {
				return fmt.Errorf("duplicate domain %q", f[1])
			}
		}
		p.domains = append(p.domains, pendingDomain{name: f[1], routers: append([]string(nil), f[2:]...)})
		return nil
	case "linkset":
		if len(f) < 3 {
			return fmt.Errorf("usage: linkset NAME A-B [C-D...]")
		}
		for _, ls := range p.linksets {
			if ls.name == f[1] {
				return fmt.Errorf("duplicate linkset %q", f[1])
			}
		}
		p.linksets = append(p.linksets, pendingLinkset{name: f[1], links: append([]string(nil), f[2:]...)})
		return nil
	case "failures":
		return p.failures(f[1:])
	case "network", "neighbor", "static", "redistribute", "sr-policy", "path":
		if p.cur == nil {
			return fmt.Errorf("%q outside a config block", f[0])
		}
		return p.configLine(f)
	}
	return fmt.Errorf("unknown keyword %q", f[0])
}

func (p *specParser) router(f []string) error {
	if len(f) < 3 || f[1] != "as" {
		return fmt.Errorf("usage: router NAME as NUM [loopback IP]")
	}
	as, err := strconv.ParseUint(f[2], 10, 32)
	if err != nil {
		return fmt.Errorf("bad AS %q", f[2])
	}
	var opts []topo.RouterOpt
	rest := f[3:]
	for len(rest) > 0 {
		switch rest[0] {
		case "loopback":
			if len(rest) < 2 {
				return fmt.Errorf("loopback wants an address")
			}
			a, err := netip.ParseAddr(rest[1])
			if err != nil {
				return err
			}
			opts = append(opts, topo.WithLoopback(a))
			rest = rest[2:]
		case "nofail":
			opts = append(opts, topo.RouterNoFail())
			rest = rest[1:]
		default:
			return fmt.Errorf("unknown router option %q", rest[0])
		}
	}
	if p.sawRname == nil {
		p.sawRname = make(map[string]bool)
	}
	p.sawRname[f[0]] = true
	p.b.AddRouter(f[0], uint32(as), opts...)
	return nil
}

func (p *specParser) link(f []string) error {
	if len(f) < 2 {
		return fmt.Errorf("usage: link A B [cost N] [capacity G] [addr-a IP addr-b IP]")
	}
	a, b := f[0], f[1]
	var opts []topo.LinkOpt
	var addrA, addrB netip.Addr
	rest := f[2:]
	for len(rest) > 0 {
		if rest[0] == "nofail" {
			opts = append(opts, topo.LinkNoFail())
			rest = rest[1:]
			continue
		}
		if len(rest) < 2 {
			return fmt.Errorf("link option %q wants a value", rest[0])
		}
		switch rest[0] {
		case "cost":
			c, err := strconv.ParseInt(rest[1], 10, 64)
			if err != nil {
				return fmt.Errorf("bad cost %q", rest[1])
			}
			if c < 1 {
				return fmt.Errorf("cost %d: IGP metrics are positive", c)
			}
			opts = append(opts, topo.WithCost(c))
		case "capacity":
			g, err := strconv.ParseFloat(rest[1], 64)
			if err != nil {
				return fmt.Errorf("bad capacity %q", rest[1])
			}
			opts = append(opts, topo.WithCapacity(g))
		case "addr-a":
			addr, err := netip.ParseAddr(rest[1])
			if err != nil {
				return err
			}
			addrA = addr
		case "addr-b":
			addr, err := netip.ParseAddr(rest[1])
			if err != nil {
				return err
			}
			addrB = addr
		default:
			return fmt.Errorf("unknown link option %q", rest[0])
		}
		rest = rest[2:]
	}
	if addrA.IsValid() != addrB.IsValid() {
		return fmt.Errorf("addr-a and addr-b must be given together")
	}
	if addrA.IsValid() {
		opts = append(opts, topo.WithAddrs(addrA, addrB))
	}
	p.b.AddLink(a, b, opts...)
	return nil
}

func (p *specParser) configLine(f []string) error {
	switch f[0] {
	case "network":
		if len(f) != 2 {
			return fmt.Errorf("usage: network PREFIX")
		}
		pfx, err := netip.ParsePrefix(f[1])
		if err != nil {
			return err
		}
		p.cur.Networks = append(p.cur.Networks, pfx.Masked())
		return nil
	case "neighbor":
		if len(f) < 4 || f[2] != "remote-as" {
			return fmt.Errorf("usage: neighbor IP remote-as NUM [local-pref N] [next-hop-self]")
		}
		addr, err := netip.ParseAddr(f[1])
		if err != nil {
			return err
		}
		as, err := strconv.ParseUint(f[3], 10, 32)
		if err != nil {
			return fmt.Errorf("bad AS %q", f[3])
		}
		nb := BGPNeighbor{Addr: addr, RemoteAS: uint32(as)}
		rest := f[4:]
		for len(rest) > 0 {
			switch rest[0] {
			case "local-pref":
				if len(rest) < 2 {
					return fmt.Errorf("local-pref wants a value")
				}
				lp, err := strconv.ParseUint(rest[1], 10, 32)
				if err != nil {
					return fmt.Errorf("bad local-pref %q", rest[1])
				}
				nb.LocalPref = uint32(lp)
				rest = rest[2:]
			case "next-hop-self":
				nb.NextHopSelf = true
				rest = rest[1:]
			case "export-deny":
				if len(rest) < 2 {
					return fmt.Errorf("export-deny wants a prefix")
				}
				pfx, err := netip.ParsePrefix(rest[1])
				if err != nil {
					return err
				}
				nb.ExportDeny = append(nb.ExportDeny, pfx.Masked())
				rest = rest[2:]
			default:
				return fmt.Errorf("unknown neighbor option %q", rest[0])
			}
		}
		p.cur.Neighbors = append(p.cur.Neighbors, nb)
		return nil
	case "static":
		if len(f) < 3 {
			return fmt.Errorf("usage: static PREFIX (discard | via IP)")
		}
		pfx, err := netip.ParsePrefix(f[1])
		if err != nil {
			return err
		}
		s := StaticRoute{Prefix: pfx.Masked()}
		switch f[2] {
		case "discard":
			s.Discard = true
		case "via":
			if len(f) != 4 {
				return fmt.Errorf("static via wants an address")
			}
			nh, err := netip.ParseAddr(f[3])
			if err != nil {
				return err
			}
			s.NextHop = nh
		default:
			return fmt.Errorf("static wants 'discard' or 'via IP'")
		}
		p.cur.Statics = append(p.cur.Statics, s)
		return nil
	case "redistribute":
		if len(f) != 2 || f[1] != "static" {
			return fmt.Errorf("usage: redistribute static")
		}
		p.cur.RedistributeStatic = true
		return nil
	case "sr-policy":
		if len(f) < 2 {
			return fmt.Errorf("usage: sr-policy PREFIX [dscp N]")
		}
		pfx, err := netip.ParsePrefix(f[1])
		if err != nil {
			return err
		}
		pol := SRPolicy{Endpoint: pfx.Masked(), MatchDSCP: AnyDSCP}
		if len(f) > 2 {
			if len(f) != 4 || f[2] != "dscp" {
				return fmt.Errorf("usage: sr-policy PREFIX [dscp N]")
			}
			d, err := strconv.Atoi(f[3])
			if err != nil || d < 0 || d > 63 {
				return fmt.Errorf("bad dscp %q", f[3])
			}
			pol.MatchDSCP = d
		}
		p.cur.SRPolicies = append(p.cur.SRPolicies, pol)
		p.curSR = &p.cur.SRPolicies[len(p.cur.SRPolicies)-1]
		return nil
	case "path":
		if p.curSR == nil {
			return fmt.Errorf("path outside an sr-policy")
		}
		if len(f) < 4 || f[len(f)-2] != "weight" {
			return fmt.Errorf("usage: path IP [IP...] weight N")
		}
		w, err := strconv.ParseInt(f[len(f)-1], 10, 64)
		if err != nil {
			return fmt.Errorf("bad weight %q", f[len(f)-1])
		}
		var segs []netip.Addr
		for _, s := range f[1 : len(f)-2] {
			a, err := netip.ParseAddr(s)
			if err != nil {
				return err
			}
			segs = append(segs, a)
		}
		p.curSR.Paths = append(p.curSR.Paths, SRPath{Segments: segs, Weight: w})
		return nil
	}
	return fmt.Errorf("unknown config keyword %q", f[0])
}

func (p *specParser) flow(f []string) error {
	if len(f) < 1 {
		return fmt.Errorf("flow wants a name")
	}
	fl := pendingFlow{flow: topo.Flow{Name: f[0], Gbps: math.NaN()}}
	rest := f[1:]
	for len(rest) > 0 {
		if len(rest) < 2 {
			return fmt.Errorf("flow option %q wants a value", rest[0])
		}
		switch rest[0] {
		case "ingress":
			fl.ingress = rest[1]
		case "src":
			a, err := netip.ParseAddr(rest[1])
			if err != nil {
				return err
			}
			fl.flow.Src = a
		case "dst":
			a, err := netip.ParseAddr(rest[1])
			if err != nil {
				return err
			}
			fl.flow.Dst = a
		case "dscp":
			d, err := strconv.Atoi(rest[1])
			if err != nil || d < 0 || d > 63 {
				return fmt.Errorf("bad dscp %q", rest[1])
			}
			fl.flow.DSCP = uint8(d)
		case "gbps":
			g, err := strconv.ParseFloat(rest[1], 64)
			if err != nil {
				return fmt.Errorf("bad gbps %q", rest[1])
			}
			if err := CheckGbps(g); err != nil {
				return err
			}
			fl.flow.Gbps = g
		default:
			return fmt.Errorf("unknown flow option %q", rest[0])
		}
		rest = rest[2:]
	}
	if fl.ingress == "" || !fl.flow.Dst.IsValid() || math.IsNaN(fl.flow.Gbps) {
		return fmt.Errorf("flow needs at least ingress, dst, and gbps")
	}
	p.flows = append(p.flows, fl)
	return nil
}

// CheckGbps rejects a flow volume that is not a positive finite number. A
// load is a sum of volumes scaled by fractions in [0,1], and the check's
// bounds on it (each class's maximum, the prefix maxima that stop a scan)
// hold only for non-negative terms; an infinite or NaN volume has no sum.
func CheckGbps(g float64) error {
	if g > 0 && !math.IsInf(g, 1) {
		return nil
	}
	return fmt.Errorf("gbps must be a positive finite number, got %g", g)
}

func (p *specParser) failures(f []string) error {
	rest := f
	for len(rest) > 0 {
		if len(rest) < 2 {
			return fmt.Errorf("failures option %q wants a value", rest[0])
		}
		switch rest[0] {
		case "k":
			k, err := strconv.Atoi(rest[1])
			if err != nil || k < 0 {
				return fmt.Errorf("bad k %q", rest[1])
			}
			p.k = k
		case "mode":
			switch rest[1] {
			case "links":
				p.mode = topo.FailLinks
			case "routers":
				p.mode = topo.FailRouters
			case "both":
				p.mode = topo.FailBoth
			default:
				return fmt.Errorf("bad mode %q", rest[1])
			}
		default:
			return fmt.Errorf("unknown failures option %q", rest[0])
		}
		rest = rest[2:]
	}
	return nil
}

func (p *specParser) finish() (*Spec, error) {
	net, err := p.b.Build()
	if err != nil {
		return nil, err
	}
	if p.autoMesh {
		EBGPSessionsFullMesh(net, p.configs)
	}
	if err := p.configs.Validate(net); err != nil {
		return nil, err
	}
	spec := &Spec{Net: net, Configs: p.configs, K: p.k, Mode: p.mode}
	if len(p.flows) > 0 {
		spec.Flows = make([]topo.Flow, 0, len(p.flows))
	}
	for _, pf := range p.flows {
		r, ok := net.RouterByName(pf.ingress)
		if !ok {
			return nil, fmt.Errorf("flow %s: unknown ingress router %q", pf.flow.Name, pf.ingress)
		}
		fl := pf.flow
		fl.Ingress = r.ID
		spec.Flows = append(spec.Flows, fl)
	}
	for _, pt := range p.props {
		prop, err := resolveTLP(net, nil, pt)
		if err != nil {
			return nil, fmt.Errorf("property: %w", err)
		}
		if prop.Kind == topo.TLPDelivered {
			spec.Delivered = append(spec.Delivered, topo.DeliveredBound{Prefix: prop.Prefix, Min: prop.Min, Max: prop.Max})
		} else {
			spec.Props = append(spec.Props, topo.LoadBound{
				Link: prop.Link, Dir: prop.Dir, DirSpecified: prop.DirSpecified, Min: prop.Min, Max: prop.Max,
			})
		}
	}
	for _, pd := range p.domains {
		for _, rname := range pd.routers {
			if _, ok := net.RouterByName(rname); !ok {
				return nil, fmt.Errorf("domain %s: unknown router %q", pd.name, rname)
			}
		}
		if spec.Domains == nil {
			spec.Domains = make(map[string][]string)
		}
		spec.Domains[pd.name] = pd.routers
	}
	for _, pl := range p.linksets {
		var links []topo.LinkID
		for _, lname := range pl.links {
			a, b, ok := splitLinkName(lname)
			if !ok {
				return nil, fmt.Errorf("linkset %s: bad link %q, want A-B", pl.name, lname)
			}
			l, lok := net.FindLink(a, b)
			if !lok {
				return nil, fmt.Errorf("linkset %s: no link %s-%s", pl.name, a, b)
			}
			links = append(links, l.ID)
		}
		if spec.LinkSets == nil {
			spec.LinkSets = make(map[string][]topo.LinkID)
		}
		spec.LinkSets[pl.name] = links
	}
	for i, pt := range p.tlps {
		prop, err := resolveTLP(net, spec.LinkSets, pt)
		if err != nil {
			return nil, fmt.Errorf("tlp %d: %w", i+1, err)
		}
		spec.Portfolio = append(spec.Portfolio, prop)
	}
	return spec, nil
}
