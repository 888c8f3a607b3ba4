package config

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/netip"
	"strconv"
	"strings"

	"github.com/yu-verify/yu/internal/topo"
)

// pendingTLP is one parsed-but-unresolved `tlp` line; router names are
// resolved against the network once it exists.
type pendingTLP struct {
	kind         string // "link", "dirlink", "util", "delivered", "ratio", "sumload", "maxload"
	a, b         string // subject link endpoints (link/dirlink/util)
	directed     bool   // subject named one direction (A->B)
	allLinks     bool   // util without a subject link
	setName      string // subject linkset (sumload/maxload)
	pfx          netip.Prefix
	min, max     float64
	factor       float64
	cond         bool
	condA, condB string
}

// parseTLPLine parses the fields after the keyword kw, `tlp` or `property`:
//
//	tlp link A-B [min G] [max G] [if-failed C-D]
//	tlp dirlink A->B [min G] [max G] [if-failed C-D]
//	tlp util F [link A-B | dirlink A->B] [if-failed C-D]
//	tlp delivered PREFIX [min G] [max G] [if-failed C-D]
//	tlp ratio PREFIX [min R] [max R] [if-failed C-D]
//	tlp sumload SET [min G] [max G] [if-failed C-D]
//	tlp maxload SET [min G] [max G] [if-failed C-D]
//
// SET names a `linkset` declared in the same spec (or portfolio file). A
// `property` line is the same grammar restricted to link, dirlink and
// delivered, without if-failed: the spec's own bounds (Spec.Props,
// Spec.Delivered).
func parseTLPLine(kw string, f []string) (pendingTLP, error) {
	pt := pendingTLP{min: 0, max: math.Inf(1)}
	prop := kw == "property"
	if len(f) < 2 {
		if prop {
			return pt, fmt.Errorf("usage: property (link A-B | dirlink A->B) [min G] [max G]")
		}
		return pt, fmt.Errorf("usage: tlp (link A-B | dirlink A->B | util F [link A-B] | delivered PFX | ratio PFX | sumload SET | maxload SET) [min G] [max G] [if-failed C-D]")
	}
	if prop && f[0] != "link" && f[0] != "dirlink" && f[0] != "delivered" {
		return pt, fmt.Errorf("property wants 'link', 'dirlink', or 'delivered'")
	}
	pt.kind = f[0]
	switch f[0] {
	case "link":
		a, b, ok := splitLinkName(f[1])
		if !ok {
			return pt, fmt.Errorf("bad link %q, want A-B", f[1])
		}
		pt.a, pt.b = a, b
	case "dirlink":
		a, b, ok := splitDirLinkName(f[1])
		if !ok {
			return pt, fmt.Errorf("bad dirlink %q, want A->B", f[1])
		}
		pt.a, pt.b, pt.directed = a, b, true
	case "util":
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil || math.IsNaN(v) || v <= 0 {
			return pt, fmt.Errorf("bad utilization factor %q", f[1])
		}
		pt.factor = v
		pt.allLinks = true // narrowed by a `link`/`dirlink` option below
	case "delivered", "ratio":
		pfx, err := netip.ParsePrefix(f[1])
		if err != nil {
			return pt, err
		}
		pt.pfx = pfx.Masked()
	case "sumload", "maxload":
		pt.setName = f[1]
	default:
		return pt, fmt.Errorf("tlp wants 'link', 'dirlink', 'util', 'delivered', 'ratio', 'sumload', or 'maxload', got %q", f[0])
	}
	rest := f[2:]
	for len(rest) > 0 {
		if len(rest) < 2 {
			return pt, fmt.Errorf("%s option %q wants a value", kw, rest[0])
		}
		switch rest[0] {
		case "min", "max":
			v, err := strconv.ParseFloat(rest[1], 64)
			if err != nil || math.IsNaN(v) {
				return pt, fmt.Errorf("bad bound %q", rest[1])
			}
			if pt.kind == "util" {
				return pt, fmt.Errorf("tlp util takes its bound from the factor, not %q", rest[0])
			}
			if rest[0] == "min" {
				pt.min = v
			} else {
				pt.max = v
			}
		case "link":
			if pt.kind != "util" {
				return pt, fmt.Errorf("option %q is only valid on tlp util", rest[0])
			}
			a, b, ok := splitLinkName(rest[1])
			if !ok {
				return pt, fmt.Errorf("bad link %q, want A-B", rest[1])
			}
			pt.a, pt.b, pt.allLinks = a, b, false
		case "dirlink":
			if pt.kind != "util" {
				return pt, fmt.Errorf("option %q is only valid on tlp util", rest[0])
			}
			a, b, ok := splitDirLinkName(rest[1])
			if !ok {
				return pt, fmt.Errorf("bad dirlink %q, want A->B", rest[1])
			}
			pt.a, pt.b, pt.directed, pt.allLinks = a, b, true, false
		case "if-failed":
			if prop {
				return pt, fmt.Errorf("unknown property option %q", rest[0])
			}
			a, b, ok := splitLinkName(rest[1])
			if !ok {
				return pt, fmt.Errorf("bad if-failed link %q, want C-D", rest[1])
			}
			pt.cond, pt.condA, pt.condB = true, a, b
		default:
			return pt, fmt.Errorf("unknown %s option %q", kw, rest[0])
		}
		rest = rest[2:]
	}
	if pt.min > pt.max {
		return pt, fmt.Errorf("%s min %g exceeds max %g", kw, pt.min, pt.max)
	}
	return pt, nil
}

// splitLinkName splits "A-B"; dirlink arrows are rejected so "A->B" is not
// silently read as the link "A>"-"B".
func splitLinkName(s string) (a, b string, ok bool) {
	if strings.Contains(s, "->") {
		return "", "", false
	}
	parts := strings.SplitN(s, "-", 2)
	if len(parts) != 2 || parts[0] == "" || parts[1] == "" {
		return "", "", false
	}
	return parts[0], parts[1], true
}

func splitDirLinkName(s string) (a, b string, ok bool) {
	parts := strings.SplitN(s, "->", 2)
	if len(parts) != 2 || parts[0] == "" || parts[1] == "" {
		return "", "", false
	}
	return parts[0], parts[1], true
}

// resolveTLP binds a parsed `tlp` line to the built network; sets supplies
// the named link sets aggregate properties refer to.
func resolveTLP(net *topo.Network, sets map[string][]topo.LinkID, pt pendingTLP) (topo.TLProp, error) {
	var prop topo.TLProp
	switch pt.kind {
	case "link", "dirlink":
		prop.Kind = topo.TLPLinkLoad
	case "util":
		prop.Kind = topo.TLPUtil
		prop.Factor = pt.factor
		prop.AllLinks = pt.allLinks
	case "delivered":
		prop.Kind = topo.TLPDelivered
		prop.Prefix = pt.pfx
	case "ratio":
		prop.Kind = topo.TLPRatio
		prop.Prefix = pt.pfx
	case "sumload", "maxload":
		if pt.kind == "sumload" {
			prop.Kind = topo.TLPSumLoad
		} else {
			prop.Kind = topo.TLPMaxLoad
		}
		links, ok := sets[pt.setName]
		if !ok {
			return prop, fmt.Errorf("unknown linkset %q", pt.setName)
		}
		prop.SetName = pt.setName
		prop.AggLinks = links
	default:
		return prop, fmt.Errorf("unknown tlp kind %q", pt.kind)
	}
	prop.Min, prop.Max = pt.min, pt.max
	if pt.a != "" {
		if pt.directed {
			d, ok := net.FindDirLink(pt.a, pt.b)
			if !ok {
				return prop, fmt.Errorf("no link %s->%s", pt.a, pt.b)
			}
			prop.Link, prop.Dir, prop.DirSpecified = d.Link(), d.Dir(), true
		} else {
			l, ok := net.FindLink(pt.a, pt.b)
			if !ok {
				return prop, fmt.Errorf("no link %s-%s", pt.a, pt.b)
			}
			prop.Link = l.ID
		}
	}
	if pt.cond {
		l, ok := net.FindLink(pt.condA, pt.condB)
		if !ok {
			return prop, fmt.Errorf("no if-failed link %s-%s", pt.condA, pt.condB)
		}
		prop.CondSet, prop.CondLink = true, l.ID
	}
	return prop, nil
}

// ParsePortfolio reads a standalone portfolio file — `tlp` lines resolved
// against an existing network, the payload format of `yu verify -tlp` and
// the daemon's /v1/tlp endpoint. The leading `tlp` keyword on each line is
// optional; `linkset NAME A-B ...` lines declare the link sets aggregate
// properties below them refer to; '#' comments and blank lines are
// ignored.
func ParsePortfolio(r io.Reader, net *topo.Network) ([]topo.TLProp, error) {
	var props []topo.TLProp
	sets := make(map[string][]topo.LinkID)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if fields[0] == "linkset" {
			if len(fields) < 3 {
				return nil, fmt.Errorf("line %d: usage: linkset NAME A-B [C-D...]", lineno)
			}
			if _, dup := sets[fields[1]]; dup {
				return nil, fmt.Errorf("line %d: duplicate linkset %q", lineno, fields[1])
			}
			var links []topo.LinkID
			for _, lname := range fields[2:] {
				a, b, ok := splitLinkName(lname)
				if !ok {
					return nil, fmt.Errorf("line %d: bad link %q, want A-B", lineno, lname)
				}
				l, lok := net.FindLink(a, b)
				if !lok {
					return nil, fmt.Errorf("line %d: no link %s-%s", lineno, a, b)
				}
				links = append(links, l.ID)
			}
			sets[fields[1]] = links
			continue
		}
		if fields[0] == "tlp" {
			fields = fields[1:]
		}
		pt, err := parseTLPLine("tlp", fields)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineno, err)
		}
		prop, err := resolveTLP(net, sets, pt)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineno, err)
		}
		props = append(props, prop)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return props, nil
}

// ParsePortfolioString is ParsePortfolio on a string.
func ParsePortfolioString(s string, net *topo.Network) ([]topo.TLProp, error) {
	return ParsePortfolio(strings.NewReader(s), net)
}
