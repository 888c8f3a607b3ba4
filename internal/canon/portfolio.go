package canon

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/yu-verify/yu/internal/tlp"
	"github.com/yu-verify/yu/internal/topo"
)

// FormatProp renders one portfolio property in the `tlp` DSL form (the
// text ParsePortfolio accepts back).
func FormatProp(net *topo.Network, p topo.TLProp) string {
	return string(appendProp(nil, net, p))
}

func appendProp(b []byte, net *topo.Network, p topo.TLProp) []byte {
	appendLink := func(b []byte) []byte {
		l := net.Link(p.Link)
		a, bb := net.Router(l.A).Name, net.Router(l.B).Name
		sep := "-"
		if p.DirSpecified {
			if p.Dir == topo.BtoA {
				a, bb = bb, a
			}
			sep = "->"
		}
		b = append(b, a...)
		b = append(b, sep...)
		return append(b, bb...)
	}
	switch p.Kind {
	case topo.TLPLinkLoad:
		if p.DirSpecified {
			b = append(b, "dirlink "...)
		} else {
			b = append(b, "link "...)
		}
		b = appendLink(b)
		b = appendBounds(b, p.Min, p.Max)
	case topo.TLPUtil:
		b = append(b, "util "...)
		b = appendFloat(b, p.Factor)
		if !p.AllLinks {
			if p.DirSpecified {
				b = append(b, " dirlink "...)
			} else {
				b = append(b, " link "...)
			}
			b = appendLink(b)
		}
	case topo.TLPDelivered:
		b = append(b, "delivered "...)
		b = appendPrefix(b, p.Prefix)
		b = appendBounds(b, p.Min, p.Max)
	case topo.TLPRatio:
		b = append(b, "ratio "...)
		b = appendPrefix(b, p.Prefix)
		b = appendBounds(b, p.Min, p.Max)
	case topo.TLPSumLoad:
		b = append(b, "sumload "...)
		b = append(b, p.SetName...)
		b = appendBounds(b, p.Min, p.Max)
	case topo.TLPMaxLoad:
		b = append(b, "maxload "...)
		b = append(b, p.SetName...)
		b = appendBounds(b, p.Min, p.Max)
	default:
		b = append(b, "unknown-kind-"...)
		b = strconv.AppendInt(b, int64(p.Kind), 10)
	}
	if p.CondSet {
		l := net.Link(p.CondLink)
		b = append(b, " if-failed "...)
		b = append(b, net.Router(l.A).Name...)
		b = append(b, '-')
		b = append(b, net.Router(l.B).Name...)
	}
	return b
}

// FormatPortfolio renders a portfolio evaluation canonically: every
// deterministic field and no wall-clock fields, so two evaluations of the
// same portfolio against the same network are byte-identical exactly when
// they agree. Violations appear grouped by witness failure set in the
// engine's ranking order (descending excess).
func FormatPortfolio(net *topo.Network, r *tlp.Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "holds %v\n", r.Holds)
	fmt.Fprintf(&sb, "properties %d violated %d vacuous %d unchecked %d\n",
		r.Stats.Properties, r.Stats.Violations, countStatus(r, tlp.StatusVacuous), r.Stats.Unchecked)
	for _, g := range r.Groups {
		sb.WriteString("group when")
		if len(g.FailedLinks) == 0 && len(g.FailedRouters) == 0 {
			sb.WriteString(" nothing fails")
		}
		for _, l := range g.FailedLinks {
			fmt.Fprintf(&sb, " link %s", net.LinkName(l))
		}
		for _, rt := range g.FailedRouters {
			fmt.Fprintf(&sb, " router %s", net.Router(rt).Name)
		}
		fmt.Fprintf(&sb, " max-excess %.9g\n", g.MaxExcess)
		for _, pi := range g.Props {
			vd := r.Verdicts[pi]
			sb.WriteString("  ")
			sb.Write(appendProp(nil, net, r.Props[pi]))
			fmt.Fprintf(&sb, " value %.9g excess %.9g\n", vd.Value, vd.Excess)
		}
	}
	for i, vd := range r.Verdicts {
		if vd.Status != tlp.StatusUnchecked {
			continue
		}
		sb.WriteString("unchecked ")
		sb.Write(appendProp(nil, net, r.Props[i]))
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "scans link %d delivered %d restrict %d checks %d",
		r.Stats.LinkScans, r.Stats.DeliveredScans, r.Stats.RestrictScans, r.Stats.Checks)
	if r.Stats.AggScans > 0 {
		// Printed only when aggregates exist so historical portfolio
		// renderings stay byte-identical.
		fmt.Fprintf(&sb, " agg %d", r.Stats.AggScans)
	}
	sb.WriteByte('\n')
	if r.Incomplete {
		sb.WriteString("incomplete true\n")
	}
	return sb.String()
}

// portfolioLinks lists the link IDs a property names in the DSL (subject
// and guard), for name-safety validation.
func portfolioLinks(p topo.TLProp) []topo.LinkID {
	var out []topo.LinkID
	if p.Kind == topo.TLPLinkLoad || (p.Kind == topo.TLPUtil && !p.AllLinks) {
		out = append(out, p.Link)
	}
	out = append(out, p.AggLinks...)
	if p.CondSet {
		out = append(out, p.CondLink)
	}
	return out
}

func countStatus(r *tlp.Result, s tlp.Status) int {
	n := 0
	for _, vd := range r.Verdicts {
		if vd.Status == s {
			n++
		}
	}
	return n
}
