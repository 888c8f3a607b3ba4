// Package tlp is the batch traffic-load-property engine: it compiles an
// arbitrary portfolio of TLPs — per-link load bounds, utilization bounds,
// delivered-traffic and delivery-ratio bounds, and conditional ("if link
// A-B is failed then ...") variants of each — into a per-link evaluation
// plan served from one symbolic execution. Every directed link's KREDUCEd
// load MTBDD is terminal-scanned once, evaluating all properties attached
// to that link in the same pass (core.Verifier.Check); conditional properties
// are evaluated by guard restriction (one cofactor scan per distinct
// guard) rather than by re-executing anything. On a verifier with a carrier
// (the daemon's), a load whose classes an earlier check summed is replayed
// rather than aggregated again (core.STFCache, CarriedLoad). Violations are
// deduplicated by witness failure set and ranked by excess load.
package tlp

import (
	"fmt"
	"math"
	"net/netip"
	"sort"
	"strings"

	"github.com/yu-verify/yu/internal/core"
	"github.com/yu-verify/yu/internal/obs"
	"github.com/yu-verify/yu/internal/topo"
)

// plannedCheck is one scan predicate a property compiled to, bound to a
// subject (directed link or prefix) by its containing plan.
type plannedCheck struct {
	prop     int            // index into Portfolio.Props
	check    core.LinkCheck // CondVar is resolved at Eval time
	condSet  bool
	condLink topo.LinkID
	scale    float64 // divide values by this for reporting (ratio: offered Gbps)
}

// subjectKind indexes the per-kind scan counters of Stats and obs.
type subjectKind int

const (
	kindLink subjectKind = iota
	kindDelivered
	kindAggregate
)

// scanCounters names the obs counter of each subject kind.
var scanCounters = [...]string{"tlp.link_scans", "tlp.delivered_scans", "tlp.agg_scans"}

// plan is the evaluation plan of one subject — a directed link, a
// delivered prefix, or a (link set, sum|max) aggregate: however many
// properties bound the same subject, its symbolic quantity is built and
// terminal-scanned once.
type plan struct {
	kind    subjectKind
	subject core.Subject
	checks  []plannedCheck
}

// Portfolio is a compiled property portfolio: the per-subject evaluation
// plan Eval serves from one symbolic run.
type Portfolio struct {
	Net   *topo.Network
	Props []topo.TLProp

	// plans lists the subjects in evaluation order: directed links by
	// ascending DirLinkID, then prefixes and aggregates in first-seen order.
	plans []plan
	// vacuous marks properties decided at compile time without any scan
	// (delivery ratio with zero offered traffic).
	vacuous []int
	// NumChecks counts the scan predicates the portfolio compiled to
	// (directional expansion makes it >= len(Props)).
	NumChecks int
}

// Compile validates a portfolio against the network and builds its
// evaluation plan. Malformed portfolios (out-of-range links, invalid
// prefixes, inverted or NaN bounds, non-positive utilization factors)
// return an error; Compile never panics on untrusted input.
func Compile(net *topo.Network, flows []topo.Flow, props []topo.TLProp) (*Portfolio, error) {
	p := &Portfolio{Net: net, Props: props}
	byLink := make(map[topo.DirLinkID][]plannedCheck)
	var rest []plan // prefixes and aggregates, first-seen order
	restIdx := make(map[string]int)

	addLink := func(d topo.DirLinkID, c plannedCheck) {
		byLink[d] = append(byLink[d], c)
		p.NumChecks++
	}
	// addKeyed attaches a check to the prefix or aggregate subject with
	// the given identity key, creating its plan on first sight.
	addKeyed := func(key string, kind subjectKind, subject core.Subject, c plannedCheck) {
		i, ok := restIdx[key]
		if !ok {
			i = len(rest)
			restIdx[key] = i
			rest = append(rest, plan{kind: kind, subject: subject})
		}
		rest[i].checks = append(rest[i].checks, c)
		p.NumChecks++
	}
	dirsOf := func(prop topo.TLProp) []topo.DirLinkID {
		if prop.DirSpecified {
			return []topo.DirLinkID{topo.MakeDirLinkID(prop.Link, prop.Dir)}
		}
		return []topo.DirLinkID{
			topo.MakeDirLinkID(prop.Link, topo.AtoB),
			topo.MakeDirLinkID(prop.Link, topo.BtoA),
		}
	}

	for i, prop := range props {
		if math.IsNaN(prop.Min) || math.IsNaN(prop.Max) || prop.Min > prop.Max {
			return nil, fmt.Errorf("tlp: property %d: bad bounds [%g, %g]", i, prop.Min, prop.Max)
		}
		base := plannedCheck{prop: i, scale: 1}
		if prop.CondSet {
			if int(prop.CondLink) < 0 || int(prop.CondLink) >= net.NumLinks() {
				return nil, fmt.Errorf("tlp: property %d: if-failed link %d out of range", i, prop.CondLink)
			}
			base.condSet, base.condLink = true, prop.CondLink
		}
		needLink := prop.Kind == topo.TLPLinkLoad || (prop.Kind == topo.TLPUtil && !prop.AllLinks)
		if needLink && (int(prop.Link) < 0 || int(prop.Link) >= net.NumLinks()) {
			return nil, fmt.Errorf("tlp: property %d: link %d out of range", i, prop.Link)
		}
		switch prop.Kind {
		case topo.TLPLinkLoad:
			c := base
			c.check = core.LinkCheck{Min: prop.Min, Max: prop.Max}
			for _, d := range dirsOf(prop) {
				addLink(d, c)
			}
		case topo.TLPUtil:
			if math.IsNaN(prop.Factor) || prop.Factor <= 0 {
				return nil, fmt.Errorf("tlp: property %d: bad utilization factor %g", i, prop.Factor)
			}
			links := []topo.LinkID{prop.Link}
			if prop.AllLinks {
				links = links[:0]
				for li := 0; li < net.NumLinks(); li++ {
					links = append(links, topo.LinkID(li))
				}
			}
			for _, li := range links {
				c := base
				c.check = core.LinkCheck{
					Min:      math.Inf(-1),
					Max:      prop.Factor * net.Link(li).Capacity,
					Overload: true,
				}
				if prop.AllLinks || !prop.DirSpecified {
					addLink(topo.MakeDirLinkID(li, topo.AtoB), c)
					addLink(topo.MakeDirLinkID(li, topo.BtoA), c)
				} else {
					addLink(topo.MakeDirLinkID(li, prop.Dir), c)
				}
			}
		case topo.TLPDelivered, topo.TLPRatio:
			if !prop.Prefix.IsValid() {
				return nil, fmt.Errorf("tlp: property %d: invalid prefix", i)
			}
			c := base
			c.check = core.LinkCheck{Min: prop.Min, Max: prop.Max}
			if prop.Kind == topo.TLPRatio {
				offered := offeredTraffic(flows, prop.Prefix)
				if offered <= 0 {
					// Nothing is offered to the prefix: the ratio is
					// undefined and the property is vacuously true.
					p.vacuous = append(p.vacuous, i)
					continue
				}
				c.scale = offered
				c.check.Min = prop.Min * offered
				if !math.IsInf(prop.Max, 1) {
					c.check.Max = prop.Max * offered
				}
			}
			pfx := prop.Prefix.Masked()
			addKeyed(pfx.String(), kindDelivered, core.Subject{Prefix: pfx}, c)
		case topo.TLPSumLoad, topo.TLPMaxLoad:
			if len(prop.AggLinks) == 0 {
				return nil, fmt.Errorf("tlp: property %d: empty link set", i)
			}
			isMax := prop.Kind == topo.TLPMaxLoad
			var dirs []topo.DirLinkID
			for _, li := range prop.AggLinks {
				if int(li) < 0 || int(li) >= net.NumLinks() {
					return nil, fmt.Errorf("tlp: property %d: linkset link %d out of range", i, li)
				}
				dirs = append(dirs,
					topo.MakeDirLinkID(li, topo.AtoB),
					topo.MakeDirLinkID(li, topo.BtoA))
			}
			// Properties over the same aggregate subject share one plan
			// (and so one symbolic build + scan), keyed by the expanded
			// directed-link list — robust to two set names with identical
			// members.
			c := base
			c.check = core.LinkCheck{Min: prop.Min, Max: prop.Max}
			addKeyed(fmt.Sprintf("%v|%v", isMax, dirs), kindAggregate, core.Subject{Links: dirs, Max: isMax}, c)
		default:
			return nil, fmt.Errorf("tlp: property %d: unknown kind %d", i, int(prop.Kind))
		}
	}

	dirs := make([]topo.DirLinkID, 0, len(byLink))
	for d := range byLink {
		dirs = append(dirs, d)
	}
	sort.Slice(dirs, func(a, b int) bool { return dirs[a] < dirs[b] })
	for _, d := range dirs {
		p.plans = append(p.plans, plan{kind: kindLink, subject: core.Subject{Link: d}, checks: byLink[d]})
	}
	sort.SliceStable(rest, func(a, b int) bool { return rest[a].kind < rest[b].kind })
	p.plans = append(p.plans, rest...)
	return p, nil
}

// offeredTraffic sums the volume of flows destined inside pfx.
func offeredTraffic(flows []topo.Flow, pfx netip.Prefix) float64 {
	total := 0.0
	for _, f := range flows {
		if f.Dst.IsValid() && pfx.Contains(f.Dst) {
			total += f.Gbps
		}
	}
	return total
}

// Status is one property's verdict.
type Status int

const (
	// StatusHolds: no reachable in-budget scenario violates the property.
	StatusHolds Status = iota
	// StatusViolated: a witness scenario violates it.
	StatusViolated
	// StatusVacuous: the property constrains nothing under this run
	// (zero offered traffic for a ratio, or an unfailable guard link).
	StatusVacuous
	// StatusUnchecked: the property's scan was skipped (governance).
	StatusUnchecked
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusHolds:
		return "holds"
	case StatusViolated:
		return "violated"
	case StatusVacuous:
		return "vacuous"
	case StatusUnchecked:
		return "unchecked"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Verdict is one property's outcome. For a violated property Value is the
// worst observed quantity in the property's own units (Gbps, or a
// fraction for delivery ratios), Excess is how far beyond the bound the
// load went in Gbps (the ranking key), and FailedLinks/FailedRouters name
// the witness scenario.
type Verdict struct {
	Status        Status
	Value         float64
	Excess        float64
	FailedLinks   []topo.LinkID
	FailedRouters []topo.RouterID
}

// Group is one deduplicated violation cluster: every violated property
// whose witness is the same failure set, ordered by excess.
type Group struct {
	FailedLinks   []topo.LinkID
	FailedRouters []topo.RouterID
	// Props indexes Result.Props, ordered by descending excess.
	Props     []int
	MaxExcess float64
}

// Stats counts the portfolio evaluation's work — the scan-sharing
// evidence: LinkScans is the number of directed links aggregated and
// terminal-scanned (one per distinct link, however many properties ride
// on it), not the number of properties.
type Stats struct {
	Properties     int
	Checks         int
	LinkScans      int
	DeliveredScans int
	// AggScans counts the aggregate subjects (link sets) built and
	// scanned — one per distinct (set, sum|max) pair.
	AggScans      int
	RestrictScans int
	Violations    int
	Unchecked     int
}

// Result is a portfolio evaluation outcome.
type Result struct {
	Props      []topo.TLProp
	Verdicts   []Verdict
	Groups     []Group
	Stats      Stats
	Holds      bool
	Incomplete bool
}

// Eval evaluates the compiled portfolio against one symbolic run, through
// the verifier's one check loop. Each directed link in the plan is
// aggregated and terminal-scanned exactly once; conditional properties add one cofactor scan per distinct guard
// link. reg (nil-safe) receives tlp.* counters.
func (p *Portfolio) Eval(v *core.Verifier, reg *obs.Registry) (*Result, error) {
	r := &Result{Props: p.Props, Verdicts: make([]Verdict, len(p.Props))}
	r.Stats.Properties = len(p.Props)
	r.Stats.Checks = p.NumChecks
	for _, i := range p.vacuous {
		r.Verdicts[i].Status = StatusVacuous
	}

	merge := func(checks []plannedCheck, live []int, res []core.ScanResult) {
		for j, ci := range live {
			c, sr := checks[ci], res[j]
			if !sr.Violated {
				continue
			}
			excess := c.check.Min - sr.Value
			if sr.Value > c.check.Max || c.check.Overload {
				excess = sr.Value - c.check.Max
			}
			vd := &r.Verdicts[c.prop]
			if vd.Status == StatusViolated && excess <= vd.Excess {
				continue
			}
			*vd = Verdict{
				Status: StatusViolated, Value: sr.Value / c.scale, Excess: excess,
				FailedLinks: sr.FailedLinks, FailedRouters: sr.FailedRouters,
			}
		}
	}

	// prepare resolves guards against the run's failure variables: an
	// unfailable guard link makes the property vacuous (it can never be
	// the case that the guard is failed), dropping its check from the
	// scan.
	prepare := func(checks []plannedCheck) ([]core.LinkCheck, []int) {
		scs := make([]core.LinkCheck, 0, len(checks))
		live := make([]int, 0, len(checks))
		for ci, c := range checks {
			sc := c.check
			sc.CondVar = -1
			if c.condSet {
				cv := v.Vars().LinkVar(c.condLink)
				if cv < 0 {
					if r.Verdicts[c.prop].Status == StatusHolds {
						r.Verdicts[c.prop].Status = StatusVacuous
					}
					continue
				}
				sc.CondVar = cv
			}
			scs = append(scs, sc)
			live = append(live, ci)
		}
		return scs, live
	}

	// One core.Plan per subject with a live check; subjects[j] is plan j's
	// compiled plan and the checks of it that are live.
	type subject struct {
		pl   *plan
		live []int
	}
	var (
		plans    []core.Plan
		subjects []subject
	)
	for pi := range p.plans {
		pl := &p.plans[pi]
		if scs, live := prepare(pl.checks); len(scs) > 0 {
			plans = append(plans, core.Plan{Subject: pl.subject, Checks: scs})
			subjects = append(subjects, subject{pl, live})
		}
	}
	// A governed abort (cancellation, deadline, unrelieved budget) comes back
	// with the plans it did not finish not done: they are unchecked, like the
	// ones a degrading run skipped — Verifier.Run's partial-report contract.
	results, err := v.Check(plans)
	scanned := [...]*int{&r.Stats.LinkScans, &r.Stats.DeliveredScans, &r.Stats.AggScans}
	for j, res := range results {
		pl, live := subjects[j].pl, subjects[j].live
		if !res.Done {
			for _, ci := range live {
				if vd := &r.Verdicts[pl.checks[ci].prop]; vd.Status == StatusHolds {
					vd.Status = StatusUnchecked
				}
			}
			r.Incomplete = true
			continue
		}
		*scanned[pl.kind]++
		r.Stats.RestrictScans += res.Restricts
		reg.Counter(scanCounters[pl.kind]).Inc()
		merge(pl.checks, live, res.Results)
	}

	for i := range r.Verdicts {
		switch r.Verdicts[i].Status {
		case StatusViolated:
			r.Stats.Violations++
		case StatusUnchecked:
			r.Stats.Unchecked++
		}
	}
	r.Holds = r.Stats.Violations == 0 && !r.Incomplete
	r.Groups = groupVerdicts(r.Verdicts)
	reg.Counter("tlp.properties").Add(int64(r.Stats.Properties))
	reg.Counter("tlp.checks").Add(int64(r.Stats.Checks))
	reg.Counter("tlp.restrict_scans").Add(int64(r.Stats.RestrictScans))
	reg.Counter("tlp.violations").Add(int64(r.Stats.Violations))
	reg.Counter("tlp.unchecked").Add(int64(r.Stats.Unchecked))
	return r, err
}

// AllUnchecked is the partial result for a run cut short before any scan
// could start (route simulation failed): every property unchecked.
func AllUnchecked(props []topo.TLProp) *Result {
	r := &Result{Props: props, Verdicts: make([]Verdict, len(props)), Incomplete: true}
	for i := range r.Verdicts {
		r.Verdicts[i].Status = StatusUnchecked
	}
	r.Stats.Properties = len(props)
	r.Stats.Unchecked = len(props)
	return r
}

// groupVerdicts clusters violated properties by witness failure set,
// ordering groups by descending worst excess (ties by witness key) and
// members by descending excess (ties by property index).
func groupVerdicts(verdicts []Verdict) []Group {
	byKey := make(map[string]*Group)
	var keys []string
	for i := range verdicts {
		vd := &verdicts[i]
		if vd.Status != StatusViolated {
			continue
		}
		key := witnessKey(vd.FailedLinks, vd.FailedRouters)
		g, ok := byKey[key]
		if !ok {
			g = &Group{FailedLinks: vd.FailedLinks, FailedRouters: vd.FailedRouters}
			byKey[key] = g
			keys = append(keys, key)
		}
		g.Props = append(g.Props, i)
		if vd.Excess > g.MaxExcess {
			g.MaxExcess = vd.Excess
		}
	}
	for _, g := range byKey {
		vs := verdicts
		sort.SliceStable(g.Props, func(a, b int) bool {
			return vs[g.Props[a]].Excess > vs[g.Props[b]].Excess
		})
	}
	sort.SliceStable(keys, func(a, b int) bool {
		ga, gb := byKey[keys[a]], byKey[keys[b]]
		if ga.MaxExcess != gb.MaxExcess {
			return ga.MaxExcess > gb.MaxExcess
		}
		return keys[a] < keys[b]
	})
	out := make([]Group, len(keys))
	for i, k := range keys {
		out[i] = *byKey[k]
	}
	return out
}

// witnessKey renders a failure set canonically for grouping.
func witnessKey(links []topo.LinkID, routers []topo.RouterID) string {
	var sb strings.Builder
	for _, l := range links {
		fmt.Fprintf(&sb, "l%d,", l)
	}
	for _, r := range routers {
		fmt.Fprintf(&sb, "r%d,", r)
	}
	return sb.String()
}
