// The portfolio oracle: the batch TLP engine (internal/tlp) evaluated
// over a mirror of the case's legacy properties must flag exactly the
// properties the legacy per-property checks flag, and conditional
// properties — which only the portfolio engine supports — are held to
// brute-force enumeration through the concrete simulator.
package difftest

import (
	"fmt"
	"math"

	"github.com/yu-verify/yu"
	"github.com/yu-verify/yu/internal/canon"
	"github.com/yu-verify/yu/internal/concrete"
	"github.com/yu-verify/yu/internal/tlp"
	"github.com/yu-verify/yu/internal/topo"
)

// mirrorPortfolio translates the case's legacy property set (explicit
// load bounds, delivered bounds, the all-links overload factor) into
// TLProps, one per legacy property. The returned index is the util
// property's position, or -1 when the case has no overload factor.
func mirrorPortfolio(c *Case) ([]topo.TLProp, int) {
	props := make([]topo.TLProp, 0, len(c.Spec.Props)+len(c.Spec.Delivered)+1)
	for _, b := range c.Spec.Props {
		props = append(props, topo.TLProp{
			Kind: topo.TLPLinkLoad, Link: b.Link,
			Dir: b.Dir, DirSpecified: b.DirSpecified,
			Min: b.Min, Max: b.Max,
		})
	}
	for _, d := range c.Spec.Delivered {
		props = append(props, topo.TLProp{
			Kind: topo.TLPDelivered, Prefix: d.Prefix, Min: d.Min, Max: d.Max,
		})
	}
	utilIdx := -1
	if c.OverloadFactor > 0 {
		utilIdx = len(props)
		props = append(props, topo.TLProp{
			Kind: topo.TLPUtil, AllLinks: true, Factor: c.OverloadFactor,
		})
	}
	return props, utilIdx
}

// OracleTLPPortfolio checks the batch TLP engine two ways: (1) on a
// portfolio mirroring the legacy properties, the violated-property set
// and overall verdict must equal the legacy report's; (2) conditional
// properties must agree with brute-force enumeration of the guard-failed
// scenario space, with concretely revalidated witnesses.
func OracleTLPPortfolio(c *Case) error {
	net := c.Spec.Net
	n := yu.FromSpec(c.Spec)
	props, utilIdx := mirrorPortfolio(c)

	legacy, err := n.Verify(verifyOpts(c, c.K, yu.EngineYU))
	if err != nil {
		return err
	}
	res, err := n.VerifyPortfolio(props, yu.VerifyOptions{
		K: c.K, Mode: c.Mode, ModeSet: true,
	})
	if err != nil {
		return err
	}

	// Attribute each legacy violation to every mirrored property it
	// belongs to. A bound violation matching a util limit is attributed to
	// util as well — when a load crosses max+eps it also crosses the
	// identical overload limit, so over-attribution cannot disagree.
	legacyViolated := make([]bool, len(props))
	for _, v := range legacy.Violations {
		matched := false
		mark := func(i int) {
			legacyViolated[i] = true
			matched = true
		}
		switch v.Kind {
		case "link-load":
			for i, b := range c.Spec.Props {
				if v.Link.Link() != b.Link || v.Min != b.Min || v.Max != b.Max {
					continue
				}
				if b.DirSpecified && v.Link.Dir() != b.Dir {
					continue
				}
				mark(i)
			}
			if utilIdx >= 0 && v.Min == 0 &&
				v.Max == c.OverloadFactor*net.Link(v.Link.Link()).Capacity {
				mark(utilIdx)
			}
		case "delivered":
			for i, d := range c.Spec.Delivered {
				if v.Prefix == d.Prefix && v.Min == d.Min && v.Max == d.Max {
					mark(len(c.Spec.Props) + i)
				}
			}
		}
		if !matched {
			return fmt.Errorf("legacy violation %+v matches no mirrored property", v)
		}
	}

	// Verdict identity vs legacy, plus concrete revalidation of every
	// violated property's own witness (witness scenarios and values may
	// legitimately differ between engines — any in-budget counterexample
	// is correct — so the witness is held to the concrete simulator, not
	// to the legacy report).
	sim := concrete.NewSim(net, c.Spec.Configs)
	for i := range props {
		vd := res.Verdicts[i]
		want := tlp.StatusHolds
		if legacyViolated[i] {
			want = tlp.StatusViolated
		}
		if vd.Status != want {
			return fmt.Errorf("property %d (%s): portfolio %v, legacy %v",
				i, canon.FormatProp(net, props[i]), vd.Status, want)
		}
		if vd.Status != tlp.StatusViolated {
			continue
		}
		if len(vd.FailedLinks)+len(vd.FailedRouters) > c.K {
			return fmt.Errorf("property %d: witness has %d failures, budget is %d",
				i, len(vd.FailedLinks)+len(vd.FailedRouters), c.K)
		}
		if err := revalidateVerdict(c, sim, props[i], vd); err != nil {
			return fmt.Errorf("property %d (%s): %w", i, canon.FormatProp(net, props[i]), err)
		}
	}
	if res.Holds != legacy.Holds {
		return fmt.Errorf("Holds disagrees: portfolio %v, legacy %v", res.Holds, legacy.Holds)
	}

	if err := oracleTLPConditional(c, n); err != nil {
		return err
	}
	return oracleTLPAggregate(c, n)
}

// oracleTLPAggregate brute-forces the sum/max aggregate properties over a
// named link set: the concrete worst-case aggregate over every in-budget
// scenario must be bracketed by the portfolio verdicts — a bound above it
// holds, a bound clearly below it is violated with a concretely
// reproducible witness.
func oracleTLPAggregate(c *Case, n *yu.Network) error {
	net := c.Spec.Net
	nset := net.NumLinks()
	if nset > 3 {
		nset = 3
	}
	if nset == 0 {
		return nil
	}
	members := make([]topo.LinkID, nset)
	var dirs []topo.DirLinkID
	for i := 0; i < nset; i++ {
		members[i] = topo.LinkID(i)
		dirs = append(dirs,
			topo.MakeDirLinkID(topo.LinkID(i), topo.AtoB),
			topo.MakeDirLinkID(topo.LinkID(i), topo.BtoA))
	}

	sim := concrete.NewSim(net, c.Spec.Configs)
	worstSum, worstMax := math.Inf(-1), math.Inf(-1)
	err := forEachScenario(net, c.Mode, c.K, func(links []topo.LinkID, routers []topo.RouterID) error {
		sc := concrete.NewScenario(net)
		for _, l := range links {
			sc.LinkDown[l] = true
		}
		for _, r := range routers {
			sc.RouterDown[r] = true
		}
		sres := sim.Simulate(sc, c.Spec.Flows)
		sum, mx := 0.0, 0.0
		for _, dl := range dirs {
			sum += sres.Load[dl]
			if sres.Load[dl] > mx {
				mx = sres.Load[dl]
			}
		}
		if sum > worstSum {
			worstSum = sum
		}
		if mx > worstMax {
			worstMax = mx
		}
		return nil
	})
	if err != nil {
		return err
	}

	prop := func(kind topo.TLPKind, max float64) topo.TLProp {
		return topo.TLProp{Kind: kind, SetName: "agg", AggLinks: members, Max: max}
	}
	props := []topo.TLProp{
		prop(topo.TLPSumLoad, worstSum+1),
		prop(topo.TLPMaxLoad, worstMax+1),
	}
	wantViolated := map[int]float64{} // prop index -> enumerated worst
	if worstSum > 1 {
		wantViolated[len(props)] = worstSum
		props = append(props, prop(topo.TLPSumLoad, worstSum-0.5))
	}
	if worstMax > 1 {
		wantViolated[len(props)] = worstMax
		props = append(props, prop(topo.TLPMaxLoad, worstMax-0.5))
	}
	res, err := n.VerifyPortfolio(props, yu.VerifyOptions{
		K: c.K, Mode: c.Mode, ModeSet: true,
	})
	if err != nil {
		return err
	}
	for i := range props {
		vd := res.Verdicts[i]
		worst, violated := wantViolated[i]
		if !violated {
			if vd.Status != tlp.StatusHolds {
				return fmt.Errorf("aggregate %s bound above enumerated worst: status %v, want holds",
					canon.FormatProp(net, props[i]), vd.Status)
			}
			continue
		}
		if vd.Status != tlp.StatusViolated {
			return fmt.Errorf("aggregate %s bound below enumerated worst %.9g: status %v, want violated",
				canon.FormatProp(net, props[i]), worst, vd.Status)
		}
		if len(vd.FailedLinks)+len(vd.FailedRouters) > c.K {
			return fmt.Errorf("aggregate witness has %d failures, budget is %d",
				len(vd.FailedLinks)+len(vd.FailedRouters), c.K)
		}
		// Concrete revalidation of the witness's aggregate value.
		sc := concrete.NewScenario(net)
		for _, l := range vd.FailedLinks {
			sc.LinkDown[l] = true
		}
		for _, r := range vd.FailedRouters {
			sc.RouterDown[r] = true
		}
		sres := sim.Simulate(sc, c.Spec.Flows)
		conc := 0.0
		for _, dl := range dirs {
			if props[i].Kind == topo.TLPSumLoad {
				conc += sres.Load[dl]
			} else if sres.Load[dl] > conc {
				conc = sres.Load[dl]
			}
		}
		if math.Abs(conc-vd.Value) > tolerance {
			return fmt.Errorf("aggregate %s witness re-run: reported %.9g, concrete %.9g",
				canon.FormatProp(net, props[i]), vd.Value, conc)
		}
	}
	return nil
}

// revalidateVerdict re-runs a violated property's witness scenario
// through the concrete simulator and requires (a) the reported worst
// value to be concretely reproduced on the property's subject and (b)
// the bound to be genuinely crossed (3× tolerance mirrors the
// verifier's epsilon slack, as in OracleWitnessRevalidation).
func revalidateVerdict(c *Case, sim *concrete.Sim, p topo.TLProp, vd tlp.Verdict) error {
	net := c.Spec.Net
	sc := concrete.NewScenario(net)
	for _, l := range vd.FailedLinks {
		sc.LinkDown[l] = true
	}
	for _, r := range vd.FailedRouters {
		sc.RouterDown[r] = true
	}
	sres := sim.Simulate(sc, c.Spec.Flows)

	crosses := func(conc, min, max float64) bool {
		return (!math.IsInf(max, 1) && conc > max-3*tolerance) ||
			(min > 0 && conc < min+3*tolerance)
	}
	dirsOf := func(link topo.LinkID, dirSpecified bool, dir topo.Direction) []topo.DirLinkID {
		if dirSpecified {
			return []topo.DirLinkID{topo.MakeDirLinkID(link, dir)}
		}
		return []topo.DirLinkID{
			topo.MakeDirLinkID(link, topo.AtoB),
			topo.MakeDirLinkID(link, topo.BtoA),
		}
	}

	switch p.Kind {
	case topo.TLPLinkLoad:
		for _, dl := range dirsOf(p.Link, p.DirSpecified, p.Dir) {
			conc := sres.Load[dl]
			if math.Abs(conc-vd.Value) <= tolerance && crosses(conc, p.Min, p.Max) {
				return nil
			}
		}
		return fmt.Errorf("witness re-run: reported %.9g not reproduced on %s", vd.Value, net.LinkName(p.Link))
	case topo.TLPUtil:
		links := []topo.LinkID{p.Link}
		if p.AllLinks {
			links = links[:0]
			for li := 0; li < net.NumLinks(); li++ {
				links = append(links, topo.LinkID(li))
			}
		}
		for _, li := range links {
			limit := p.Factor * net.Link(li).Capacity
			for _, dl := range dirsOf(li, !p.AllLinks && p.DirSpecified, p.Dir) {
				conc := sres.Load[dl]
				if math.Abs(conc-vd.Value) <= tolerance && conc > limit-3*tolerance {
					return nil
				}
			}
		}
		return fmt.Errorf("witness re-run: utilization violation %.9g reproduced on no link", vd.Value)
	case topo.TLPDelivered:
		conc := 0.0
		for fi, f := range c.Spec.Flows {
			if p.Prefix.Contains(f.Dst) {
				conc += sres.Delivered[fi]
			}
		}
		if math.Abs(conc-vd.Value) > tolerance {
			return fmt.Errorf("witness re-run: reported %.9g, concrete delivered %.9g", vd.Value, conc)
		}
		if !crosses(conc, p.Min, p.Max) {
			return fmt.Errorf("witness re-run: delivered %.9g inside bounds [%.9g, %.9g]", conc, p.Min, p.Max)
		}
		return nil
	}
	return nil // ratio properties are not mirrored here
}

// oracleTLPConditional brute-forces one conditional property: pick a
// subject link and a failable guard link, enumerate every in-budget
// scenario in which the guard is failed through the concrete simulator,
// and require the portfolio verdict to agree with bracketing bounds
// around the enumerated worst load. In router failure mode a link guard
// can never fail, so the property must come back vacuous.
func oracleTLPConditional(c *Case, n *yu.Network) error {
	net := c.Spec.Net
	subject := topo.LinkID(0)
	if len(c.Spec.Props) > 0 {
		subject = c.Spec.Props[0].Link
	}
	guard := topo.LinkID(-1)
	for li := 0; li < net.NumLinks(); li++ {
		if topo.LinkID(li) != subject && !net.Links[li].NoFail {
			guard = topo.LinkID(li)
			break
		}
	}
	if guard < 0 {
		return nil // no usable guard link in this case
	}

	if c.Mode == topo.FailRouters {
		res, err := n.VerifyPortfolio([]topo.TLProp{
			{Kind: topo.TLPLinkLoad, Link: subject, Max: 1, CondSet: true, CondLink: guard},
		}, yu.VerifyOptions{K: c.K, Mode: c.Mode, ModeSet: true})
		if err != nil {
			return err
		}
		if res.Verdicts[0].Status != tlp.StatusVacuous {
			return fmt.Errorf("link guard under router failures: status %v, want vacuous",
				res.Verdicts[0].Status)
		}
		return nil
	}

	// Brute-force worst load on the subject (either direction) over every
	// scenario with the guard failed and at most k failures in total.
	sim := concrete.NewSim(net, c.Spec.Configs)
	worst := math.Inf(-1)
	err := forEachScenario(net, c.Mode, c.K, func(links []topo.LinkID, routers []topo.RouterID) error {
		hit := false
		for _, l := range links {
			if l == guard {
				hit = true
			}
		}
		if !hit {
			return nil
		}
		sc := concrete.NewScenario(net)
		for _, l := range links {
			sc.LinkDown[l] = true
		}
		for _, r := range routers {
			sc.RouterDown[r] = true
		}
		sres := sim.Simulate(sc, c.Spec.Flows)
		for _, d := range []topo.Direction{topo.AtoB, topo.BtoA} {
			if load := sres.Load[topo.MakeDirLinkID(subject, d)]; load > worst {
				worst = load
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if math.IsInf(worst, -1) {
		return fmt.Errorf("no enumerated scenario fails guard %s", net.LinkName(guard))
	}

	// Bracket the enumerated worst: a bound above it must hold, a bound
	// clearly below it must be violated with a guard-containing witness.
	props := []topo.TLProp{
		{Kind: topo.TLPLinkLoad, Link: subject, Max: worst + 1, CondSet: true, CondLink: guard},
	}
	wantViolated := worst > 1
	if wantViolated {
		props = append(props, topo.TLProp{
			Kind: topo.TLPLinkLoad, Link: subject, Max: worst - 0.5,
			CondSet: true, CondLink: guard,
		})
	}
	res, err := n.VerifyPortfolio(props, yu.VerifyOptions{
		K: c.K, Mode: c.Mode, ModeSet: true,
	})
	if err != nil {
		return err
	}
	if got := res.Verdicts[0].Status; got != tlp.StatusHolds {
		return fmt.Errorf("conditional bound %.9g above enumerated worst %.9g: status %v, want holds",
			worst+1, worst, got)
	}
	if !wantViolated {
		return nil
	}
	vd := res.Verdicts[1]
	if vd.Status != tlp.StatusViolated {
		return fmt.Errorf("conditional bound %.9g below enumerated worst %.9g: status %v, want violated",
			worst-0.5, worst, vd.Status)
	}
	if len(vd.FailedLinks)+len(vd.FailedRouters) > c.K {
		return fmt.Errorf("conditional witness has %d failures, budget is %d",
			len(vd.FailedLinks)+len(vd.FailedRouters), c.K)
	}
	hasGuard := false
	for _, l := range vd.FailedLinks {
		if l == guard {
			hasGuard = true
		}
	}
	if !hasGuard {
		return fmt.Errorf("conditional witness %v does not fail the guard %s",
			vd.FailedLinks, net.LinkName(guard))
	}
	// Concrete revalidation: the witness scenario must actually produce
	// the reported worst value on one direction of the subject.
	sc := concrete.NewScenario(net)
	for _, l := range vd.FailedLinks {
		sc.LinkDown[l] = true
	}
	for _, r := range vd.FailedRouters {
		sc.RouterDown[r] = true
	}
	sres := sim.Simulate(sc, c.Spec.Flows)
	ok := false
	for _, d := range []topo.Direction{topo.AtoB, topo.BtoA} {
		if math.Abs(sres.Load[topo.MakeDirLinkID(subject, d)]-vd.Value) <= tolerance {
			ok = true
		}
	}
	if !ok {
		return fmt.Errorf("conditional witness re-run: reported %.9g, concrete loads %.9g/%.9g",
			vd.Value,
			sres.Load[topo.MakeDirLinkID(subject, topo.AtoB)],
			sres.Load[topo.MakeDirLinkID(subject, topo.BtoA)])
	}
	return nil
}
