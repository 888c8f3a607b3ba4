// Delta operations: the small mutation vocabulary the daemon accepts
// over POST /v1/delta. Deltas are applied to a copy of the current
// version's parsed spec and the result rendered canonically, so every
// version — whether reached by full reload or by deltas — has one textual
// identity.
package serve

import (
	"fmt"
	"net/netip"
	"slices"

	"github.com/yu-verify/yu/internal/canon"
	"github.com/yu-verify/yu/internal/config"
	"github.com/yu-verify/yu/internal/topo"
)

// Delta is one configuration mutation. Op selects the operation; the
// other fields are operands (unused ones are ignored).
type Delta struct {
	// Op is one of: set-link-cost, add-static, remove-static,
	// set-local-pref, add-export-deny, remove-export-deny, add-flow,
	// remove-flow.
	Op string `json:"op"`

	// set-link-cost: symmetric IGP metric Cost on the (first) link
	// between routers A and B.
	A    string `json:"a,omitempty"`
	B    string `json:"b,omitempty"`
	Cost int64  `json:"cost,omitempty"`

	// add-static / remove-static: Router, Prefix, and (for add) either
	// Discard or NextHop. set-local-pref / add-export-deny /
	// remove-export-deny: Router, Neighbor, and LocalPref or Prefix.
	Router    string `json:"router,omitempty"`
	Prefix    string `json:"prefix,omitempty"`
	NextHop   string `json:"next_hop,omitempty"`
	Discard   bool   `json:"discard,omitempty"`
	Neighbor  string `json:"neighbor,omitempty"`
	LocalPref uint32 `json:"local_pref,omitempty"`

	// add-flow / remove-flow.
	Flow    string  `json:"flow,omitempty"`
	Ingress string  `json:"ingress,omitempty"`
	Src     string  `json:"src,omitempty"`
	Dst     string  `json:"dst,omitempty"`
	DSCP    uint8   `json:"dscp,omitempty"`
	Gbps    float64 `json:"gbps,omitempty"`
}

// applyDeltas applies a delta batch to a copy of spec and returns the
// canonical text of the result: the one mutation path of ApplyDeltas and
// WAL replay, so every path that materializes "base + deltas" agrees
// byte-for-byte. spec, a published version's, is only read — a rejected
// batch leaves nothing behind.
func applyDeltas(spec *config.Spec, deltas []Delta) (string, error) {
	c := deltaCopy(spec)
	for i, d := range deltas {
		if err := applyDelta(c, d); err != nil {
			return "", fmt.Errorf("serve: delta %d (%s): %w", i, d.Op, err)
		}
	}
	out, err := canon.FormatSpec(c)
	if err != nil {
		return "", fmt.Errorf("serve: mutated spec is not canonicalizable: %w", err)
	}
	return out, nil
}

// deltaCopy is a copy of spec that owns everything applyDelta writes — the
// links, the configs map (Configs.Get inserts), each router's statics and
// neighbors with their export-deny lists, and the flows — and shares the
// rest with spec read-only. It is only ever rendered: its topology's
// adjacency keeps spec's costs after a set-link-cost
// (topo.Network.WithOwnLinks).
func deltaCopy(spec *config.Spec) *config.Spec {
	c := *spec
	c.Net = spec.Net.WithOwnLinks()
	c.Configs = make(config.Configs, len(spec.Configs))
	for name, rc := range spec.Configs {
		r := *rc
		r.Statics = slices.Clone(rc.Statics)
		r.Neighbors = slices.Clone(rc.Neighbors)
		for i := range r.Neighbors {
			r.Neighbors[i].ExportDeny = slices.Clone(r.Neighbors[i].ExportDeny)
		}
		c.Configs[name] = &r
	}
	c.Flows = slices.Clone(spec.Flows)
	return &c
}

// applyDelta mutates spec in place. Errors leave spec partially mutated;
// callers apply deltas to a copy (applyDeltas does).
func applyDelta(spec *config.Spec, d Delta) error {
	switch d.Op {
	case "set-link-cost":
		if d.Cost <= 0 {
			return fmt.Errorf("cost must be positive, got %d", d.Cost)
		}
		l, ok := spec.Net.FindLink(d.A, d.B)
		if !ok {
			return fmt.Errorf("no link %s-%s", d.A, d.B)
		}
		l.CostAB, l.CostBA = d.Cost, d.Cost
		return nil

	case "add-static":
		rc, err := routerConfig(spec, d.Router)
		if err != nil {
			return err
		}
		pfx, err := parsePrefix(d.Prefix)
		if err != nil {
			return err
		}
		st := config.StaticRoute{Prefix: pfx, Discard: d.Discard}
		if !d.Discard {
			nh, err := netip.ParseAddr(d.NextHop)
			if err != nil {
				return fmt.Errorf("next_hop: %w", err)
			}
			st.NextHop = nh
		}
		rc.Statics = append(rc.Statics, st)
		return nil

	case "remove-static":
		rc, err := routerConfig(spec, d.Router)
		if err != nil {
			return err
		}
		pfx, err := parsePrefix(d.Prefix)
		if err != nil {
			return err
		}
		kept := rc.Statics[:0]
		removed := false
		for _, st := range rc.Statics {
			if st.Prefix == pfx {
				removed = true
				continue
			}
			kept = append(kept, st)
		}
		if !removed {
			return fmt.Errorf("%s has no static for %s", d.Router, pfx)
		}
		rc.Statics = kept
		return nil

	case "set-local-pref":
		nb, err := neighbor(spec, d.Router, d.Neighbor)
		if err != nil {
			return err
		}
		nb.LocalPref = d.LocalPref
		return nil

	case "add-export-deny":
		nb, err := neighbor(spec, d.Router, d.Neighbor)
		if err != nil {
			return err
		}
		pfx, err := parsePrefix(d.Prefix)
		if err != nil {
			return err
		}
		for _, p := range nb.ExportDeny {
			if p == pfx {
				return nil // already denied; idempotent
			}
		}
		nb.ExportDeny = append(nb.ExportDeny, pfx)
		return nil

	case "remove-export-deny":
		nb, err := neighbor(spec, d.Router, d.Neighbor)
		if err != nil {
			return err
		}
		pfx, err := parsePrefix(d.Prefix)
		if err != nil {
			return err
		}
		kept := nb.ExportDeny[:0]
		removed := false
		for _, p := range nb.ExportDeny {
			if p == pfx {
				removed = true
				continue
			}
			kept = append(kept, p)
		}
		if !removed {
			return fmt.Errorf("%s neighbor %s does not deny %s", d.Router, d.Neighbor, pfx)
		}
		nb.ExportDeny = kept
		return nil

	case "add-flow":
		if d.Flow == "" {
			return fmt.Errorf("flow name required")
		}
		for _, f := range spec.Flows {
			if f.Name == d.Flow {
				return fmt.Errorf("flow %q already exists", d.Flow)
			}
		}
		r, ok := spec.Net.RouterByName(d.Ingress)
		if !ok {
			return fmt.Errorf("unknown ingress router %q", d.Ingress)
		}
		src, err := netip.ParseAddr(d.Src)
		if err != nil {
			return fmt.Errorf("src: %w", err)
		}
		dst, err := netip.ParseAddr(d.Dst)
		if err != nil {
			return fmt.Errorf("dst: %w", err)
		}
		if err := config.CheckGbps(d.Gbps); err != nil {
			return err
		}
		spec.Flows = append(spec.Flows, topo.Flow{
			Name: d.Flow, Ingress: r.ID, Src: src, Dst: dst, DSCP: d.DSCP, Gbps: d.Gbps,
		})
		return nil

	case "remove-flow":
		kept := spec.Flows[:0]
		removed := false
		for _, f := range spec.Flows {
			if f.Name == d.Flow {
				removed = true
				continue
			}
			kept = append(kept, f)
		}
		if !removed {
			return fmt.Errorf("no flow %q", d.Flow)
		}
		spec.Flows = kept
		return nil

	default:
		return fmt.Errorf("unknown op %q", d.Op)
	}
}

// parsePrefix parses a delta's prefix operand masked to its length, as the
// spec parser reads every prefix: 55.0.0.1/8 names 55.0.0.0/8.
func parsePrefix(text string) (netip.Prefix, error) {
	pfx, err := netip.ParsePrefix(text)
	if err != nil {
		return pfx, fmt.Errorf("prefix: %w", err)
	}
	return pfx.Masked(), nil
}

func routerConfig(spec *config.Spec, name string) (*config.Router, error) {
	if _, ok := spec.Net.RouterByName(name); !ok {
		return nil, fmt.Errorf("unknown router %q", name)
	}
	return spec.Configs.Get(name), nil
}

func neighbor(spec *config.Spec, router, addr string) (*config.BGPNeighbor, error) {
	rc, err := routerConfig(spec, router)
	if err != nil {
		return nil, err
	}
	a, err := netip.ParseAddr(addr)
	if err != nil {
		return nil, fmt.Errorf("neighbor: %w", err)
	}
	for i := range rc.Neighbors {
		if rc.Neighbors[i].Addr == a {
			return &rc.Neighbors[i], nil
		}
	}
	return nil, fmt.Errorf("%s has no neighbor %s", router, a)
}
